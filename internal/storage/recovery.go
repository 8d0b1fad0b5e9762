package storage

// Crash recovery: ARIES-lite restart over the write-ahead log.
//
// Recover rebuilds a consistent document from whatever the crash left on
// the page backend plus the log's durable prefix, in three passes:
//
//  1. Analysis — one log scan classifies transactions: a RecCommit makes a
//     winner, a RecEnd closes a transaction (committed or fully rolled
//     back), anything else with logged operations is a loser. With a fuzzy
//     checkpoint on record (the master pointer, see wal/checkpoint.go) the
//     scan starts at min(checkpoint redo LSN, oldest active transaction's
//     first LSN) instead of LSN 0, so restart work is proportional to
//     work-since-checkpoint, not total history.
//
//  2. Redo — repeating history: every RecOp's page deltas at or above the
//     checkpoint's redo LSN are applied in log order, conditional on the
//     page's stamped pageLSN (a page already carrying LSN >= the record's
//     was written back after that operation and is skipped). The scan
//     groups deltas into per-page chains and the pass replays them page by
//     page, each chain in LSN order (one serial loop: redo is ~2 % of a
//     restart, and 16 goroutines over it cost more than they saved —
//     DESIGN.md §14). Pages whose
//     on-disk checksum fails — torn by a crash mid-writeback — are reset
//     and rebuilt from a full-page image; every dirty epoch logs one at
//     the page's recLSN (>= the redo LSN by the checkpoint invariants), so
//     a torn page is always healable from the bounded scan. Redone pages
//     are checksummed and written back before the document is opened.
//
//  3. Undo — losers roll back by applying their logical undo payloads in
//     reverse log order through the normal logged-mutation path, so
//     compensations are themselves durable; a RecEnd per loser then makes
//     repeated recovery skip them. The truncation point never passes an
//     active transaction's first record, so every loser record survives
//     segment GC and sits inside the analysis scan.
//
// Running Recover twice (or crashing during recovery and recovering again)
// converges on the same state: redo is pageLSN-conditional, undo is
// resumable, and RecEnd records mark completed rollbacks.

import (
	"fmt"
	"sort"

	"repro/internal/pagestore"
	"repro/internal/wal"
)

// RecoveryReport summarizes a Recover run.
type RecoveryReport struct {
	Records     int             // log records scanned
	RedoneOps   int             // page deltas (re)applied
	SkippedOps  int             // page deltas absorbed by pageLSNs
	HealedPages int             // pages with failed checksums rebuilt from full images
	Committed   map[uint64]bool // transactions with a durable commit record
	Losers      []uint64        // transactions rolled back by this run
	UndoneOps   int             // undo payloads applied during rollback
	// CheckpointLSN is the checkpoint the scan started from (0 = none,
	// full-history scan).
	CheckpointLSN wal.LSN
}

// loserOp is one undoable operation of an unfinished transaction.
type loserOp struct {
	lsn  wal.LSN
	txn  uint64
	undo []byte
}

// redoDelta is one page's slice of a RecOp, queued for that page's replay.
type redoDelta struct {
	lsn  wal.LSN
	full bool
	off  int
	data []byte
}

// Recover restarts a document from backend and its write-ahead log. The
// log must already be reopened post-crash (wal.Open truncates any torn
// tail and locates the latest checkpoint via the master record). The
// returned document has the log attached and is fully consistent: effects
// of committed transactions are present, effects of unfinished ones are
// rolled back and their rollbacks logged.
func Recover(backend pagestore.Backend, log *wal.Log, opts Options) (*Document, *RecoveryReport, error) {
	rep := &RecoveryReport{Committed: make(map[uint64]bool)}

	// Scan bounds from the latest checkpoint: redo needs records from the
	// redo LSN; undo needs records from the oldest active transaction's
	// first LSN, which can be older. One scan from the minimum serves both.
	var scanFrom, redoFrom wal.LSN
	if ckpt := log.LatestCheckpoint(); ckpt != nil {
		rep.CheckpointLSN = ckpt.LSN
		redoFrom = ckpt.RedoLSN
		scanFrom = redoFrom
		for _, e := range ckpt.Active {
			if e.FirstLSN < scanFrom {
				scanFrom = e.FirstLSN
			}
		}
	}

	// Analysis: classify transactions and collect per-page redo chains.
	chains := make(map[pagestore.PageID][]redoDelta)
	seen := make(map[uint64]bool)
	ended := make(map[uint64]bool)
	undoLog := make(map[uint64][]loserOp)

	err := log.ScanFrom(scanFrom, func(r wal.Record) error {
		rep.Records++
		switch r.Type {
		case wal.RecCommit:
			rep.Committed[r.Txn] = true
		case wal.RecEnd:
			ended[r.Txn] = true
		case wal.RecCheckpoint:
			// Informational: the authoritative checkpoint comes from the
			// master pointer, already consumed above.
		case wal.RecOp:
			undo, deltas, err := wal.DecodeOp(r.Payload)
			if err != nil {
				return fmt.Errorf("storage: recovery at LSN %d: %w", r.LSN, err)
			}
			if r.Txn != SystemTxn {
				seen[r.Txn] = true
				if len(undo) > 0 {
					undoLog[r.Txn] = append(undoLog[r.Txn], loserOp{r.LSN, r.Txn, undo})
				}
			}
			if r.LSN < redoFrom {
				// Below the redo LSN every page effect is durable (else the
				// page's recLSN would have pulled the redo LSN down); the
				// record was scanned only for its undo payload.
				return nil
			}
			for _, dl := range deltas {
				chains[dl.Page] = append(chains[dl.Page], redoDelta{
					lsn:  r.LSN,
					full: dl.FullImage(),
					off:  dl.Off,
					data: dl.Data,
				})
			}
		}
		return nil
	})
	if err != nil {
		return nil, rep, err
	}

	if err := redoChains(backend, chains, rep); err != nil {
		return nil, rep, err
	}

	// Reopen the document over the repaired backend and re-arm logging.
	d, err := Open(backend, opts)
	if err != nil {
		return nil, rep, fmt.Errorf("storage: recovery reopen: %w", err)
	}
	if err := d.AttachWAL(log); err != nil {
		return nil, rep, err
	}

	// Undo pass: roll back losers in global reverse log order.
	var losers []loserOp
	for txn, ops := range undoLog {
		if rep.Committed[txn] || ended[txn] {
			continue
		}
		losers = append(losers, ops...)
	}
	for txn := range seen {
		if !rep.Committed[txn] && !ended[txn] {
			rep.Losers = append(rep.Losers, txn)
		}
	}
	sort.Slice(losers, func(i, j int) bool { return losers[i].lsn > losers[j].lsn })
	sort.Slice(rep.Losers, func(i, j int) bool { return rep.Losers[i] < rep.Losers[j] })
	for _, op := range losers {
		if err := d.ForTx(op.txn).ApplyUndo(op.undo); err != nil {
			return nil, rep, fmt.Errorf("storage: undo for txn %d at LSN %d: %w", op.txn, op.lsn, err)
		}
		rep.UndoneOps++
	}
	var endLSN wal.LSN
	for _, txn := range rep.Losers {
		lsn, err := log.AppendEnd(txn)
		if err != nil {
			return nil, rep, err
		}
		endLSN = lsn
	}
	if len(rep.Losers) > 0 {
		if err := log.Force(endLSN); err != nil {
			return nil, rep, err
		}
	}
	if err := d.Flush(); err != nil {
		return nil, rep, err
	}
	return d, rep, nil
}

// redoChains replays the per-page delta chains against the backend, one
// page at a time. Physiological logging confines every delta to one page, so
// the order pages are visited in does not matter; each page's chain is in LSN
// order because the scan appended it that way.
func redoChains(backend pagestore.Backend, chains map[pagestore.PageID][]redoDelta, rep *RecoveryReport) error {
	if len(chains) == 0 {
		return nil
	}
	// Pages beyond the backend were allocated by the crashed run but never
	// written back.
	maxPage := pagestore.PageID(0)
	for id := range chains {
		if id > maxPage {
			maxPage = id
		}
	}
	for backend.NumPages() <= maxPage {
		if _, err := backend.Allocate(); err != nil {
			return err
		}
	}

	buf := make([]byte, pagestore.PageSize)
	for id, chain := range chains {
		clear(buf)
		torn := false
		if err := backend.ReadPage(id, buf); err != nil || pagestore.VerifyChecksum(id, buf) != nil {
			// Unreadable or torn: reset and rebuild from the log. The page
			// stays unusable unless a full image arrives.
			clear(buf)
			torn = true
			rep.HealedPages++
		}
		applied := false
		for _, dl := range chain {
			if dl.full {
				torn = false
			}
			if pagestore.PageLSN(buf) >= dl.lsn {
				rep.SkippedOps++
				continue // writeback already carried this operation
			}
			copy(buf[dl.off:], dl.data)
			pagestore.SetPageLSN(buf, dl.lsn)
			applied = true
			rep.RedoneOps++
		}
		if torn {
			return fmt.Errorf("storage: recovery: page %d is corrupt and the log holds no full image", id)
		}
		if applied {
			pagestore.StampChecksum(buf)
			if err := backend.WritePage(id, buf); err != nil {
				return err
			}
		}
	}
	return backend.Sync()
}
