package wal

// Fuzzy checkpoints, the master record, and segment GC.
//
// A checkpoint is taken without quiescing writers: it snapshots the
// active-transaction table (ATT) and the buffer pool's dirty-page table
// (DPT) while appends continue, logs both in one RecCheckpoint record, and
// derives two positions from the snapshot:
//
//	redoLSN  — the oldest LSN redo must scan from to reconstruct every
//	           page image. min(the log position when the snapshot began,
//	           every dirty page's recLSN, the in-flight capture floor).
//	truncLSN — the oldest LSN the log must physically retain.
//	           min(redoLSN, every active transaction's first LSN), so the
//	           undo pass always finds its records too.
//
// The master record is a tiny fixed-size blob stored beside the segments
// (not in the record stream) that locates the latest complete checkpoint
// and re-anchors LSN addressing after truncation:
//
//	[4 "XMST"][u32 crc][u64 ckptLSN][u64 truncLSN][u64 keepIdx][u64 keepBase]
//
// crc is CRC32 (IEEE) over the four u64s. keepIdx/keepBase give the index
// and base LSN of the oldest segment the checkpoint's GC plan keeps, which
// is how Open recomputes every segment's base once segment 0 is gone.
//
// Ordering rule (the no-GC-before-master rule): a segment may be unlinked
// only after (1) the checkpoint record that releases it is durable and
// (2) the master record pointing at that checkpoint is durably in place.
// A crash between any two steps leaves a log that recovers correctly: the
// checkpoint record without a master is simply an ordinary record; a
// master without GC means surviving below-trunc segments, which Open
// re-anchors by walking backward from keepIdx; partial GC leaves a
// contiguous suffix because removal is oldest-first.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"

	"repro/internal/fault"
	"repro/internal/pagestore"
)

// RecCheckpoint carries one fuzzy checkpoint (EncodeCheckpoint payload).
// It belongs to no transaction (txn 0) and is never redone or undone;
// recovery reads it only through the master pointer.
const RecCheckpoint byte = 4

// DefaultRetain is the minimum number of newest segments GC keeps when
// Config.Retain is zero.
const DefaultRetain = 2

// ErrCorruptCheckpoint reports an undecodable checkpoint payload in a
// CRC-clean record — corruption (or a hostile log), not a torn tail.
var ErrCorruptCheckpoint = errors.New("wal: corrupt checkpoint payload")

// AttEntry is one active-transaction-table entry: a transaction with
// logged work but no commit/end record, and its first record's LSN.
type AttEntry struct {
	Txn      uint64
	FirstLSN LSN
}

// Checkpoint is one decoded fuzzy checkpoint.
type Checkpoint struct {
	// LSN locates the RecCheckpoint record in the log (0 when the
	// checkpoint has not been appended yet).
	LSN LSN
	// RedoLSN is where redo must start scanning.
	RedoLSN LSN
	// Dirty is the dirty-page table at snapshot time, sorted by page.
	Dirty []pagestore.DirtyPage
	// Active is the active-transaction table at snapshot time, sorted by
	// transaction id.
	Active []AttEntry
}

// ckptVersion is the checkpoint payload format version.
const ckptVersion = 1

// EncodeCheckpoint builds a RecCheckpoint payload:
//
//	[u8 version][u64 redoLSN][u32 nDirty] nDirty × [u32 page][u64 recLSN]
//	[u32 nActive] nActive × [u64 txn][u64 firstLSN]
func EncodeCheckpoint(ck *Checkpoint) []byte {
	out := make([]byte, 0, 1+8+4+len(ck.Dirty)*12+4+len(ck.Active)*16)
	var tmp [8]byte
	out = append(out, ckptVersion)
	binary.LittleEndian.PutUint64(tmp[:], ck.RedoLSN)
	out = append(out, tmp[:]...)
	binary.LittleEndian.PutUint32(tmp[:4], uint32(len(ck.Dirty)))
	out = append(out, tmp[:4]...)
	for _, d := range ck.Dirty {
		binary.LittleEndian.PutUint32(tmp[:4], uint32(d.Page))
		out = append(out, tmp[:4]...)
		binary.LittleEndian.PutUint64(tmp[:], d.RecLSN)
		out = append(out, tmp[:]...)
	}
	binary.LittleEndian.PutUint32(tmp[:4], uint32(len(ck.Active)))
	out = append(out, tmp[:4]...)
	for _, e := range ck.Active {
		binary.LittleEndian.PutUint64(tmp[:], e.Txn)
		out = append(out, tmp[:]...)
		binary.LittleEndian.PutUint64(tmp[:], e.FirstLSN)
		out = append(out, tmp[:]...)
	}
	return out
}

// DecodeCheckpoint parses an EncodeCheckpoint payload. Every length is
// validated against the remaining bytes before anything is allocated, so
// a hostile count field cannot force a huge allocation.
func DecodeCheckpoint(p []byte) (*Checkpoint, error) {
	if len(p) < 13 {
		return nil, fmt.Errorf("%w: %d bytes", ErrCorruptCheckpoint, len(p))
	}
	if p[0] != ckptVersion {
		return nil, fmt.Errorf("%w: version %d", ErrCorruptCheckpoint, p[0])
	}
	ck := &Checkpoint{RedoLSN: binary.LittleEndian.Uint64(p[1:])}
	p = p[9:]
	nd := int(binary.LittleEndian.Uint32(p))
	p = p[4:]
	if len(p) < nd*12 {
		return nil, fmt.Errorf("%w: %d dirty entries in %d bytes", ErrCorruptCheckpoint, nd, len(p))
	}
	if nd > 0 {
		ck.Dirty = make([]pagestore.DirtyPage, 0, nd)
	}
	for i := 0; i < nd; i++ {
		ck.Dirty = append(ck.Dirty, pagestore.DirtyPage{
			Page:   pagestore.PageID(binary.LittleEndian.Uint32(p)),
			RecLSN: binary.LittleEndian.Uint64(p[4:]),
		})
		p = p[12:]
	}
	if len(p) < 4 {
		return nil, fmt.Errorf("%w: missing active-txn count", ErrCorruptCheckpoint)
	}
	na := int(binary.LittleEndian.Uint32(p))
	p = p[4:]
	if len(p) < na*16 {
		return nil, fmt.Errorf("%w: %d active entries in %d bytes", ErrCorruptCheckpoint, na, len(p))
	}
	if na > 0 {
		ck.Active = make([]AttEntry, 0, na)
	}
	for i := 0; i < na; i++ {
		ck.Active = append(ck.Active, AttEntry{
			Txn:      binary.LittleEndian.Uint64(p),
			FirstLSN: binary.LittleEndian.Uint64(p[8:]),
		})
		p = p[16:]
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorruptCheckpoint, len(p))
	}
	return ck, nil
}

// Master record codec.

const (
	masterMagic = "XMST"
	masterSize  = 40
)

type masterRec struct {
	ckptLSN  LSN
	truncLSN LSN
	keepIdx  uint64
	keepBase LSN
}

func encodeMaster(m masterRec) []byte {
	out := make([]byte, masterSize)
	copy(out[0:4], masterMagic)
	binary.LittleEndian.PutUint64(out[8:], m.ckptLSN)
	binary.LittleEndian.PutUint64(out[16:], m.truncLSN)
	binary.LittleEndian.PutUint64(out[24:], m.keepIdx)
	binary.LittleEndian.PutUint64(out[32:], m.keepBase)
	binary.LittleEndian.PutUint32(out[4:], crc32.ChecksumIEEE(out[8:]))
	return out
}

// readMaster loads and validates the master record. Absent, truncated, or
// CRC-invalid masters report false; Open then treats the log as never
// checkpointed, which is safe while segment 0 survives (GC runs only
// after a master is durable) and a hard error once it is gone (LSN
// addressing would be lost).
func readMaster(store SegmentStore) (masterRec, bool) {
	data, err := store.ReadMaster()
	if err != nil || len(data) != masterSize || string(data[0:4]) != masterMagic {
		return masterRec{}, false
	}
	if binary.LittleEndian.Uint32(data[4:]) != crc32.ChecksumIEEE(data[8:]) {
		return masterRec{}, false
	}
	return masterRec{
		ckptLSN:  binary.LittleEndian.Uint64(data[8:]),
		truncLSN: binary.LittleEndian.Uint64(data[16:]),
		keepIdx:  binary.LittleEndian.Uint64(data[24:]),
		keepBase: binary.LittleEndian.Uint64(data[32:]),
	}, true
}

// LatestCheckpoint returns the latest complete checkpoint — the one the
// durable master record points at, updated when Checkpoint completes —
// or nil before the first.
func (l *Log) LatestCheckpoint() *Checkpoint {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastCkpt
}

// Checkpoint takes one fuzzy checkpoint: snapshot the ATT and (via
// collect, typically Store.DirtyPageTable) the DPT, append and force a
// RecCheckpoint record, durably repoint the master record at it, then GC
// every segment wholly below the truncation point. Writers are never
// quiesced — the snapshot is racy by design and the redo LSN accounts for
// the races (capture floor, recLSN minima, the pre-snapshot log position).
//
// The collect callback runs after the log position is snapshotted; that
// ordering is load-bearing. Any page dirtied by a capture that began after
// the snapshot logs its records above the snapshot position, so redo
// starting at min(snapshot, DPT, floor) cannot miss it.
//
// Concurrent Checkpoint calls serialize; errors leave the previous
// checkpoint in force (truncation is merely delayed).
func (l *Log) Checkpoint(collect func() ([]pagestore.DirtyPage, uint64)) (LSN, error) {
	l.ckptMu.Lock()
	defer l.ckptMu.Unlock()

	l.mu.Lock()
	if l.crashed {
		l.mu.Unlock()
		return 0, ErrCrashed
	}
	if l.failure != nil {
		err := l.failure
		l.mu.Unlock()
		return 0, err
	}
	if l.closed {
		l.mu.Unlock()
		return 0, ErrClosed
	}
	beginLSN := l.next
	att := make([]AttEntry, 0, len(l.att))
	for txn, first := range l.att {
		att = append(att, AttEntry{Txn: txn, FirstLSN: first})
	}
	l.mu.Unlock()
	sort.Slice(att, func(i, j int) bool { return att[i].Txn < att[j].Txn })

	var dirty []pagestore.DirtyPage
	var floor uint64
	if collect != nil {
		dirty, floor = collect()
	}
	sort.Slice(dirty, func(i, j int) bool { return dirty[i].Page < dirty[j].Page })

	redo := beginLSN
	for _, d := range dirty {
		// recLSN 0 means dirt without LSN tracking; the page's records (if
		// any) predate this log's attachment and beginLSN/floor bound it.
		if d.RecLSN != 0 && d.RecLSN < redo {
			redo = d.RecLSN
		}
	}
	if floor != 0 && floor < redo {
		redo = floor
	}
	trunc := redo
	for _, e := range att {
		if e.FirstLSN < trunc {
			trunc = e.FirstLSN
		}
	}

	ck := &Checkpoint{RedoLSN: redo, Dirty: dirty, Active: att}
	lsn, err := l.Append(RecCheckpoint, 0, EncodeCheckpoint(ck))
	if err != nil {
		return 0, err
	}
	ck.LSN = lsn
	if err := l.Force(lsn); err != nil {
		return 0, err
	}

	if l.crashAt(fault.CkptForced) {
		return 0, ErrCrashed
	}

	keepIdx, keepBase, removable := l.gcPlan(trunc)
	if err := l.store.WriteMaster(encodeMaster(masterRec{
		ckptLSN:  lsn,
		truncLSN: trunc,
		keepIdx:  keepIdx,
		keepBase: keepBase,
	})); err != nil {
		return 0, fmt.Errorf("wal: write master: %w", err)
	}

	l.mu.Lock()
	l.checkpoints++
	l.ckptLSN = lsn
	l.truncLSN = trunc
	l.lastCkpt = ck
	l.mu.Unlock()

	if l.crashAt(fault.CkptMaster) {
		return lsn, ErrCrashed
	}

	for _, idx := range removable {
		if err := l.store.Remove(idx); err != nil {
			return lsn, fmt.Errorf("wal: gc segment %d: %w", idx, err)
		}
		l.mu.Lock()
		delete(l.bases, idx)
		l.segsGCed++
		l.mu.Unlock()
		if l.crashAt(fault.CkptGC) {
			return lsn, ErrCrashed
		}
	}
	return lsn, nil
}

// gcPlan computes which segments a truncation to trunc may unlink. A
// segment is removable when every byte of it sits below trunc, i.e. the
// next segment's base is <= trunc. The newest cfg.Retain segments are
// always kept (so the active segment is never touched), and the plan
// reports the oldest kept segment's index and base LSN for the master
// record.
func (l *Log) gcPlan(trunc LSN) (keepIdx uint64, keepBase LSN, removable []uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	idxs := make([]uint64, 0, len(l.bases))
	for idx := range l.bases {
		idxs = append(idxs, idx)
	}
	sort.Slice(idxs, func(a, b int) bool { return idxs[a] < idxs[b] })
	if len(idxs) == 0 {
		return 0, 1, nil
	}
	n := 0
	for n+1 < len(idxs) && l.bases[idxs[n+1]] <= trunc {
		n++
	}
	if max := len(idxs) - l.cfg.Retain; n > max {
		n = max
	}
	if n < 0 {
		n = 0
	}
	removable = append([]uint64(nil), idxs[:n]...)
	keepIdx = idxs[n]
	keepBase = l.bases[keepIdx]
	return keepIdx, keepBase, removable
}
