package storage

// Transaction-attributed mutation and write-ahead logging.
//
// TxDoc is a transaction's view of a Document: every structural mutation
// made through it is logged as ONE RecOp record carrying (a) the
// physiological page deltas that redo it and (b) a logical undo payload
// that reverts it. Because both travel in a single CRC-framed record, a
// crash can never persist half an operation's pages-without-undo or
// undo-without-pages: recovery sees the whole operation or none of it.
//
// The page deltas come from a pagestore capture (see pagestore/capture.go)
// bracketing the operation: a page's pre-image is snapshotted when the
// btree (or writeMeta) declares it for writing — Frame.MarkDirty, before the
// first byte changes — and the diff against it after the operation is the
// after-image set, handed to the log as ranges of the still-pinned frames.
// The first delta a page contributes in a dirty epoch is upgraded to a full
// body image — the anchor that lets redo heal a torn page whose on-disk
// bytes fail their checksum.
//
// Undo is logical, not physical, and there is one of it: the payload names
// the inverse operation (delete this subtree, restore these nodes, set this
// old value/name) and is built once, by the mutator, next to the mutation.
// logOp appends it to the log and hands it to the acting transaction
// (UndoLog); a runtime abort replays the transaction's list and recovery
// replays a loser's records, both in reverse order and both through
// TxDoc.ApplyUndo, so compensations are themselves logged with their own
// inverses. Compensation pairs telescope away, and a RecEnd written
// afterwards makes the rollback idempotent across repeated recoveries.

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/pagestore"
	"repro/internal/spin"
	"repro/internal/splid"
	"repro/internal/wal"
	"repro/internal/xmlmodel"
)

// SystemTxn is the transaction ID for system-attributed operations (bulk
// load, relabeling, direct Document calls). Recovery redoes system
// operations but never undoes them.
const SystemTxn uint64 = 0

// UndoLog is the acting transaction as a mutation sees it: ID attributes the
// log record, and LogUndo receives the logical inverse of every mutation
// that succeeded, in execution order — what the transaction replays, last
// first, if it aborts. tx.Txn implements it.
type UndoLog interface {
	ID() uint64
	LogUndo(payload []byte)
}

// TxDoc is a transaction-scoped mutation handle. Zero-cost to create;
// obtain one per operation via Document.For or Document.ForTx.
type TxDoc struct {
	d    *Document
	txn  uint64
	keep UndoLog // nil: the inverse goes to the log only
}

// For returns a view of the document whose mutations are attributed to the
// running transaction t and whose inverses t keeps for its own abort.
func (d *Document) For(t UndoLog) TxDoc { return TxDoc{d: d, txn: t.ID(), keep: t} }

// ForTx returns a view of the document whose mutations are attributed (and,
// once a WAL is attached, logged) to the given transaction, with no one
// keeping their inverses in memory: system operations, recovery, and the
// compensations of a rollback.
func (d *Document) ForTx(txn uint64) TxDoc { return TxDoc{d: d, txn: txn} }

// Txn returns the transaction the view writes for.
func (t TxDoc) Txn() uint64 { return t.txn }

// Document returns the underlying document.
func (t TxDoc) Document() *Document { return t.d }

// AttachWAL flushes the document to establish a durable baseline and turns
// on write-ahead logging: every subsequent mutation appends a RecOp, the
// buffer manager enforces the WAL rule against log, and Txn.Commit/Abort
// (via tx.Manager.SetWAL) write the matching commit/end records.
func (d *Document) AttachWAL(log *wal.Log) error {
	d.latch.Lock()
	defer d.latch.Unlock()
	if err := d.writeMeta(); err != nil {
		return err
	}
	if err := d.store.Flush(); err != nil {
		return err
	}
	d.wal = log
	d.walMeta = d.metaSig()
	d.store.SetWAL(log)
	// Seed the tree-root history for point-in-time snapshots: the current
	// roots cover every snapshot LSN until an operation moves one (lsn 0
	// sorts below any real snapshot). Re-seeding on a post-recovery
	// re-attach is correct — snapshots do not survive restart.
	d.roots.seed(rootEntry{
		lsn:  0,
		doc:  d.doc.Root(),
		elem: d.elem.Root(),
		ids:  d.ids.Root(),
	})
	// Wire the buffer pool's checkpoint tick (Options.CheckpointInterval)
	// to the log: each tick takes one fuzzy checkpoint over this
	// document's dirty-page table.
	d.store.SetCheckpointer(func() error {
		_, err := d.Checkpoint()
		return err
	})
	return nil
}

// Checkpoint takes one fuzzy checkpoint of the attached WAL: the log
// snapshots its active-transaction table, collects the buffer pool's
// dirty-page table, appends and forces a checkpoint record, repoints the
// master record, and GCs fully-truncated segments. Writers are not
// quiesced. Returns the checkpoint record's LSN.
func (d *Document) Checkpoint() (wal.LSN, error) {
	log := d.WAL()
	if log == nil {
		return 0, errors.New("storage: no WAL attached")
	}
	return log.Checkpoint(func() ([]pagestore.DirtyPage, uint64) {
		return d.store.DirtyPageTable()
	})
}

// WAL returns the attached log (nil when logging is off).
func (d *Document) WAL() *wal.Log {
	d.latch.Lock()
	defer d.latch.Unlock()
	return d.wal
}

// metaSig summarizes the metadata page content that operations can change.
// When it differs from the last logged signature, the metadata page is
// rewritten inside the operation's capture so its deltas ride in the same
// record — tree-root changes and vocabulary growth reach recovery that way.
type metaSig struct {
	docRoot, elemRoot, idsRoot pagestore.PageID
	vocabLen                   int
}

func (d *Document) metaSig() metaSig {
	return metaSig{
		docRoot:  d.doc.Root(),
		elemRoot: d.elem.Root(),
		idsRoot:  d.ids.Root(),
		vocabLen: d.vocab.Len(),
	}
}

// logOp runs one structural mutation under the document latch, brackets it
// with a page capture and appends its RecOp — the one shape every mutation
// below has. fn is a mutator (the *Locked methods of document.go: result if
// any, then undo payload, then error); its logical undo payload (nil when
// the operation needs no undo, dropped when it failed) goes into the record
// and to the acting transaction; with no WAL attached the transaction is
// the only taker. A writer waiting for the latch spins before it parks
// (spin.Lock): the latch is held for one mutation and its log append, less
// than it costs to wake a parked goroutine.
//
// Page deltas are logged even when fn errors: a failed operation may have
// mutated pages before failing (the runtime treats that as residue for the
// transaction's abort path), and redo must reproduce whatever the buffer
// pool holds, or the pageLSN chain would lie.
func (t TxDoc) logOp(fn func() (undo []byte, err error)) error {
	d := t.d
	spin.Lock(d.latch.TryLock, d.latch.Lock)
	defer d.latch.Unlock()
	var cap *pagestore.Capture
	if d.wal != nil {
		// The capture floor is the log position this operation's record
		// cannot precede; publishing it lets a concurrent checkpoint's
		// dirty-page scan bound the records of pages this capture is about
		// to dirty.
		cap = d.store.BeginCapture(d.wal.NextLSN())
		defer cap.Close()
	}
	undo, opErr := fn()
	if opErr != nil {
		undo = nil
	} else if t.keep != nil && len(undo) > 0 {
		t.keep.LogUndo(undo)
	}
	if cap == nil {
		return opErr
	}
	var metaErr error
	if sig := d.metaSig(); sig != d.walMeta {
		if metaErr = d.writeMeta(); metaErr == nil {
			d.walMeta = sig
		}
	}
	deltas := cap.Deltas()
	if len(deltas) == 0 && len(undo) == 0 {
		if opErr != nil {
			return opErr
		}
		return metaErr
	}
	lsn, appendErr := d.wal.AppendOp(t.txn, undo, deltas)
	if appendErr == nil {
		cap.Commit(lsn)
		// Record any root movement under the operation's LSN — before the
		// transaction's commit record can exist, so every snapshot LSN that
		// sees the commit already finds the entry.
		d.noteRoots(lsn)
	}
	switch {
	case opErr != nil:
		return opErr
	case metaErr != nil:
		return metaErr
	default:
		return appendErr
	}
}

// InsertElement adds an element node labeled id.
func (t TxDoc) InsertElement(id splid.ID, name string) (n xmlmodel.Node, err error) {
	err = t.logOp(func() (undo []byte, err error) {
		n, undo, err = t.d.insertElementLocked(t.d.insertRaw, id, name)
		return undo, err
	})
	return n, err
}

// InsertText adds a text node (and its string child) labeled id.
func (t TxDoc) InsertText(id splid.ID, value []byte) (n xmlmodel.Node, err error) {
	err = t.logOp(func() (undo []byte, err error) {
		n, undo, err = t.d.insertTextLocked(t.d.insertRaw, id, value)
		return undo, err
	})
	return n, err
}

// SetAttribute adds or overwrites an attribute on element el.
func (t TxDoc) SetAttribute(el splid.ID, name string, value []byte) (n xmlmodel.Node, err error) {
	err = t.logOp(func() (undo []byte, err error) {
		n, undo, err = t.d.setAttributeLocked(el, name, value)
		return undo, err
	})
	return n, err
}

// SetValue overwrites the character data of a text or attribute node.
func (t TxDoc) SetValue(id splid.ID, value []byte) error {
	return t.logOp(func() ([]byte, error) { return t.d.setValueLocked(id, value) })
}

// Rename changes the name of an element or attribute node.
func (t TxDoc) Rename(id splid.ID, newName string) error {
	return t.logOp(func() ([]byte, error) { return t.d.renameLocked(id, newName) })
}

// DeleteSubtree removes the node labeled id and all its descendants, and
// returns how many nodes that was.
func (t TxDoc) DeleteSubtree(id splid.ID) (count int, err error) {
	err = t.logOp(func() (undo []byte, err error) {
		count, undo, err = t.d.deleteSubtreeLocked(id)
		return undo, err
	})
	return count, err
}

// RestoreSubtree reinserts previously deleted nodes (the inverse of
// DeleteSubtree).
func (t TxDoc) RestoreSubtree(nodes []xmlmodel.Node) error {
	return t.logOp(func() ([]byte, error) { return t.d.restoreSubtreeLocked(nodes) })
}

// Logical undo payload catalog. Each payload starts with a one-byte opcode
// followed by opcode-specific fields; SPLIDs are length-prefixed with u16,
// node records with u32.
const (
	undoDelete   byte = 1 // [u16 len][splid] — delete the subtree rooted here
	undoSetValue byte = 2 // [u16 len][splid][old value] — restore a value
	undoRename   byte = 3 // [u16 len][splid][old name] — restore a name
	undoRestore  byte = 4 // [u32 n] n×([u16 len][splid][u32 len][record]) — reinsert
)

// errCorruptUndo reports an undecodable undo payload in a CRC-clean record.
var errCorruptUndo = errors.New("storage: corrupt undo payload")

func appendSplid(buf []byte, id splid.ID) []byte {
	return id.AppendEncode(binary.BigEndian.AppendUint16(buf, uint16(id.EncodedLen())))
}

func takeSplid(p []byte) (splid.ID, []byte, error) {
	if len(p) < 2 {
		return splid.Null, nil, errCorruptUndo
	}
	n := int(binary.BigEndian.Uint16(p))
	p = p[2:]
	if len(p) < n {
		return splid.Null, nil, errCorruptUndo
	}
	id, err := splid.Decode(p[:n])
	if err != nil {
		return splid.Null, nil, fmt.Errorf("%w: %v", errCorruptUndo, err)
	}
	return id, p[n:], nil
}

func encodeUndoDelete(id splid.ID) []byte {
	return appendSplid(append(make([]byte, 0, 3+id.EncodedLen()), undoDelete), id)
}

func encodeUndoSetValue(id splid.ID, old []byte) []byte {
	return append(appendSplid([]byte{undoSetValue}, id), old...)
}

func encodeUndoRename(id splid.ID, oldName string) []byte {
	return append(appendSplid([]byte{undoRename}, id), oldName...)
}

func encodeUndoRestore(nodes []xmlmodel.Node) []byte {
	buf := []byte{undoRestore, 0, 0, 0, 0}
	binary.BigEndian.PutUint32(buf[1:], uint32(len(nodes)))
	for _, n := range nodes {
		buf = appendSplid(buf, n.ID)
		rec := xmlmodel.EncodeRecord(n)
		var l [4]byte
		binary.BigEndian.PutUint32(l[:], uint32(len(rec)))
		buf = append(buf, l[:]...)
		buf = append(buf, rec...)
	}
	return buf
}

// ApplyUndo executes one logical undo payload through the transaction view,
// so the compensation is logged like any other operation — the one applier
// behind both rollbacks, tx.Txn.Abort at runtime and Recover for losers. It
// is tolerant of already-undone state (ErrNodeNotFound, surviving nodes):
// recovery may replay an undo whose effect partially survives from a
// runtime abort that crashed halfway, and under isolation level none a
// runtime abort may find its node deleted by somebody else.
func (t TxDoc) ApplyUndo(payload []byte) error {
	if len(payload) == 0 {
		return nil
	}
	op, p := payload[0], payload[1:]
	switch op {
	case undoDelete:
		id, _, err := takeSplid(p)
		if err != nil {
			return err
		}
		if _, err := t.DeleteSubtree(id); err != nil && !errors.Is(err, ErrNodeNotFound) {
			return err
		}
		return nil
	case undoSetValue:
		id, rest, err := takeSplid(p)
		if err != nil {
			return err
		}
		if err := t.SetValue(id, append([]byte(nil), rest...)); err != nil && !errors.Is(err, ErrNodeNotFound) {
			return err
		}
		return nil
	case undoRename:
		id, rest, err := takeSplid(p)
		if err != nil {
			return err
		}
		if err := t.Rename(id, string(rest)); err != nil && !errors.Is(err, ErrNodeNotFound) {
			return err
		}
		return nil
	case undoRestore:
		if len(p) < 4 {
			return errCorruptUndo
		}
		n := int(binary.BigEndian.Uint32(p))
		p = p[4:]
		nodes := make([]xmlmodel.Node, 0, n)
		for i := 0; i < n; i++ {
			id, rest, err := takeSplid(p)
			if err != nil {
				return err
			}
			if len(rest) < 4 {
				return errCorruptUndo
			}
			rl := int(binary.BigEndian.Uint32(rest))
			rest = rest[4:]
			if len(rest) < rl {
				return errCorruptUndo
			}
			node, err := xmlmodel.DecodeRecord(id, append([]byte(nil), rest[:rl]...))
			if err != nil {
				return fmt.Errorf("%w: %v", errCorruptUndo, err)
			}
			nodes = append(nodes, node)
			p = rest[rl:]
		}
		// Skip nodes that survived (a half-finished runtime abort may have
		// restored a prefix already).
		live := nodes[:0]
		for _, node := range nodes {
			ok, err := t.d.Exists(node.ID)
			if err != nil {
				return err
			}
			if !ok {
				live = append(live, node)
			}
		}
		if len(live) == 0 {
			return nil
		}
		return t.RestoreSubtree(live)
	default:
		return fmt.Errorf("%w: opcode %d", errCorruptUndo, op)
	}
}
