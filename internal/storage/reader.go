package storage

import (
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/btree"
	"repro/internal/pagestore"
	"repro/internal/splid"
	"repro/internal/xmlmodel"
)

// reader bundles read views of the three trees plus the vocabulary and
// implements every read-only document operation (lookups in reader.go, the
// navigation axes in navigate.go). Document embeds a reader over its live
// trees, so all existing read calls promote through it unchanged; Snapshot
// embeds a reader over views pinned at one LSN. Either way a tree is read
// through a *btree.View, so every primitive is written once, on one
// btree.Cursor per call. The vocabulary is shared between the two: it is
// append-only with stable surrogates, so a name interned after the snapshot
// simply resolves to a name no snapshot node references.
type reader struct {
	doc   *btree.View // SPLID -> node record, document order
	elem  *btree.View // name surrogate + SPLID -> nil (element index)
	ids   *btree.View // id-attribute value -> element SPLID
	vocab *xmlmodel.Vocabulary
	// hint is the leaf memory every document cursor starts from (nil: none).
	hint *btree.Hint
}

// Reader is that one implementation under an exported name: the read-only
// operation surface shared by the live *Document and point-in-time *Snapshot
// views, for callers that must work against either — the node manager
// routing a snapshot transaction. It is the concrete type rather than an
// interface so such callers stay statically dispatched: a callback handed
// to a Reader's scan does not escape to the heap.
type Reader = reader

// Reader returns the reader behind a *Document or *Snapshot.
func (r reader) Reader() Reader { return r }

// WithHint returns the reader with a leaf memory on the document tree: each
// primitive's cursor starts at the leaf the previous one closed on, and a
// point read near it fixes that leaf alone. The node manager keeps one per
// transaction; a snapshot's views ignore it (btree.View.HintedCursor).
func (r reader) WithHint(h *btree.Hint) Reader {
	r.hint = h
	return r
}

// cursor opens a cursor on the document tree through the leaf memory.
func (r reader) cursor() btree.Cursor { return r.doc.HintedCursor(r.hint) }

// liveReader builds the reader a Document embeds over its live trees.
func liveReader(doc, elem, ids *btree.Tree, vocab *xmlmodel.Vocabulary) reader {
	return reader{doc: &doc.View, elem: &elem.View, ids: &ids.View, vocab: vocab}
}

// nodeAt decodes the record under the cursor, key and all. Only a string
// node's character data leaves the page, as a copy.
func nodeAt(c *btree.Cursor) (xmlmodel.Node, error) {
	id, err := splid.Decode(c.Key())
	if err != nil {
		return xmlmodel.Node{}, err
	}
	return recordAt(c, id)
}

// recordAt decodes the record under the cursor for a caller that knows its
// SPLID already.
func recordAt(c *btree.Cursor, id splid.ID) (xmlmodel.Node, error) {
	n, err := xmlmodel.DecodeRecord(id, c.Value())
	if n.Value != nil {
		n.Value = append([]byte(nil), n.Value...)
	}
	return n, err
}

// find moves the cursor to the node labeled id and decodes it. A seek from
// wherever the cursor stands: a node in the leaf it already pins costs no
// descent.
func find(c *btree.Cursor, id splid.ID) (xmlmodel.Node, error) {
	var kb [btree.MaxKeyLen]byte
	if id.IsNull() || !c.Find(id.AppendEncode(kb[:0])) {
		if err := c.Err(); err != nil {
			return xmlmodel.Node{}, err
		}
		return xmlmodel.Node{}, fmt.Errorf("%w: %v", ErrNodeNotFound, id)
	}
	return recordAt(c, id)
}

// GetNode fetches the node labeled id.
func (r reader) GetNode(id splid.ID) (xmlmodel.Node, error) {
	c := r.cursor()
	defer c.Close()
	return find(&c, id)
}

// Exists reports whether a node is stored under id.
func (r reader) Exists(id splid.ID) (bool, error) {
	c := r.cursor()
	defer c.Close()
	var kb [btree.MaxKeyLen]byte
	return !id.IsNull() && c.Find(id.AppendEncode(kb[:0])), c.Err()
}

// Value returns the character data of a text or attribute node. The string
// node is the key right after its owner, so both are read from one position.
func (r reader) Value(id splid.ID) ([]byte, error) {
	c := r.cursor()
	defer c.Close()
	n, err := find(&c, id)
	if err != nil {
		return nil, err
	}
	switch n.Kind {
	case xmlmodel.KindText, xmlmodel.KindAttribute:
		n, err = find(&c, id.StringNode())
		return n.Value, err
	case xmlmodel.KindString:
		return n.Value, nil
	default:
		return nil, fmt.Errorf("storage: node %v (%v) has no value", id, n.Kind)
	}
}

// ElementByID resolves an id-attribute value to the owning element's SPLID —
// the getElementById direct jump.
func (r reader) ElementByID(value []byte) (splid.ID, error) {
	c := r.ids.Cursor()
	defer c.Close()
	if !c.Find(value) {
		if err := c.Err(); err != nil {
			return splid.Null, err
		}
		return splid.Null, fmt.Errorf("%w: id %q", ErrNodeNotFound, value)
	}
	return splid.Decode(c.Value())
}

// ElementsByName visits the SPLIDs of all elements with the given name in
// document order (the node-reference index of Figure 6b).
func (r reader) ElementsByName(name string, fn func(splid.ID) bool) error {
	sur, ok := r.vocab.Lookup(name)
	if !ok {
		return nil
	}
	var prefix [2]byte
	binary.BigEndian.PutUint16(prefix[:], uint16(sur))
	limit := []byte{prefix[0], prefix[1] + 1}
	if prefix[1] == 0xFF {
		limit = []byte{prefix[0] + 1, 0}
	}
	return r.elem.Ascend(prefix[:], limit, func(k, _ []byte) bool {
		id, err := splid.Decode(k[2:])
		if err != nil {
			return true
		}
		return fn(id)
	})
}

// Snapshot is a read-only view of a document frozen at one WAL snapshot
// LSN: every promoted reader method resolves pages through the version
// layer, so the view observes exactly the state committed as of LSN() no
// matter what concurrent writers do. Snapshots hold no locks, no pins, and
// no resources — drop one when done.
type Snapshot struct {
	reader
	lsn uint64
}

// LSN returns the WAL position the snapshot reads at.
func (s *Snapshot) LSN() uint64 { return s.lsn }

// rootEntry records the tree roots in effect for snapshots at or above lsn
// (up to the next entry). Appended by noteRoots whenever a logged operation
// moved a root; the lsn is the operation record's, which strictly precedes
// any commit-consistent snapshot LSN that can see the change.
type rootEntry struct {
	lsn            uint64
	doc, elem, ids pagestore.PageID
}

// rootLog is the in-memory history of tree-root movements since AttachWAL,
// the structure-at-S complement of the page version chains: page versions
// reconstruct old pages, the root log says where to start descending.
// Snapshots do not survive restart, so neither does the log — AttachWAL
// re-seeds it after recovery.
type rootLog struct {
	mu      sync.Mutex
	entries []rootEntry
}

// seed resets the log to a single entry covering every LSN.
func (l *rootLog) seed(e rootEntry) {
	l.mu.Lock()
	l.entries = []rootEntry{e}
	l.mu.Unlock()
}

// note appends e when it moves any root; no-op when the log is unseeded
// (no WAL attached).
func (l *rootLog) note(e rootEntry) {
	l.mu.Lock()
	if n := len(l.entries); n > 0 {
		last := l.entries[n-1]
		if last.doc != e.doc || last.elem != e.elem || last.ids != e.ids {
			l.entries = append(l.entries, e)
		}
	}
	l.mu.Unlock()
}

// at returns the roots in effect for a snapshot at s; ok is false when the
// log is unseeded.
func (l *rootLog) at(s uint64) (rootEntry, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := len(l.entries) - 1; i >= 0; i-- {
		if l.entries[i].lsn <= s {
			return l.entries[i], true
		}
	}
	return rootEntry{}, false
}

// noteRoots records the current tree roots as of the operation record at
// lsn. Called by logOp under d.latch, after the record's LSN is stamped.
func (d *Document) noteRoots(lsn uint64) {
	d.roots.note(rootEntry{
		lsn:  lsn,
		doc:  d.doc.Root(),
		elem: d.elem.Root(),
		ids:  d.ids.Root(),
	})
}

// AtSnapshot returns a read-only view of the document as of WAL position s
// (a commit-consistent LSN obtained from wal.Log.SnapshotLSN, typically via
// a tx.LevelSnapshot transaction). The view requires an attached WAL and an
// installed snapshot source (node.Manager.EnableSnapshotReads); without
// them it degenerates to reading the live trees.
func (d *Document) AtSnapshot(s uint64) *Snapshot {
	e, ok := d.roots.at(s)
	if !ok {
		e = rootEntry{doc: d.doc.Root(), elem: d.elem.Root(), ids: d.ids.Root()}
	}
	return &Snapshot{
		reader: reader{
			doc:   d.doc.ViewAt(e.doc, s),
			elem:  d.elem.ViewAt(e.elem, s),
			ids:   d.ids.ViewAt(e.ids, s),
			vocab: d.vocab,
		},
		lsn: s,
	}
}
