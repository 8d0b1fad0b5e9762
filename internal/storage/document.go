// Package storage implements XTC's taDOM document store (Sections 3.1-3.2,
// Figure 6): an XML document kept in left-most depth-first (document) order
// in a single B*-tree keyed by encoded SPLIDs, plus an element index (name
// directory with node-reference indexes) and an ID-attribute index for
// direct jumps à la getElementById.
//
// This layer is purely physical: it performs no concurrency control. The
// node manager (package node) wraps every operation in the meta-lock
// requests that the paper's 11 protocols translate into actual locks.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"repro/internal/btree"
	"repro/internal/pagestore"
	"repro/internal/splid"
	"repro/internal/wal"
	"repro/internal/xmlmodel"
)

// ErrNodeNotFound is returned for SPLIDs that label no stored node.
var ErrNodeNotFound = errors.New("storage: node not found")

// ErrNodeExists is returned when inserting a node under an occupied SPLID.
var ErrNodeExists = errors.New("storage: node already exists")

// IDAttrName is the attribute name treated as an XML ID for the ID index,
// matching the bib document's id attributes used for direct jumps.
const IDAttrName = "id"

// Document is one stored XML document. The embedded reader serves every
// read-only operation over the live trees (see reader.go); the Tree fields
// here are the same trees, kept for the write paths, which need the full
// mutating API.
type Document struct {
	reader

	store *pagestore.Store
	doc   *btree.Tree // SPLID -> node record, document order
	elem  *btree.Tree // name surrogate + SPLID -> nil (element index)
	ids   *btree.Tree // id-attribute value -> element SPLID
	vocab *xmlmodel.Vocabulary
	alloc splid.Allocator

	// roots is the tree-root history for point-in-time snapshots (seeded by
	// AttachWAL, appended by logOp via noteRoots; see reader.go).
	roots rootLog

	mu   sync.RWMutex // guards meta-level state (vocabulary is self-locking)
	size int          // stored node count

	// latch serializes compound structural mutations. Transactional locks
	// above this layer handle isolation; the latch only guarantees physical
	// consistency (a check-then-insert must not interleave with another),
	// which must hold even under isolation level none, where transactions
	// acquire no locks at all.
	latch sync.Mutex

	// Write-ahead logging state, all guarded by latch. wal is nil until
	// AttachWAL; from then on every structural mutation runs inside a page
	// capture and appends one RecOp (see logOp in txdoc.go). Full-image
	// upgrades (the torn-page healing anchor) are tracked per frame by the
	// buffer pool's imaged bit, which resets on every clean transition so a
	// checkpoint-bounded redo scan always finds an image at the page's
	// recLSN. walMeta is the signature of the last logged metadata page
	// content.
	wal     *wal.Log
	walMeta metaSig
}

// Options configure document creation.
type Options struct {
	// Dist is the SPLID labeling gap (splid.DefaultDist when zero).
	Dist uint32
	// Config configures the document's buffer pool: its size, the
	// background flusher, the fuzzy checkpoints the flusher takes once a WAL
	// is attached (they bound both restart time and WAL disk usage), and the
	// registry receiving the buffer.* instruments — run harnesses pass one
	// registry through every layer so the run report is a single document.
	pagestore.Config
}

// Create builds an empty document (just the root element, named rootName)
// on the given backend.
func Create(backend pagestore.Backend, rootName string, opts Options) (*Document, error) {
	store := pagestore.OpenConfig(backend, opts.Config)
	// Reserve page 0 for the metadata page before any tree allocates it.
	if store.Backend().NumPages() == 0 {
		meta, err := store.FixNew()
		if err != nil {
			return nil, err
		}
		store.Unfix(meta)
	}
	doc, err := btree.Create(store)
	if err != nil {
		return nil, err
	}
	elem, err := btree.Create(store)
	if err != nil {
		return nil, err
	}
	ids, err := btree.Create(store)
	if err != nil {
		return nil, err
	}
	d := &Document{
		store: store,
		doc:   doc,
		elem:  elem,
		ids:   ids,
		vocab: xmlmodel.NewVocabulary(),
		alloc: splid.Allocator{Dist: opts.Dist},
	}
	d.reader = liveReader(doc, elem, ids, d.vocab)
	sur, err := d.vocab.Intern(rootName)
	if err != nil {
		return nil, err
	}
	root := xmlmodel.Node{ID: splid.Root(), Kind: xmlmodel.KindElement, Name: sur}
	if err := d.insertRaw(root); err != nil {
		return nil, err
	}
	return d, nil
}

// Close writes the metadata page, flushes, and closes the underlying store.
func (d *Document) Close() error {
	if err := d.writeMeta(); err != nil {
		d.store.Close()
		return err
	}
	return d.store.Close()
}

// Vocabulary exposes the document's name vocabulary.
func (d *Document) Vocabulary() *xmlmodel.Vocabulary { return d.vocab }

// Allocator exposes the document's SPLID allocator.
func (d *Document) Allocator() splid.Allocator { return d.alloc }

// Store exposes the buffer manager (statistics, tooling).
func (d *Document) Store() *pagestore.Store { return d.store }

// Root returns the root element's SPLID.
func (d *Document) Root() splid.ID { return splid.Root() }

// Size returns the number of stored nodes (all kinds).
func (d *Document) Size() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.size
}

// insertRaw stores a node and maintains the secondary indexes. The parent
// must already exist: under isolation level none no locks prevent a racing
// subtree delete, and an orphan insert must fail rather than corrupt the
// tree.
func (d *Document) insertRaw(n xmlmodel.Node) error {
	var kb [btree.MaxKeyLen]byte
	key := n.ID.AppendEncode(kb[:0])
	parent := n.ID.Parent()
	// Both probes from one cursor — the parent is usually in the child's
	// leaf — closed before Insert asks for the tree's write latch. The
	// parent's key is a prefix of the child's.
	c := d.doc.Cursor()
	exists := c.Find(key)
	orphan := !exists && !parent.IsNull() && !c.Find(key[:parent.EncodedLen()])
	err := c.Err()
	c.Close()
	switch {
	case err != nil:
		return err
	case exists:
		return fmt.Errorf("%w: %v", ErrNodeExists, n.ID)
	case orphan:
		return fmt.Errorf("%w: parent %v of %v", ErrNodeNotFound, parent, n.ID)
	}
	if err := d.doc.Insert(key, xmlmodel.EncodeRecord(n)); err != nil {
		return err
	}
	if n.Kind == xmlmodel.KindElement {
		if err := d.elem.Insert(elemKey(n.Name, n.ID), nil); err != nil {
			return err
		}
	}
	d.mu.Lock()
	d.size++
	d.mu.Unlock()
	return nil
}

// deleteRaw removes a node and its index entries. The caller is responsible
// for subtree consistency.
func (d *Document) deleteRaw(n xmlmodel.Node) error {
	var kb [btree.MaxKeyLen]byte
	if err := d.doc.Delete(n.ID.AppendEncode(kb[:0])); err != nil {
		return err
	}
	if n.Kind == xmlmodel.KindElement {
		if err := d.elem.Delete(elemKey(n.Name, n.ID)); err != nil && err != btree.ErrNotFound {
			return err
		}
	}
	d.mu.Lock()
	d.size--
	d.mu.Unlock()
	return nil
}

// elemKey builds the element-index composite key: surrogate, then SPLID.
func elemKey(sur xmlmodel.Sur, id splid.ID) []byte {
	return appendElemKey(make([]byte, 0, 2+id.EncodedLen()), sur, id)
}

// appendElemKey appends the element-index key of (sur, id) to buf.
func appendElemKey(buf []byte, sur xmlmodel.Sur, id splid.ID) []byte {
	return id.AppendEncode(binary.BigEndian.AppendUint16(buf, uint16(sur)))
}

// InsertElement adds an element node labeled id, attributed to the system
// transaction. Transactional callers use ForTx.
func (d *Document) InsertElement(id splid.ID, name string) (xmlmodel.Node, error) {
	return d.ForTx(SystemTxn).InsertElement(id, name)
}

// The *Locked mutators below run under d.latch, inside TxDoc.logOp. Each
// returns its result (if it has one), the logical inverse of what it did —
// the undo payload that both a runtime abort and recovery replay through
// TxDoc.ApplyUndo — and its error. This is the one place an update
// operation's inverse is stated. A mutator that creates nodes stores them
// with put: insertRaw for a transaction, Builder.put for a load.

func (d *Document) insertElementLocked(put func(xmlmodel.Node) error, id splid.ID, name string) (xmlmodel.Node, []byte, error) {
	sur, err := d.vocab.Intern(name)
	if err != nil {
		return xmlmodel.Node{}, nil, err
	}
	n := xmlmodel.Node{ID: id, Kind: xmlmodel.KindElement, Name: sur}
	return n, encodeUndoDelete(id), put(n)
}

// InsertText adds a text node labeled id with the given character data (a
// string node child is created automatically, taDOM-style).
func (d *Document) InsertText(id splid.ID, value []byte) (xmlmodel.Node, error) {
	return d.ForTx(SystemTxn).InsertText(id, value)
}

func (d *Document) insertTextLocked(put func(xmlmodel.Node) error, id splid.ID, value []byte) (xmlmodel.Node, []byte, error) {
	n := xmlmodel.Node{ID: id, Kind: xmlmodel.KindText}
	if err := put(n); err != nil {
		return xmlmodel.Node{}, nil, err
	}
	s := xmlmodel.Node{ID: id.StringNode(), Kind: xmlmodel.KindString, Value: value}
	return n, encodeUndoDelete(id), put(s)
}

// SetAttribute adds (or overwrites) an attribute on element el, creating the
// virtual attribute root on first use. It returns the attribute node.
func (d *Document) SetAttribute(el splid.ID, name string, value []byte) (xmlmodel.Node, error) {
	return d.ForTx(SystemTxn).SetAttribute(el, name, value)
}

// setAttributeLocked's inverse deletes the attribute when it was created and
// restores the previous value when it was overwritten. It reads what the
// element has of attributes, then writes through addAttributeLocked.
func (d *Document) setAttributeLocked(el splid.ID, name string, value []byte) (xmlmodel.Node, []byte, error) {
	sur, err := d.vocab.Intern(name)
	if err != nil {
		return xmlmodel.Node{}, nil, err
	}
	ar := el.AttributeRoot()
	root, err := d.Exists(ar)
	if err != nil {
		return xmlmodel.Node{}, nil, err
	}
	var existing, last splid.ID
	err = d.ScanChildren(ar, func(n xmlmodel.Node) bool {
		last = n.ID
		if n.Kind == xmlmodel.KindAttribute && n.Name == sur {
			existing = n.ID
			return false
		}
		return true
	})
	if err != nil {
		return xmlmodel.Node{}, nil, err
	}
	return d.addAttributeLocked(d.insertRaw, el, root, existing, last, sur, name, value)
}

// addAttributeLocked sets attribute name (surrogate sur) on el, given what el
// has: root tells whether its attribute root exists, existing is its
// attribute of that name and last its last attribute (null: none). It
// overwrites existing, or stores a new attribute after last, creating the
// attribute root first when there is none. It is the one write step of
// SetAttribute and Builder.Attribute, which knows the element's attributes
// without reading them.
func (d *Document) addAttributeLocked(put func(xmlmodel.Node) error, el splid.ID, root bool, existing, last splid.ID, sur xmlmodel.Sur, name string, value []byte) (xmlmodel.Node, []byte, error) {
	if !existing.IsNull() {
		undo, err := d.setValueLocked(existing, value)
		return xmlmodel.Node{ID: existing, Kind: xmlmodel.KindAttribute, Name: sur}, undo, err
	}
	ar := el.AttributeRoot()
	attrID := d.alloc.FirstChild(ar)
	if !last.IsNull() {
		attrID = d.alloc.NextSibling(last)
	} else if !root {
		if err := put(xmlmodel.Node{ID: ar, Kind: xmlmodel.KindAttributeRoot}); err != nil {
			return xmlmodel.Node{}, nil, err
		}
	}
	n := xmlmodel.Node{ID: attrID, Kind: xmlmodel.KindAttribute, Name: sur}
	if err := put(n); err != nil {
		return xmlmodel.Node{}, nil, err
	}
	s := xmlmodel.Node{ID: attrID.StringNode(), Kind: xmlmodel.KindString, Value: value}
	if err := put(s); err != nil {
		return xmlmodel.Node{}, nil, err
	}
	if name == IDAttrName {
		if err := d.ids.Insert(append([]byte(nil), value...), el.Encode()); err != nil {
			return xmlmodel.Node{}, nil, err
		}
	}
	return n, encodeUndoDelete(attrID), nil
}

// SetValue overwrites the character data of a text or attribute node.
func (d *Document) SetValue(id splid.ID, value []byte) error {
	return d.ForTx(SystemTxn).SetValue(id, value)
}

// setValueLocked's inverse restores the previous value.
func (d *Document) setValueLocked(id splid.ID, value []byte) ([]byte, error) {
	n, err := d.GetNode(id)
	if err != nil {
		return nil, err
	}
	if n.Kind != xmlmodel.KindText && n.Kind != xmlmodel.KindAttribute {
		return nil, fmt.Errorf("storage: cannot set value of %v node %v", n.Kind, id)
	}
	old, err := d.Value(id)
	if err != nil {
		return nil, err
	}
	if n.Kind == xmlmodel.KindAttribute && d.vocab.Name(n.Name) == IDAttrName {
		// id attributes feed the direct-jump index: keep it in sync.
		el := id.Parent().Parent() // attribute -> attribute root -> element
		if err := d.ids.Delete(old); err != nil && err != btree.ErrNotFound {
			return nil, err
		}
		if err := d.ids.Insert(append([]byte(nil), value...), el.Encode()); err != nil {
			return nil, err
		}
	}
	s := xmlmodel.Node{ID: id.StringNode(), Kind: xmlmodel.KindString, Value: value}
	return encodeUndoSetValue(id, old), d.doc.Insert(s.ID.Encode(), xmlmodel.EncodeRecord(s))
}

// Rename changes the name of an element or attribute node (the DOM level 3
// renameNode operation exercised by TArenameTopic).
func (d *Document) Rename(id splid.ID, newName string) error {
	return d.ForTx(SystemTxn).Rename(id, newName)
}

// renameLocked's inverse restores the previous name.
func (d *Document) renameLocked(id splid.ID, newName string) ([]byte, error) {
	n, err := d.GetNode(id)
	if err != nil {
		return nil, err
	}
	if !n.HasName() {
		return nil, fmt.Errorf("storage: cannot rename %v node %v", n.Kind, id)
	}
	undo := encodeUndoRename(id, d.vocab.Name(n.Name))
	sur, err := d.vocab.Intern(newName)
	if err != nil {
		return nil, err
	}
	if n.Kind == xmlmodel.KindElement && sur != n.Name {
		if err := d.elem.Delete(elemKey(n.Name, n.ID)); err != nil && err != btree.ErrNotFound {
			return nil, err
		}
		if err := d.elem.Insert(elemKey(sur, n.ID), nil); err != nil {
			return nil, err
		}
	}
	n.Name = sur
	return undo, d.doc.Insert(id.Encode(), xmlmodel.EncodeRecord(n))
}

// DeleteSubtree removes the node labeled id together with every descendant
// (including virtual attribute and string nodes) and returns the number of
// nodes removed. Secondary index entries are maintained.
func (d *Document) DeleteSubtree(id splid.ID) (int, error) {
	return d.ForTx(SystemTxn).DeleteSubtree(id)
}

// deleteSubtreeLocked returns the number of nodes removed; its inverse
// reinserts them, in document order.
func (d *Document) deleteSubtreeLocked(id splid.ID) (int, []byte, error) {
	if id.IsRoot() {
		return 0, nil, errors.New("storage: cannot delete the document root")
	}
	victims, err := d.Subtree(id)
	if err != nil {
		return 0, nil, err
	}
	if len(victims) == 0 {
		return 0, nil, fmt.Errorf("%w: %v", ErrNodeNotFound, id)
	}
	for _, n := range victims {
		if n.Kind == xmlmodel.KindAttribute && d.vocab.Name(n.Name) == IDAttrName {
			if v, err := d.Value(n.ID); err == nil {
				if err := d.ids.Delete(v); err != nil && err != btree.ErrNotFound {
					return 0, nil, err
				}
			}
		}
	}
	for _, n := range victims {
		if err := d.deleteRaw(n); err != nil {
			return 0, nil, err
		}
	}
	return len(victims), encodeUndoRestore(victims), nil
}

// RestoreSubtree reinserts previously deleted node records (in document
// order) and rebuilds the secondary index entries — the physical undo of
// DeleteSubtree, run by aborting transactions that still hold their locks.
func (d *Document) RestoreSubtree(nodes []xmlmodel.Node) error {
	return d.ForTx(SystemTxn).RestoreSubtree(nodes)
}

// restoreSubtreeLocked's inverse deletes the subtree again.
func (d *Document) restoreSubtreeLocked(nodes []xmlmodel.Node) ([]byte, error) {
	if len(nodes) == 0 {
		return nil, nil
	}
	for _, n := range nodes {
		if err := d.insertRaw(n); err != nil {
			return nil, err
		}
	}
	undo := encodeUndoDelete(nodes[0].ID)
	idSur, ok := d.vocab.Lookup(IDAttrName)
	if !ok {
		return undo, nil
	}
	for _, n := range nodes {
		if n.Kind == xmlmodel.KindAttribute && n.Name == idSur {
			el := n.ID.Parent().Parent()
			v, err := d.Value(n.ID)
			if err != nil {
				return nil, err
			}
			if err := d.ids.Insert(v, el.Encode()); err != nil {
				return nil, err
			}
		}
	}
	return undo, nil
}

// DocStats summarizes a document's physical shape — the storage-density
// numbers Section 3.2 discusses (SPLID bytes, tree depth, node mix).
type DocStats struct {
	// Nodes counts stored nodes by kind.
	Elements, Texts, Attributes, AttrRoots, Strings int
	// MaxDepth is the deepest level (root = 1), counting virtual nodes.
	MaxDepth int
	// SplidBytes is the total encoded size of all node labels; AvgSplid the
	// mean per node.
	SplidBytes int
	// ValueBytes is the total character data volume.
	ValueBytes int
	// DocTree/ElemTree/IDTree are the B*-tree shapes.
	DocTree, ElemTree, IDTree btree.TreeStats
}

// AvgSplid returns the mean encoded SPLID size in bytes.
func (s DocStats) AvgSplid() float64 {
	n := s.Elements + s.Texts + s.Attributes + s.AttrRoots + s.Strings
	if n == 0 {
		return 0
	}
	return float64(s.SplidBytes) / float64(n)
}

// Stats walks the document and returns its physical statistics.
func (d *Document) Stats() (DocStats, error) {
	var st DocStats
	err := d.ScanDocument(func(n xmlmodel.Node) bool {
		switch n.Kind {
		case xmlmodel.KindElement:
			st.Elements++
		case xmlmodel.KindText:
			st.Texts++
		case xmlmodel.KindAttribute:
			st.Attributes++
		case xmlmodel.KindAttributeRoot:
			st.AttrRoots++
		case xmlmodel.KindString:
			st.Strings++
			st.ValueBytes += len(n.Value)
		}
		st.SplidBytes += n.ID.EncodedLen()
		if l := n.ID.Level(); l > st.MaxDepth {
			st.MaxDepth = l
		}
		return true
	})
	if err != nil {
		return st, err
	}
	if st.DocTree, err = d.doc.Stats(); err != nil {
		return st, err
	}
	if st.ElemTree, err = d.elem.Stats(); err != nil {
		return st, err
	}
	st.IDTree, err = d.ids.Stats()
	return st, err
}
