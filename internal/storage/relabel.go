package storage

import (
	"errors"
	"fmt"

	"repro/internal/splid"
	"repro/internal/xmlmodel"
)

// Subtree relabeling (Section 3.2): SPLIDs are maintenance-free in theory,
// but the B*-tree's 128-byte key limit can force a rewrite when insertions
// pile up long even-division overflow chains. XTC reacts by relabeling just
// the affected subtree — all SPLID properties are preserved and no other
// labels change. The caller must hold exclusive access to the subtree
// (in XTC, the relabeling transaction locks it exclusively and may abort a
// violating transaction first).

// ErrRelabelRoot is returned when asked to relabel the document root (its
// label is the fixed "1" and can never overflow).
var ErrRelabelRoot = errors.New("storage: cannot relabel the document root")

// RelabelSubtree rewrites the subtree rooted at old with fresh, compact
// labels: the root receives a new label between its current siblings and
// every descendant gets gap-spaced child labels. It returns the subtree's
// new root label. Both secondary indexes follow the move.
func (d *Document) RelabelSubtree(old splid.ID) (splid.ID, error) {
	// Logged as a system operation: relabeling is its own recovery unit
	// (redo-only, never undone) regardless of which transaction triggered it
	// — XTC runs it under exclusive subtree access, outside user rollback.
	var newRoot splid.ID
	err := d.ForTx(SystemTxn).logOp(func() ([]byte, error) {
		var err error
		newRoot, err = d.relabelSubtreeLocked(old)
		return nil, err
	})
	return newRoot, err
}

func (d *Document) relabelSubtreeLocked(old splid.ID) (splid.ID, error) {
	if old.IsRoot() {
		return splid.Null, ErrRelabelRoot
	}
	// Capture the subtree.
	nodes, err := d.Subtree(old)
	if err != nil {
		return splid.Null, err
	}
	if len(nodes) == 0 {
		return splid.Null, fmt.Errorf("%w: %v", ErrNodeNotFound, old)
	}

	// Choose the new root label between the current neighbors. Neighbors
	// keep their labels, so the new label may still carry an overflow chain
	// — but a single fresh Between result is always near-minimal for its
	// position.
	prev, err := d.PrevSibling(old)
	if err != nil {
		return splid.Null, err
	}
	next, err := d.NextSibling(old)
	if err != nil {
		return splid.Null, err
	}
	parent := old.Parent()
	newRoot, err := d.alloc.Between(parent, prev.ID, next.ID)
	if err != nil {
		return splid.Null, err
	}
	// The fresh label may coincide with the old one (e.g. an only child);
	// the descendants are renumbered either way — that is where overflow
	// chains accumulate.

	// Remap every node: the root translates to newRoot; descendants are
	// renumbered level by level with gap-spaced labels, erasing overflow
	// chains entirely.
	mapping := map[splid.ID]splid.ID{old: newRoot}
	childCount := map[splid.ID]int{}
	for _, n := range nodes[1:] {
		oldParent := n.ID.Parent()
		newParent, ok := mapping[oldParent]
		if !ok {
			return splid.Null, fmt.Errorf("storage: relabel lost parent of %v", n.ID)
		}
		var newID splid.ID
		if n.ID.IsReservedChild() {
			newID = newParent.AttributeRoot() // also the string-node shape
		} else {
			newID = d.alloc.NthChild(newParent, childCount[oldParent])
			childCount[oldParent]++
		}
		mapping[n.ID] = newID
	}

	// Replace the records: delete all old keys, insert all new ones. The
	// value bytes are reused as-is; only keys (and index entries) change.
	idSur, _ := d.vocab.Lookup(IDAttrName)
	for i := len(nodes) - 1; i >= 0; i-- {
		if err := d.deleteRaw(nodes[i]); err != nil {
			return splid.Null, err
		}
	}
	for _, n := range nodes {
		moved := n
		moved.ID = mapping[n.ID]
		if err := d.insertRaw(moved); err != nil {
			return splid.Null, err
		}
	}
	// Re-point the ID index entries of relocated elements.
	for _, n := range nodes {
		if n.Kind == xmlmodel.KindAttribute && n.Name == idSur && idSur != xmlmodel.NoName {
			newAttr := mapping[n.ID]
			newEl := newAttr.Parent().Parent()
			v, err := d.Value(newAttr)
			if err != nil {
				return splid.Null, err
			}
			if err := d.ids.Insert(v, newEl.Encode()); err != nil {
				return splid.Null, err
			}
		}
	}
	return newRoot, nil
}

// NeedsRelabel reports whether a child of parent at the given insert
// position would exceed the B*-tree key limit, i.e. whether the subtree
// should be relabeled before inserting.
func (d *Document) NeedsRelabel(parent, left, right splid.ID) (bool, error) {
	id, err := d.alloc.Between(parent, left, right)
	if err != nil {
		return false, err
	}
	return id.EncodedLen() > maxSplidBytes, nil
}

// maxSplidBytes leaves headroom under btree.MaxKeyLen for the element-index
// prefix and future key decoration.
const maxSplidBytes = 120
