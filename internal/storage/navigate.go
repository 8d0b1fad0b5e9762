package storage

import (
	"bytes"
	"errors"
	"fmt"
	"slices"

	"repro/internal/btree"
	"repro/internal/splid"
	"repro/internal/xmlmodel"
)

// Navigation primitives. All of them work purely on the document B*-tree:
// because the document is stored in document order under SPLID keys, every
// DOM axis reduces to one or two index seeks — the paper's argument for
// prefix-based labeling (Section 3.2). Each primitive opens one cursor, so
// its seeks after the first stay in the leaf the first one pinned whenever
// the keys are neighbours, which in document order they are: a read
// primitive is one descent.
//
// They are defined on reader, so the same implementations serve the live
// document (promoted through Document's embedded reader) and point-in-time
// Snapshot views (whose cursors resolve pages through the version layer).
// Callbacks run under the cursor's latch and pin: they must not write.

// ScanSubtree visits the node labeled id and all its descendants (including
// virtual attribute-root and string nodes) in document order. fn returns
// false to stop early.
func (r reader) ScanSubtree(id splid.ID, fn func(xmlmodel.Node) bool) error {
	var kb, lb [btree.MaxKeyLen]byte
	return r.scanRange(id.AppendEncode(kb[:0]), id.AppendSubtreeLimit(lb[:0]), fn)
}

// Subtree returns what ScanSubtree visits as a slice the caller owns. The
// cursor knows how many keys of its leaf lie below the subtree's limit, so
// the result grows once per leaf the subtree touches: a subtree that ends in
// the leaf it starts in — a book's chapter, a history — is allocated once, at
// its size.
func (r reader) Subtree(id splid.ID) ([]xmlmodel.Node, error) {
	c := r.cursor()
	defer c.Close()
	var kb, lb [btree.MaxKeyLen]byte
	c.Limit(id.AppendSubtreeLimit(lb[:0]))
	var out []xmlmodel.Node
	for ok := c.Seek(id.AppendEncode(kb[:0])); ok; ok = c.Next() {
		if len(out) == cap(out) {
			out = slices.Grow(out, c.Remaining())
		}
		n, err := nodeAt(&c)
		if err != nil {
			return nil, err
		}
		out = append(out, n)
	}
	return out, c.Err()
}

// ScanDocument visits every stored node in document order.
func (r reader) ScanDocument(fn func(xmlmodel.Node) bool) error {
	return r.scanRange(nil, nil, fn)
}

func (r reader) scanRange(start, limit []byte, fn func(xmlmodel.Node) bool) error {
	c := r.cursor()
	defer c.Close()
	c.Limit(limit)
	for ok := c.Seek(start); ok; ok = c.Next() {
		n, err := nodeAt(&c)
		if err != nil {
			return err
		}
		if !fn(n) {
			break
		}
	}
	return c.Err()
}

// ScanChildren visits the direct children of id in document order,
// excluding the reserved attribute-root and string-node children (they are
// not DOM children). fn returns false to stop.
func (r reader) ScanChildren(id splid.ID, fn func(xmlmodel.Node) bool) error {
	_, err := r.children(id, nil, func(n xmlmodel.Node, _ int) bool { return fn(n) })
	return err
}

// listRoom caps what a child list reserves up front: the keys left in the leaf
// bound it from above, but they count the children's own descendants too, and
// most lists are shorter than this.
const listRoom = 8

// Children returns what ScanChildren visits as a slice the caller owns,
// reserved at the first child from the keys left in its leaf.
func (r reader) Children(id splid.ID) (out []xmlmodel.Node, err error) {
	_, err = r.children(id, nil, func(n xmlmodel.Node, left int) bool {
		if out == nil {
			out = make([]xmlmodel.Node, 0, min(left, listRoom))
		}
		out = append(out, n)
		return true
	})
	return out, err
}

// ChildIDs returns the labels of id's regular children and whether id itself
// is stored — what a level lock that names each child needs of a child list,
// read from keys alone.
func (r reader) ChildIDs(id splid.ID) (ids []splid.ID, found bool, err error) {
	found, err = r.children(id, &ids, nil)
	return ids, found, err
}

// children is the one walk over a child list: children are exactly the
// level+1 nodes inside the subtree, so the cursor hops from each child to its
// SubtreeLimit, skipping whole child subtrees — in-leaf seeks for a list that
// fits a leaf. It hands each regular child's record to fn, with the count of
// keys left in the leaf, or, with ids set, reads no record and appends the
// labels there. found reports whether id itself is stored.
//
// A child precedes its descendants in document order, so the first key past
// the previous child's subtree is the next child itself. A deeper key first is
// a subtree whose root is gone — reads are latch-free, and another
// transaction's subtree delete can be caught half done — so, as in LastChild,
// that child no longer exists and its remains are skipped. A caller that locks
// what it read must look again after the lock (node's level reads do).
func (r reader) children(id splid.ID, ids *[]splid.ID, fn func(xmlmodel.Node, int) bool) (found bool, err error) {
	c := r.cursor()
	defer c.Close()
	var kb, lb [btree.MaxKeyLen]byte
	c.Limit(id.AppendSubtreeLimit(lb[:0]))
	key := id.AppendEncode(kb[:0])
	ok := c.Seek(key)
	if found = ok && bytes.Equal(c.Key(), key); found {
		ok = c.Next()
	}
	for level := id.Level() + 1; ok; {
		kid, err := splid.Decode(c.Key())
		if err == nil && !id.IsAncestorOf(kid) {
			// Not in the subtree whose key range the cursor is in: only a
			// corrupt page gets here, and the walk would not advance.
			err = fmt.Errorf("storage: %v read as a descendant of %v (corrupt page)", kid, id)
		}
		if err != nil {
			return found, err
		}
		switch {
		case kid.Level() != level:
			kid = kid.AncestorAtLevel(level)
		case kid.IsReservedChild():
		case ids != nil:
			if *ids == nil {
				*ids = make([]splid.ID, 0, min(c.Remaining(), listRoom))
			}
			*ids = append(*ids, kid)
		default:
			n, err := recordAt(&c, kid)
			if err != nil || !fn(n, c.Remaining()) {
				return found, err
			}
		}
		ok = c.Seek(kid.AppendSubtreeLimit(kb[:0]))
	}
	return found, c.Err()
}

// FirstChild returns the first regular (non-reserved) child of id, or a
// null-ID node when there is none.
func (r reader) FirstChild(id splid.ID) (xmlmodel.Node, error) {
	var out xmlmodel.Node
	err := r.ScanChildren(id, func(n xmlmodel.Node) bool {
		out = n
		return false
	})
	return out, err
}

// LastChild returns the last regular child of id, or a null-ID node. Reads
// are latch-free, so a concurrent subtree delete (another transaction's
// rollback, say) can be caught half done: the seek lands on a descendant
// whose top-level ancestor is already gone. That child no longer exists —
// the answer is looked for below it.
func (r reader) LastChild(id splid.ID) (xmlmodel.Node, error) {
	c := r.cursor()
	defer c.Close()
	var kb [btree.MaxKeyLen]byte
	for limit := id.AppendSubtreeLimit(kb[:0]); ; {
		if !c.SeekLT(limit) {
			return xmlmodel.Node{}, c.Err()
		}
		last, err := splid.Decode(c.Key())
		if err != nil {
			return xmlmodel.Node{}, err
		}
		if last.Equal(id) || !id.IsAncestorOf(last) {
			return xmlmodel.Node{}, nil // empty subtree
		}
		child := last.AncestorAtLevel(id.Level() + 1)
		if child.IsReservedChild() {
			return xmlmodel.Node{}, nil // only attribute/string machinery below
		}
		if child.Equal(last) {
			return recordAt(&c, child)
		}
		n, err := find(&c, child)
		if !errors.Is(err, ErrNodeNotFound) {
			return n, err
		}
		limit = child.AppendEncode(kb[:0])
	}
}

// NextSibling returns the following regular sibling of id, or a null-ID
// node when id is the last child.
func (r reader) NextSibling(id splid.ID) (xmlmodel.Node, error) {
	parent := id.Parent()
	if parent.IsNull() {
		return xmlmodel.Node{}, nil // root has no siblings
	}
	c := r.cursor()
	defer c.Close()
	var kb [btree.MaxKeyLen]byte
	if !c.Seek(id.AppendSubtreeLimit(kb[:0])) {
		return xmlmodel.Node{}, c.Err() // id closes the document
	}
	next, err := splid.Decode(c.Key())
	if err != nil || !next.ChildOf(parent) {
		return xmlmodel.Node{}, err
	}
	return recordAt(&c, next)
}

// PrevSibling returns the preceding regular sibling of id, or a null-ID
// node when id is the first child.
func (r reader) PrevSibling(id splid.ID) (xmlmodel.Node, error) {
	parent := id.Parent()
	if parent.IsNull() {
		return xmlmodel.Node{}, nil
	}
	c := r.cursor()
	defer c.Close()
	var kb [btree.MaxKeyLen]byte
	if !c.SeekLT(id.AppendEncode(kb[:0])) {
		return xmlmodel.Node{}, c.Err()
	}
	before, err := splid.Decode(c.Key())
	if err != nil {
		return xmlmodel.Node{}, err
	}
	if before.Equal(parent) || !parent.IsAncestorOf(before) {
		return xmlmodel.Node{}, nil // id is the first child
	}
	sib := before.AncestorAtLevel(id.Level())
	if sib.IsReservedChild() {
		return xmlmodel.Node{}, nil // only the attribute root precedes id
	}
	return find(&c, sib)
}

// Parent returns the parent node of id, or a null-ID node for the root.
func (r reader) Parent(id splid.ID) (xmlmodel.Node, error) {
	p := id.Parent()
	if p.IsNull() {
		return xmlmodel.Node{}, nil
	}
	return r.GetNode(p)
}

// Attributes visits the attribute nodes of element el in storage order: one
// seek to the attribute root, then its subtree forward. An element without an
// attribute root has none.
func (r reader) Attributes(el splid.ID, fn func(xmlmodel.Node) bool) error {
	return r.attributes(el, func(n xmlmodel.Node, _ int) bool { return fn(n) })
}

// AttributeNodes returns what Attributes visits as a slice the caller owns.
// An attribute is two keys, itself and its string node, so the keys left in
// the leaf at the first one size a list that ends in its leaf.
func (r reader) AttributeNodes(el splid.ID) (out []xmlmodel.Node, err error) {
	err = r.attributes(el, func(n xmlmodel.Node, left int) bool {
		if out == nil {
			out = make([]xmlmodel.Node, 0, (left+1)/2)
		}
		out = append(out, n)
		return true
	})
	return out, err
}

// attributes is the walk of Attributes, handing fn each attribute with the
// count of keys left in the leaf.
func (r reader) attributes(el splid.ID, fn func(xmlmodel.Node, int) bool) error {
	ar := el.AttributeRoot()
	c := r.cursor()
	defer c.Close()
	var kb, lb [btree.MaxKeyLen]byte
	c.Limit(ar.AppendSubtreeLimit(lb[:0]))
	for ok := c.Find(ar.AppendEncode(kb[:0])) && c.Next(); ok; ok = c.Next() {
		if xmlmodel.RecordKind(c.Value()) != xmlmodel.KindAttribute {
			continue // a string node: not worth decoding
		}
		n, err := nodeAt(&c)
		if err != nil {
			return err
		}
		if !fn(n, c.Remaining()) {
			break
		}
	}
	return c.Err()
}

// AttributeByName returns the attribute node of el with the given name, or
// a null-ID node.
func (r reader) AttributeByName(el splid.ID, name string) (xmlmodel.Node, error) {
	sur, ok := r.vocab.Lookup(name)
	if !ok {
		return xmlmodel.Node{}, nil
	}
	var out xmlmodel.Node
	err := r.Attributes(el, func(n xmlmodel.Node) bool {
		if n.Name == sur {
			out = n
			return false
		}
		return true
	})
	return out, err
}

// SubtreeSize returns the number of stored nodes (all kinds) in the subtree
// rooted at id.
func (r reader) SubtreeSize(id splid.ID) (int, error) {
	n := 0
	err := r.ScanSubtree(id, func(xmlmodel.Node) bool { n++; return true })
	return n, err
}
