package storage

import (
	"errors"

	"repro/internal/btree"
	"repro/internal/splid"
	"repro/internal/xmlmodel"
)

// Navigation primitives. All of them work purely on the document B*-tree:
// because the document is stored in document order under SPLID keys, every
// DOM axis reduces to one or two index seeks — the paper's argument for
// prefix-based labeling (Section 3.2).
//
// They are defined on reader, so the same implementations serve the live
// document (promoted through Document's embedded reader) and point-in-time
// Snapshot views (whose tree views resolve pages through the version layer).

// ScanSubtree visits the node labeled id and all its descendants (including
// virtual attribute-root and string nodes) in document order. fn returns
// false to stop early.
func (r reader) ScanSubtree(id splid.ID, fn func(xmlmodel.Node) bool) error {
	return r.scanRange(id.Encode(), id.SubtreeLimit().Encode(), fn)
}

// ScanDocument visits every stored node in document order.
func (r reader) ScanDocument(fn func(xmlmodel.Node) bool) error {
	return r.scanRange(nil, nil, fn)
}

func (r reader) scanRange(start, limit []byte, fn func(xmlmodel.Node) bool) error {
	var decodeErr error
	err := r.doc.Ascend(start, limit, func(k, v []byte) bool {
		id, err := splid.Decode(append([]byte(nil), k...))
		if err != nil {
			decodeErr = err
			return false
		}
		n, err := xmlmodel.DecodeRecord(id, append([]byte(nil), v...))
		if err != nil {
			decodeErr = err
			return false
		}
		return fn(n)
	})
	if err != nil {
		return err
	}
	return decodeErr
}

// ScanChildren visits the direct children of id in document order,
// excluding the reserved attribute-root and string-node children (they are
// not DOM children). fn returns false to stop.
func (r reader) ScanChildren(id splid.ID, fn func(xmlmodel.Node) bool) error {
	// Children are exactly the level+1 nodes inside the subtree; skip whole
	// child subtrees between siblings by seeking to each SubtreeLimit.
	childLevel := id.Level() + 1
	cur := id.Encode()
	limit := id.SubtreeLimit().Encode()
	for {
		var child splid.ID
		var node xmlmodel.Node
		found := false
		err := r.scanRange(cur, limit, func(n xmlmodel.Node) bool {
			if n.ID.Equal(id) {
				return true // the subtree root itself
			}
			child = n.ID.AncestorAtLevel(childLevel)
			node = n
			found = true
			return false
		})
		if err != nil {
			return err
		}
		if !found {
			return nil
		}
		if !child.Equal(node.ID) {
			// A child node precedes its descendants in document order, so
			// the first key past the previous child's subtree limit is the
			// next child itself; reaching a deeper node first would mean an
			// orphaned subtree. Re-fetch defensively.
			n, err := r.GetNode(child)
			if err != nil {
				return err
			}
			node = n
		}
		if !child.IsReservedChild() {
			if !fn(node) {
				return nil
			}
		}
		cur = child.SubtreeLimit().Encode()
	}
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
	limit := id.SubtreeLimit()
	for {
		k, v, err := r.doc.SeekLT(limit.Encode())
		if err != nil {
			return xmlmodel.Node{}, err
		}
		last, err := splid.Decode(k)
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
			return xmlmodel.DecodeRecord(child, v)
		}
		n, err := r.GetNode(child)
		if !errors.Is(err, ErrNodeNotFound) {
			return n, err
		}
		limit = child
	}
}

// NextSibling returns the following regular sibling of id, or a null-ID
// node when id is the last child.
func (r reader) NextSibling(id splid.ID) (xmlmodel.Node, error) {
	parent := id.Parent()
	if parent.IsNull() {
		return xmlmodel.Node{}, nil // root has no siblings
	}
	k, v, err := r.doc.SeekGE(id.SubtreeLimit().Encode())
	if err == btree.ErrNotFound {
		return xmlmodel.Node{}, nil // id closes the document
	}
	if err != nil {
		return xmlmodel.Node{}, err
	}
	next, err := splid.Decode(k)
	if err != nil {
		return xmlmodel.Node{}, err
	}
	if !next.ChildOf(parent) {
		return xmlmodel.Node{}, nil
	}
	n, err := xmlmodel.DecodeRecord(next, v)
	return n, err
}

// PrevSibling returns the preceding regular sibling of id, or a null-ID
// node when id is the first child.
func (r reader) PrevSibling(id splid.ID) (xmlmodel.Node, error) {
	parent := id.Parent()
	if parent.IsNull() {
		return xmlmodel.Node{}, nil
	}
	k, _, err := r.doc.SeekLT(id.Encode())
	if err != nil {
		return xmlmodel.Node{}, err
	}
	before, err := splid.Decode(k)
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
	return r.GetNode(sib)
}

// Parent returns the parent node of id, or a null-ID node for the root.
func (r reader) Parent(id splid.ID) (xmlmodel.Node, error) {
	p := id.Parent()
	if p.IsNull() {
		return xmlmodel.Node{}, nil
	}
	return r.GetNode(p)
}

// Attributes visits the attribute nodes of element el in storage order.
func (r reader) Attributes(el splid.ID, fn func(xmlmodel.Node) bool) error {
	ar := el.AttributeRoot()
	if ok, err := r.Exists(ar); err != nil || !ok {
		return err
	}
	stop := false
	return r.ScanSubtree(ar, func(n xmlmodel.Node) bool {
		if stop {
			return false
		}
		if n.Kind == xmlmodel.KindAttribute {
			if !fn(n) {
				stop = true
				return false
			}
		}
		return true
	})
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

// CountChildren returns the number of regular children of id.
func (r reader) CountChildren(id splid.ID) (int, error) {
	n := 0
	err := r.ScanChildren(id, func(xmlmodel.Node) bool { n++; return true })
	return n, err
}

// SubtreeSize returns the number of stored nodes (all kinds) in the subtree
// rooted at id.
func (r reader) SubtreeSize(id splid.ID) (int, error) {
	n := 0
	err := r.ScanSubtree(id, func(xmlmodel.Node) bool { n++; return true })
	return n, err
}
