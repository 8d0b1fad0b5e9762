// Package splid implements stable path labeling identifiers (SPLIDs), the
// Dewey-order node labeling scheme used by XTC and described in Section 3.2
// of "Contest of XML Lock Protocols" (VLDB 2006) and in Härder et al.,
// "Node Labeling Schemes for Dynamic XML Documents Reconsidered" (DKE 2006).
//
// A SPLID is a sequence of numeric divisions such as 1.3.4.3. Odd division
// values indicate a level transition while even values act as an overflow
// mechanism for nodes inserted between existing siblings, so labels never
// have to be reassigned. The label of every ancestor of a node is a prefix
// of the node's own label, which lets a lock manager derive the complete
// ancestor path of any node without touching the stored document — the
// property the paper calls "of paramount importance" for XML lock protocols.
//
// Division value 1 at levels greater than one is reserved: it labels the
// virtual attribute-root and string-node children of the taDOM storage model
// (Section 3.1), which never participate in sibling ordering.
package splid

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// ID is a stable path labeling identifier: the label's order-preserving
// encoding (encoding.go), which is also its B*-tree key, its lock resource
// name and its wire form. IDs are comparable values — == is label equality —
// and immutable. The zero value is the null ID, which is not a valid node
// label; use Root for the document root.
type ID struct {
	enc string
}

// Null is the zero ID. It labels no node and compares before every valid ID.
var Null = ID{}

// Root returns the label of the document root node, 1.
func Root() ID { return ID{enc: "\x01"} }

// errInvalid wraps all structural validation failures.
var errInvalid = errors.New("splid: invalid label")

// Parse converts the dotted textual form "1.3.4.3" into an ID.
func Parse(s string) (ID, error) {
	if s == "" {
		return Null, fmt.Errorf("%w: empty string", errInvalid)
	}
	enc := make([]byte, 0, len(s))
	for i, p := range strings.Split(s, ".") {
		v, err := strconv.ParseUint(p, 10, 32)
		switch {
		case err != nil:
			return Null, fmt.Errorf("%w: division %q: %v", errInvalid, p, err)
		case i == 0 && v != 1:
			return Null, fmt.Errorf("%w: first division must be 1 (the root), got %d", errInvalid, v)
		case v == 0:
			return Null, fmt.Errorf("%w: division %d is zero", errInvalid, i)
		}
		enc = appendCode(enc, v)
	}
	// A label must not end in an even (overflow) division: overflow values
	// only connect a parent prefix to the final odd division of a level.
	if enc[len(enc)-1]&1 == 0 {
		return Null, fmt.Errorf("%w: trailing overflow division in %q", errInvalid, s)
	}
	return ID{enc: string(enc)}, nil
}

// MustParse is Parse that panics on error, for tests and literals.
func MustParse(s string) ID {
	id, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return id
}

// String renders the dotted textual form. The null ID renders as "<null>".
func (id ID) String() string {
	if id.IsNull() {
		return "<null>"
	}
	b := make([]byte, 0, 4*len(id.enc))
	for i := 0; i < len(id.enc); {
		v, n := code(id.enc, i)
		if i > 0 {
			b = append(b, '.')
		}
		b = strconv.AppendUint(b, v, 10)
		i += n
	}
	return string(b)
}

// Key returns the label's encoding as a string — what Encode returns, without
// the copy — for callers that name things after a label: lock resources.
func (id ID) Key() string { return id.enc }

// IsNull reports whether id is the null ID.
func (id ID) IsNull() bool { return id.enc == "" }

// IsRoot reports whether id labels the document root.
func (id ID) IsRoot() bool { return id.enc == "\x01" }

// Level returns the tree level of the labeled node: the number of odd
// divisions in the label. The root is level 1; even overflow divisions do
// not open a level. The null ID has level 0.
func (id ID) Level() int {
	n := 0
	for i := 0; i < len(id.enc); {
		i += int(codeLen[id.enc[i]])
		n += int(id.enc[i-1] & 1)
	}
	return n
}

// Parent returns the label of the parent node, derived purely from the label
// itself: the prefix that ends at the last odd division before the final one
// (the final odd division and the even overflow divisions in front of it are
// removed). The parent of the root (and of the null ID) is Null.
func (id ID) Parent() ID {
	p := 0
	for i := 0; i < len(id.enc); {
		i += int(codeLen[id.enc[i]])
		if id.enc[i-1]&1 == 1 && i < len(id.enc) {
			p = i
		}
	}
	return ID{enc: id.enc[:p]}
}

// Ancestors returns all proper ancestors of id ordered from the root down to
// the direct parent. It returns nil for the root and the null ID. No
// document access is needed — this is the SPLID property lock protocols
// depend on for placing intention locks on the whole ancestor path. Every
// ancestor is a prefix of id's own encoding; the outer slice is the only
// allocation.
func (id ID) Ancestors() []ID {
	n := id.Level() - 1
	if n <= 0 {
		return nil
	}
	out := make([]ID, 0, n)
	for i := 0; len(out) < n; {
		i += int(codeLen[id.enc[i]])
		if id.enc[i-1]&1 == 1 { // a label ends at the odd division that opens its level
			out = append(out, ID{enc: id.enc[:i]})
		}
	}
	return out
}

// AncestorAtLevel returns the ancestor-or-self of id at the given level
// (root = level 1). It returns Null if the requested level exceeds the
// node's own level or is < 1.
func (id ID) AncestorAtLevel(level int) ID {
	for i := 0; level > 0 && i < len(id.enc); {
		i += int(codeLen[id.enc[i]])
		if id.enc[i-1]&1 == 1 {
			if level--; level == 0 {
				return ID{enc: id.enc[:i]}
			}
		}
	}
	return Null
}

// Compare orders two IDs in document order: a node precedes its descendants,
// and siblings order by their division values. It returns -1, 0, or +1.
// The null ID sorts before everything.
func Compare(a, b ID) int { return strings.Compare(a.enc, b.enc) }

// Equal reports whether a and b are the same label.
func (id ID) Equal(other ID) bool { return id == other }

// IsAncestorOf reports whether id is a proper ancestor of other: id's
// encoding is a strict prefix of other's. The code is prefix-free, so a
// prefix that is a whole label ends on one of other's division boundaries.
func (id ID) IsAncestorOf(other ID) bool {
	return id.enc != "" && len(id.enc) < len(other.enc) && other.enc[:len(id.enc)] == id.enc
}

// ChildOf reports whether id is a direct child of parent.
func (id ID) ChildOf(parent ID) bool {
	return !parent.IsNull() && id.Parent() == parent
}

// lastCode returns the offset of the final division's code.
func (id ID) lastCode() int {
	last := 0
	for i := 0; i < len(id.enc); i += int(codeLen[id.enc[i]]) {
		last = i
	}
	return last
}

// SubtreeLimit returns an exclusive upper bound for the subtree rooted at
// id: every self-or-descendant label compares strictly below the limit and
// every label outside the subtree that follows id in document order compares
// at or above it. The bound is obtained by bumping the final division by
// one; it is not itself a valid node label and must only be used for range
// scans.
func (id ID) SubtreeLimit() ID {
	var b [64]byte // the conversion below is the one allocation
	return ID{enc: string(id.AppendSubtreeLimit(b[:0]))}
}

// AppendSubtreeLimit appends the encoding of SubtreeLimit to dst: only the
// final division is re-encoded.
func (id ID) AppendSubtreeLimit(dst []byte) []byte {
	if id.IsNull() {
		return dst
	}
	last := id.lastCode()
	v, _ := code(id.enc, last)
	return appendCode(append(dst, id.enc[:last]...), v+1)
}

// AttributeRoot returns the label of the virtual attribute-root child of an
// element (Section 3.1 of the paper): the element label extended by the
// reserved division 1.
func (id ID) AttributeRoot() ID {
	var b [64]byte
	return ID{enc: string(id.AppendAttributeRoot(b[:0]))}
}

// AppendAttributeRoot appends the encoding of AttributeRoot to dst.
func (id ID) AppendAttributeRoot(dst []byte) []byte { return append(append(dst, id.enc...), 1) }

// StringNode returns the label of the virtual string-node child of a text or
// attribute node: the node label extended by the reserved division 1.
func (id ID) StringNode() ID { return id.AttributeRoot() }

// IsReservedChild reports whether the final level of id was opened with the
// reserved division value 1 at a level greater than one — i.e. the label
// belongs to an attribute root or string node rather than a regular child.
// The final code must be the one byte 0x01: 1.3.129 ends in byte 0x01 too.
func (id ID) IsReservedChild() bool {
	n := len(id.enc)
	return n >= 2 && id.enc[n-1] == 1 && id.lastCode() == n-1
}

// Child returns the label of a child of id whose level is opened by the
// given odd division value. It panics if the division is even or zero,
// because such labels would violate the labeling invariants.
func (id ID) Child(div uint32) ID {
	var b [64]byte
	return ID{enc: string(id.AppendChild(b[:0], div))}
}

// AppendChild appends the encoding of Child(div) to dst.
func (id ID) AppendChild(dst []byte, div uint32) []byte {
	if div == 0 || div%2 == 0 {
		panic(fmt.Sprintf("splid: Child division must be odd, got %d", div))
	}
	return appendCode(append(dst, id.enc...), uint64(div))
}
