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

// ID is a stable path labeling identifier. The zero value is the null ID,
// which is not a valid node label; use Root for the document root. IDs are
// immutable: all methods return new values and never alias the receiver's
// backing array into results that could be modified.
type ID struct {
	divs []uint32
}

// Null is the zero ID. It labels no node and compares before every valid ID.
var Null = ID{}

// Root returns the label of the document root node, 1.
func Root() ID { return ID{divs: []uint32{1}} }

// New builds an ID from explicit division values. It validates the same
// structural rules Parse enforces.
func New(divs ...uint32) (ID, error) {
	id := ID{divs: append([]uint32(nil), divs...)}
	if err := id.validate(); err != nil {
		return Null, err
	}
	return id, nil
}

// errInvalid wraps all structural validation failures.
var errInvalid = errors.New("splid: invalid label")

func (id ID) validate() error {
	if len(id.divs) == 0 {
		return fmt.Errorf("%w: empty division sequence", errInvalid)
	}
	if id.divs[0] != 1 {
		return fmt.Errorf("%w: first division must be 1 (the root), got %d", errInvalid, id.divs[0])
	}
	for i, d := range id.divs {
		if d == 0 {
			return fmt.Errorf("%w: division %d is zero", errInvalid, i)
		}
	}
	// A label must not end in an even (overflow) division: overflow values
	// only connect a parent prefix to the final odd division of a level.
	if last := id.divs[len(id.divs)-1]; last%2 == 0 {
		return fmt.Errorf("%w: trailing overflow division %d", errInvalid, last)
	}
	return nil
}

// Parse converts the dotted textual form "1.3.4.3" into an ID.
func Parse(s string) (ID, error) {
	if s == "" {
		return Null, fmt.Errorf("%w: empty string", errInvalid)
	}
	parts := strings.Split(s, ".")
	divs := make([]uint32, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseUint(p, 10, 32)
		if err != nil {
			return Null, fmt.Errorf("%w: division %q: %v", errInvalid, p, err)
		}
		divs[i] = uint32(v)
	}
	id := ID{divs: divs}
	if err := id.validate(); err != nil {
		return Null, err
	}
	return id, nil
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
	var b strings.Builder
	for i, d := range id.divs {
		if i > 0 {
			b.WriteByte('.')
		}
		b.WriteString(strconv.FormatUint(uint64(d), 10))
	}
	return b.String()
}

// IsNull reports whether id is the null ID.
func (id ID) IsNull() bool { return len(id.divs) == 0 }

// IsRoot reports whether id labels the document root.
func (id ID) IsRoot() bool { return len(id.divs) == 1 && id.divs[0] == 1 }

// Divisions returns a copy of the raw division values.
func (id ID) Divisions() []uint32 { return append([]uint32(nil), id.divs...) }

// Level returns the tree level of the labeled node: the number of odd
// divisions in the label. The root is level 1; even overflow divisions do
// not open a level. The null ID has level 0.
func (id ID) Level() int {
	n := 0
	for _, d := range id.divs {
		if d%2 == 1 {
			n++
		}
	}
	return n
}

// Parent returns the label of the parent node, derived purely from the label
// itself: the trailing odd division and any even overflow divisions in front
// of it are removed. The parent of the root (and of the null ID) is Null.
func (id ID) Parent() ID {
	if len(id.divs) <= 1 {
		return Null
	}
	i := len(id.divs) - 1 // divs[i] is odd by construction
	i--                   // skip the level-opening odd division
	for i >= 0 && id.divs[i]%2 == 0 {
		i--
	}
	if i < 0 {
		return Null
	}
	return ID{divs: id.divs[:i+1]}
}

// Ancestors returns all proper ancestors of id ordered from the root down to
// the direct parent. It returns nil for the root and the null ID. No
// document access is needed — this is the SPLID property lock protocols
// depend on for placing intention locks on the whole ancestor path. Every
// ancestor is a prefix of id's own divisions with its capacity clipped: IDs
// are immutable, and the clip makes an append through one copy, whatever
// code does it.
func (id ID) Ancestors() []ID {
	if len(id.divs) <= 1 {
		return nil
	}
	out := make([]ID, 0, len(id.divs)-1)
	for i, d := range id.divs[:len(id.divs)-1] {
		if d%2 == 1 { // a label ends at the odd division that opens its level
			out = append(out, ID{divs: id.divs[: i+1 : i+1]})
		}
	}
	return out
}

// AncestorAtLevel returns the ancestor-or-self of id at the given level
// (root = level 1). It returns Null if the requested level exceeds the
// node's own level or is < 1.
func (id ID) AncestorAtLevel(level int) ID {
	if level < 1 || level > id.Level() {
		return Null
	}
	seen := 0
	for i, d := range id.divs {
		if d%2 == 1 {
			seen++
			if seen == level {
				// Consume trailing overflow divisions belonging to this
				// level? No: overflow divisions precede the odd division of
				// the *next* inserted sibling chain, so the ancestor label
				// ends exactly at this odd division.
				return ID{divs: id.divs[:i+1]}
			}
		}
	}
	return Null // unreachable for valid labels
}

// Compare orders two IDs in document order: a node precedes its descendants,
// and siblings order by their division values. It returns -1, 0, or +1.
// The null ID sorts before everything.
func Compare(a, b ID) int {
	n := len(a.divs)
	if len(b.divs) < n {
		n = len(b.divs)
	}
	for i := 0; i < n; i++ {
		switch {
		case a.divs[i] < b.divs[i]:
			return -1
		case a.divs[i] > b.divs[i]:
			return 1
		}
	}
	switch {
	case len(a.divs) < len(b.divs):
		return -1
	case len(a.divs) > len(b.divs):
		return 1
	}
	return 0
}

// Equal reports whether a and b are the same label.
func (id ID) Equal(other ID) bool { return Compare(id, other) == 0 }

// IsAncestorOf reports whether id is a proper ancestor of other, i.e. id's
// division sequence is a strict prefix of other's and opens fewer levels.
func (id ID) IsAncestorOf(other ID) bool {
	if id.IsNull() || other.IsNull() || len(id.divs) >= len(other.divs) {
		return false
	}
	for i, d := range id.divs {
		if other.divs[i] != d {
			return false
		}
	}
	return true
}

// IsSelfOrAncestorOf reports whether id equals other or is its ancestor.
func (id ID) IsSelfOrAncestorOf(other ID) bool {
	return id.Equal(other) || id.IsAncestorOf(other)
}

// ChildOf reports whether id is a direct child of parent.
func (id ID) ChildOf(parent ID) bool {
	return parent.IsAncestorOf(id) && id.Level() == parent.Level()+1
}

// SubtreeLimit returns an exclusive upper bound for the subtree rooted at
// id: every self-or-descendant label compares strictly below the limit and
// every label outside the subtree that follows id in document order compares
// at or above it. The bound is obtained by bumping the final division by
// one; it is not itself a valid node label and must only be used for range
// scans.
func (id ID) SubtreeLimit() ID {
	if id.IsNull() {
		return Null
	}
	divs := append([]uint32(nil), id.divs...)
	divs[len(divs)-1]++
	return ID{divs: divs}
}

// AttributeRoot returns the label of the virtual attribute-root child of an
// element (Section 3.1 of the paper): the element label extended by the
// reserved division 1.
func (id ID) AttributeRoot() ID {
	return id.appendDiv(1)
}

// StringNode returns the label of the virtual string-node child of a text or
// attribute node: the node label extended by the reserved division 1.
func (id ID) StringNode() ID {
	return id.appendDiv(1)
}

// IsReservedChild reports whether the final level of id was opened with the
// reserved division value 1 at a level greater than one — i.e. the label
// belongs to an attribute root or string node rather than a regular child.
func (id ID) IsReservedChild() bool {
	if len(id.divs) < 2 {
		return false
	}
	return id.divs[len(id.divs)-1] == 1
}

func (id ID) appendDiv(d uint32) ID {
	divs := make([]uint32, len(id.divs)+1)
	copy(divs, id.divs)
	divs[len(id.divs)] = d
	return ID{divs: divs}
}

// Child returns the label of a child of id whose level is opened by the
// given odd division value. It panics if the division is even or zero,
// because such labels would violate the labeling invariants.
func (id ID) Child(div uint32) ID {
	if div == 0 || div%2 == 0 {
		panic(fmt.Sprintf("splid: Child division must be odd, got %d", div))
	}
	return id.appendDiv(div)
}

// CommonAncestor returns the deepest label that is a self-or-ancestor of
// both a and b, or Null if they share none (only possible with null inputs,
// since all valid labels descend from the root).
func CommonAncestor(a, b ID) ID {
	if a.IsNull() || b.IsNull() {
		return Null
	}
	n := len(a.divs)
	if len(b.divs) < n {
		n = len(b.divs)
	}
	i := 0
	for i < n && a.divs[i] == b.divs[i] {
		i++
	}
	if i == 0 {
		return Null
	}
	// Trim back to a valid label: must not end on an even overflow division.
	for i > 0 && a.divs[i-1]%2 == 0 {
		i--
	}
	if i == 0 {
		return Null
	}
	return ID{divs: a.divs[:i]}
}
