package splid

import "fmt"

// DefaultDist is the default labeling gap: new sibling labels are spaced
// dist apart in division-value space so later insertions rarely need the
// even-division overflow mechanism. The paper recommends dist = 2 only for
// almost-static documents; larger values trade SPLID bytes for fewer
// overflow chains.
const DefaultDist = 16

// MinDist is the smallest admissible gap (adjacent odd values).
const MinDist = 2

// Allocator assigns labels for structural document updates. It is a pure
// computation over existing labels — it holds no state — so one Allocator
// value can be shared freely across goroutines.
type Allocator struct {
	// Dist is the labeling gap; values < MinDist fall back to DefaultDist
	// and odd gaps are rounded up to the next even value so odd+dist stays
	// odd.
	Dist uint32
}

func (a Allocator) dist() uint32 {
	d := a.Dist
	if d < MinDist {
		d = DefaultDist
	}
	if d%2 == 1 {
		d++
	}
	return d
}

// FirstChild returns the label of the first regular child of parent in a
// freshly built level: parent extended by division dist+1. (Division 1 is
// reserved for attribute roots and string nodes, so regular children start
// above it.)
func (a Allocator) FirstChild(parent ID) ID {
	if parent.IsNull() {
		panic("splid: FirstChild of null ID")
	}
	return parent.Child(a.dist() + 1)
}

// NextSibling returns a label following prev among the children of prev's
// parent, assuming no existing sibling lies beyond prev (i.e. an append).
// Any overflow chain of prev is cut off at its first division, keeping
// appended labels short.
func (a Allocator) NextSibling(prev ID) ID {
	if prev.IsNull() {
		panic("splid: NextSibling of null ID")
	}
	parent := prev.Parent()
	if parent.IsNull() {
		panic("splid: NextSibling of the document root")
	}
	fork, _ := code(prev.enc, len(parent.enc))
	next := uint32(fork) + a.dist()
	if next%2 == 0 {
		next++
	}
	return parent.Child(next)
}

// Between returns a fresh label that sorts strictly between left and right,
// labels a node at the same level as the children of parent, and leaves both
// inputs untouched — the overflow mechanism of Section 3.2. The supported
// shapes are:
//
//   - left and right both non-null children of parent (insert between),
//   - left null (insert before the first existing child right),
//   - right null (insert after the last existing child: NextSibling(left)),
//   - both null (first child of a childless parent).
//
// Between never fails for valid sibling inputs: when no odd division value
// is free between the two labels it descends into even overflow divisions,
// which lengthens the label but preserves document order and level
// arithmetic.
func (a Allocator) Between(parent, left, right ID) (ID, error) {
	switch {
	case left.IsNull() && right.IsNull():
		return a.FirstChild(parent), nil
	case left.IsNull():
		if !right.ChildOf(parent) {
			return Null, fmt.Errorf("splid: Between: %v is not a child of %v", right, parent)
		}
	case right.IsNull():
		if !left.ChildOf(parent) {
			return Null, fmt.Errorf("splid: Between: %v is not a child of %v", left, parent)
		}
		return a.NextSibling(left), nil
	default:
		if Compare(left, right) >= 0 {
			return Null, fmt.Errorf("splid: Between: left %v does not precede right %v", left, right)
		}
		if !left.ChildOf(parent) || !right.ChildOf(parent) {
			return Null, fmt.Errorf("splid: Between: %v and %v are not both children of %v", left, right, parent)
		}
	}

	// The suffixes below parent are decoded for the arithmetic. The reserved
	// division 1 (attribute root / string node) acts as the virtual lower
	// fence when inserting before the first regular child.
	l := []uint32{1}
	if !left.IsNull() {
		l = left.divisionsFrom(len(parent.enc))
	}
	r := right.divisionsFrom(len(parent.enc))
	enc := []byte(parent.enc)
	for _, d := range betweenSuffixes(l, r, a.dist()) {
		enc = appendCode(enc, uint64(d))
	}
	return ID{enc: string(enc)}, nil
}

// divisionsFrom decodes the divisions whose codes start at or after byte i.
func (id ID) divisionsFrom(i int) (dst []uint32) {
	for i < len(id.enc) {
		v, n := code(id.enc, i)
		dst = append(dst, uint32(v))
		i += n
	}
	return dst
}

const maxDiv = ^uint32(0)

// betweenSuffixes computes a division suffix strictly between l and r in
// lexicographic (prefix-first) order, ending in a single odd division — i.e.
// opening exactly one level — and never ending in the reserved value 1.
//
// Preconditions: l < r lexicographically; r consists of zero or more even
// overflow divisions followed by one odd division; l has the same shape (or
// is the one-element reserved fence {1}).
func betweenSuffixes(l, r []uint32, dist uint32) []uint32 {
	var out []uint32
	li, ri := 0, 0
	lPinned, rPinned := true, true // whether each fence still constrains us
	for depth := 0; ; depth++ {
		lv := uint32(0) // exclusive lower fence at this depth
		rv := maxDiv    // exclusive upper fence at this depth
		if lPinned && li < len(l) {
			lv = l[li]
		}
		if rPinned && ri < len(r) {
			rv = r[ri]
		}

		if lPinned && rPinned && lv == rv {
			// Shared prefix division: emit it and stay pinned to both.
			out = append(out, lv)
			li++
			ri++
			continue
		}

		// Try to finish with an odd division strictly between the fences,
		// skipping the reserved value 1.
		if v, ok := pickOdd(lv, rv, dist); ok {
			return append(out, v)
		}
		// Try an even overflow division strictly between the fences; below
		// it the label space is unconstrained, so one fresh odd division
		// completes the label.
		if v, ok := pickEven(lv, rv); ok {
			return append(out, v, dist+1)
		}

		// Fences are adjacent (rv == lv+1): no room at this depth. Descend
		// along whichever fence continues. Following l means emitting lv
		// (then everything below must exceed l's remainder; r no longer
		// constrains because lv < rv). Following r is symmetric.
		if lPinned && li+1 < len(l) {
			out = append(out, lv)
			li++
			rPinned = false
			continue
		}
		if rPinned && ri+1 < len(r) {
			out = append(out, rv)
			ri++
			lPinned = false
			continue
		}
		// Both fences end on adjacent values: one of them would have to end
		// in an even division, which valid labels never do.
		panic(fmt.Sprintf("splid: betweenSuffixes: no room between %v and %v", l, r))
	}
}

// pickOdd selects an odd division v with lv < v < rv and v != 1, preferring
// lv+dist for gap-friendly spacing, falling back to the midpoint. ok is
// false when no such value exists.
func pickOdd(lv, rv, dist uint32) (v uint32, ok bool) {
	if rv <= lv+1 {
		return 0, false
	}
	v = lv + dist
	if v < lv || v >= rv { // overflow or beyond fence: use midpoint
		v = lv + (rv-lv)/2
	}
	if v%2 == 0 {
		switch {
		case v+1 < rv:
			v++
		case v-1 > lv:
			v--
		default:
			return 0, false
		}
	}
	if v == 1 {
		if 3 < rv {
			v = 3
		} else {
			return 0, false
		}
	}
	if v <= lv || v >= rv {
		return 0, false
	}
	return v, true
}

// pickEven selects an even division v with lv < v < rv, or ok=false.
func pickEven(lv, rv uint32) (v uint32, ok bool) {
	if rv <= lv+1 {
		return 0, false
	}
	v = lv + 1
	if v%2 == 1 {
		v++
	}
	if v <= lv || v >= rv {
		return 0, false
	}
	return v, true
}

// NthChild returns the label of the n-th (0-based) regular child of parent
// in a freshly built level using the allocator gap: division n*dist+dist+1.
// It is the bulk-load fast path used when a document is stored initially in
// document order.
func (a Allocator) NthChild(parent ID, n int) ID {
	if n < 0 {
		panic("splid: NthChild with negative index")
	}
	d := a.dist()
	return parent.Child(uint32(n)*d + d + 1)
}
