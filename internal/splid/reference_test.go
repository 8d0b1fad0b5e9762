package splid

import (
	"fmt"
	"strconv"
	"strings"
)

// The reference: the division-slice implementation ID had until PR 21, kept
// as the oracle the encoded one is checked against (oracle_test.go). A ref is
// an ID's divisions; its methods, its codec and refAllocator are the old
// code with the receiver renamed, nothing else.

type ref []uint32

// fromDivs builds an ID from explicit divisions through the reference
// encoder (the helper tests use to build labels).
func fromDivs(divs ...uint32) ID { return ID{enc: string(ref(divs).encode())} }

// toRef decodes a valid ID into its divisions with the reference decoder.
func toRef(id ID) ref {
	r, err := refDecode(id.Encode())
	if err != nil {
		panic(err)
	}
	return r
}

func (r ref) validate() error {
	if len(r) == 0 {
		return fmt.Errorf("%w: empty division sequence", errInvalid)
	}
	if r[0] != 1 {
		return fmt.Errorf("%w: first division must be 1 (the root), got %d", errInvalid, r[0])
	}
	for i, d := range r {
		if d == 0 {
			return fmt.Errorf("%w: division %d is zero", errInvalid, i)
		}
	}
	if last := r[len(r)-1]; last%2 == 0 {
		return fmt.Errorf("%w: trailing overflow division %d", errInvalid, last)
	}
	return nil
}

func (r ref) String() string {
	if len(r) == 0 {
		return "<null>"
	}
	var b strings.Builder
	for i, d := range r {
		if i > 0 {
			b.WriteByte('.')
		}
		b.WriteString(strconv.FormatUint(uint64(d), 10))
	}
	return b.String()
}

func (r ref) level() int {
	n := 0
	for _, d := range r {
		if d%2 == 1 {
			n++
		}
	}
	return n
}

func (r ref) parent() ref {
	if len(r) <= 1 {
		return nil
	}
	i := len(r) - 2
	for i >= 0 && r[i]%2 == 0 {
		i--
	}
	if i < 0 {
		return nil
	}
	return r[:i+1]
}

func (r ref) ancestors() []ref {
	if len(r) <= 1 {
		return nil
	}
	out := make([]ref, 0, len(r)-1)
	for i, d := range r[:len(r)-1] {
		if d%2 == 1 {
			out = append(out, r[:i+1:i+1])
		}
	}
	return out
}

func (r ref) ancestorAtLevel(level int) ref {
	if level < 1 || level > r.level() {
		return nil
	}
	seen := 0
	for i, d := range r {
		if d%2 == 1 {
			if seen++; seen == level {
				return r[:i+1]
			}
		}
	}
	return nil
}

func refCompare(a, b ref) int {
	for i := 0; i < min(len(a), len(b)); i++ {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

func (r ref) isAncestorOf(o ref) bool {
	if len(r) == 0 || len(o) == 0 || len(r) >= len(o) {
		return false
	}
	for i, d := range r {
		if o[i] != d {
			return false
		}
	}
	return true
}

func (r ref) childOf(p ref) bool { return p.isAncestorOf(r) && r.level() == p.level()+1 }

// subtreeLimit is the old bump of the final division — in uint64, because the
// old uint32 bump wrapped a final MaxUint32 to 0 (a limit below its own
// subtree); the encoded SubtreeLimit carries the 2^32.
func (r ref) subtreeLimit() []byte {
	if len(r) == 0 {
		return []byte{}
	}
	return appendCode(r[:len(r)-1].encode(), uint64(r[len(r)-1])+1)
}

func (r ref) isReservedChild() bool { return len(r) >= 2 && r[len(r)-1] == 1 }

func (r ref) appendDiv(d uint32) ref { return append(append(ref(nil), r...), d) }

// --- the reference codec ---------------------------------------------------

func refAppendDivision(dst []byte, v uint32) []byte {
	x := uint64(v)
	switch {
	case x < classBase[1]:
		return append(dst, byte(x))
	case x < classBase[2]:
		d := x - classBase[1]
		return append(dst, 0x80|byte(d>>8), byte(d))
	case x < classBase[3]:
		d := x - classBase[2]
		return append(dst, 0xC0|byte(d>>16), byte(d>>8), byte(d))
	case x < classBase[4]:
		d := x - classBase[3]
		return append(dst, 0xE0|byte(d>>24), byte(d>>16), byte(d>>8), byte(d))
	default:
		d := x - classBase[4]
		return append(dst, 0xF0, byte(d>>24), byte(d>>16), byte(d>>8), byte(d))
	}
}

func refDecodeDivision(b []byte) (uint32, int, error) {
	if len(b) == 0 {
		return 0, 0, fmt.Errorf("%w: empty input", ErrBadEncoding)
	}
	h := b[0]
	var class, n int
	switch {
	case h&0x80 == 0:
		class, n = 0, 1
	case h&0xC0 == 0x80:
		class, n = 1, 2
	case h&0xE0 == 0xC0:
		class, n = 2, 3
	case h&0xF0 == 0xE0:
		class, n = 3, 4
	case h == 0xF0:
		class, n = 4, 5
	default:
		return 0, 0, fmt.Errorf("%w: header byte %#x", ErrBadEncoding, h)
	}
	if len(b) < n {
		return 0, 0, fmt.Errorf("%w: truncated division (need %d bytes, have %d)", ErrBadEncoding, n, len(b))
	}
	var d uint64
	switch class {
	case 0:
		d = uint64(h)
	case 1:
		d = uint64(h&0x3F)<<8 | uint64(b[1])
	case 2:
		d = uint64(h&0x1F)<<16 | uint64(b[1])<<8 | uint64(b[2])
	case 3:
		d = uint64(h&0x0F)<<24 | uint64(b[1])<<16 | uint64(b[2])<<8 | uint64(b[3])
	case 4:
		d = uint64(b[1])<<24 | uint64(b[2])<<16 | uint64(b[3])<<8 | uint64(b[4])
	}
	v := d + classBase[class]
	if v > uint64(^uint32(0)) {
		return 0, 0, fmt.Errorf("%w: division overflows uint32", ErrBadEncoding)
	}
	return uint32(v), n, nil
}

func (r ref) encode() []byte {
	dst := make([]byte, 0, 2*len(r))
	for _, d := range r {
		dst = refAppendDivision(dst, d)
	}
	return dst
}

func refDecode(b []byte) (ref, error) {
	if len(b) == 0 {
		return nil, nil
	}
	divs := make(ref, 0, len(b))
	for len(b) > 0 {
		v, n, err := refDecodeDivision(b)
		if err != nil {
			return nil, err
		}
		divs = append(divs, v)
		b = b[n:]
	}
	if err := divs.validate(); err != nil {
		return nil, err
	}
	return divs, nil
}

// --- the reference allocator -----------------------------------------------

type refAllocator struct{ Allocator }

func (a refAllocator) firstChild(p ref) ref { return p.appendDiv(a.dist() + 1) }

func (a refAllocator) nextSibling(prev ref) ref {
	parent := prev.parent()
	next := prev[len(parent)] + a.dist()
	if next%2 == 0 {
		next++
	}
	return parent.appendDiv(next)
}

func (a refAllocator) between(parent, left, right ref) (ref, error) {
	switch {
	case len(left) == 0 && len(right) == 0:
		return a.firstChild(parent), nil
	case len(left) == 0:
		if !right.childOf(parent) {
			return nil, fmt.Errorf("not a child")
		}
	case len(right) == 0:
		if !left.childOf(parent) {
			return nil, fmt.Errorf("not a child")
		}
		return a.nextSibling(left), nil
	default:
		if refCompare(left, right) >= 0 {
			return nil, fmt.Errorf("out of order")
		}
		if !left.childOf(parent) || !right.childOf(parent) {
			return nil, fmt.Errorf("not both children")
		}
	}
	base := len(parent)
	l := []uint32{1}
	if len(left) > 0 {
		l = left[base:]
	}
	mid := betweenSuffixes(l, right[base:], a.dist())
	out := make(ref, base+len(mid))
	copy(out, parent)
	copy(out[base:], mid)
	return out, nil
}
