package splid

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// boundaries are the division values either side of every code-class edge,
// MaxUint32, the reserved 1, and values whose code ends in byte 0x01 without
// being division 1 (129 = 0x80 0x01, 16513 = 0xC0 0x00 0x01).
var boundaries = []uint32{
	1, 2, 3, 127, 128, 129, 130, 385,
	16511, 16512, 16513, 2113663, 2113664, 2113665,
	270549119, 270549120, 270549121, math.MaxUint32 - 1, math.MaxUint32,
}

// fixedLabels are written out so every run checks them, however the
// generator draws.
var fixedLabels = []string{
	"1", "1.3", "1.3.129", "1.3.1", "1.3.3.1.3", "1.3.4.3", "1.385.16513",
	"1.127.128.16511.16512.2113663", "1.2113664.270549119", "1.270549120.4294967295",
	"1.4294967294.4294967295.1", "1.3.16513.1",
}

// division draws a division value of the requested parity from every code
// class, the class boundaries, and small values.
func division(rng *rand.Rand, odd bool) uint32 {
	var v uint32
	switch rng.Intn(3) {
	case 0:
		v = boundaries[rng.Intn(len(boundaries))]
	case 1:
		c := rng.Intn(5)
		hi := uint64(1) << 32
		if c < 4 {
			hi = classBase[c+1]
		}
		v = uint32(classBase[c] + rng.Uint64()%(hi-classBase[c]))
	default:
		v = uint32(rng.Intn(40))
	}
	if odd {
		return v | 1
	}
	if v &^= 1; v == 0 {
		v = 2
	}
	return v
}

// randomLabel is a valid label with random overflow chains below parent.
func randomLabel(rng *rand.Rand, parent ref, levels int) ref {
	out := append(ref(nil), parent...)
	for ; levels > 0; levels-- {
		for rng.Intn(3) == 0 {
			out = append(out, division(rng, false))
		}
		out = append(out, division(rng, true))
	}
	return out
}

// labels returns fixed and random labels, many of them related: ancestors,
// descendants and siblings of one another, so the prefix cases are common.
func labels(rng *rand.Rand, n int) []ref {
	var out []ref
	for _, s := range fixedLabels {
		out = append(out, toRef(MustParse(s)))
	}
	for len(out) < n {
		base := out[rng.Intn(len(out))]
		switch rng.Intn(4) {
		case 0:
			out = append(out, randomLabel(rng, ref{1}, rng.Intn(6)))
		case 1:
			out = append(out, randomLabel(rng, base, 1+rng.Intn(3)))
		case 2:
			if p := base.parent(); len(p) > 0 {
				out = append(out, randomLabel(rng, p, 1))
			}
		default:
			out = append(out, base.ancestorAtLevel(1+rng.Intn(base.level())))
		}
	}
	return out
}

func fromRef(r ref) ID { return ID{enc: string(r.encode())} }

// TestOracleMethods checks every method of the encoded ID against the
// reference on fixed and random labels: each agrees on every label and every
// pair.
func TestOracleMethods(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	refs := labels(rng, 400)
	for _, r := range refs {
		id := fromRef(r)
		if err := r.validate(); err != nil {
			t.Fatalf("generator built an invalid label %v: %v", r, err)
		}
		agree := func(what string, got ID, want ref) {
			t.Helper()
			if got != fromRef(want) {
				t.Fatalf("%v.%s = %v, reference %v", r, what, got, want)
			}
		}
		if got := id.String(); got != r.String() {
			t.Fatalf("String %q, reference %q", got, r)
		}
		if back, err := Parse(r.String()); err != nil || back != id {
			t.Fatalf("Parse(%v) = %v, %v", r, back, err)
		}
		if back, err := Decode(r.encode()); err != nil || back != id {
			t.Fatalf("Decode(%v) = %v, %v", r, back, err)
		}
		if !bytes.Equal(id.Encode(), r.encode()) || id.EncodedLen() != len(r.encode()) || id.Key() != string(r.encode()) {
			t.Fatalf("%v: Encode %x (len %d), reference %x", r, id.Encode(), id.EncodedLen(), r.encode())
		}
		if id.Level() != r.level() || id.IsRoot() != (len(r) == 1) || id.IsReservedChild() != r.isReservedChild() {
			t.Fatalf("%v: Level %d IsRoot %v IsReservedChild %v, reference %d %v %v",
				r, id.Level(), id.IsRoot(), id.IsReservedChild(), r.level(), len(r) == 1, r.isReservedChild())
		}
		agree("Parent", id.Parent(), r.parent())
		anc, ranc := id.Ancestors(), r.ancestors()
		if len(anc) != len(ranc) {
			t.Fatalf("%v: %d ancestors, reference %d", r, len(anc), len(ranc))
		}
		for i := range anc {
			agree(fmt.Sprintf("Ancestors[%d]", i), anc[i], ranc[i])
		}
		for l := -1; l <= r.level()+1; l++ {
			agree(fmt.Sprintf("AncestorAtLevel(%d)", l), id.AncestorAtLevel(l), r.ancestorAtLevel(l))
		}
		if lim := r.subtreeLimit(); !bytes.Equal(id.SubtreeLimit().Encode(), lim) || !bytes.Equal(id.AppendSubtreeLimit(nil), lim) {
			t.Fatalf("%v: SubtreeLimit %x, reference %x", r, id.SubtreeLimit().Encode(), lim)
		}
		agree("AttributeRoot", id.AttributeRoot(), r.appendDiv(1))
		agree("StringNode", id.StringNode(), r.appendDiv(1))
		if !bytes.Equal(id.AppendAttributeRoot(nil), r.appendDiv(1).encode()) {
			t.Fatalf("%v: AppendAttributeRoot %x", r, id.AppendAttributeRoot(nil))
		}
		d := division(rng, true)
		agree(fmt.Sprintf("Child(%d)", d), id.Child(d), r.appendDiv(d))
		if !bytes.Equal(id.AppendChild(nil, d), r.appendDiv(d).encode()) {
			t.Fatalf("%v: AppendChild(%d) %x", r, d, id.AppendChild(nil, d))
		}
	}
	for _, a := range refs {
		for _, b := range refs {
			x, y := fromRef(a), fromRef(b)
			if Compare(x, y) != refCompare(a, b) || x.Equal(y) != (refCompare(a, b) == 0) || (x == y) != x.Equal(y) {
				t.Fatalf("Compare(%v, %v) = %d, reference %d", a, b, Compare(x, y), refCompare(a, b))
			}
			if x.IsAncestorOf(y) != a.isAncestorOf(b) || x.ChildOf(y) != a.childOf(b) {
				t.Fatalf("(%v, %v): IsAncestorOf %v ChildOf %v, reference %v %v",
					a, b, x.IsAncestorOf(y), x.ChildOf(y), a.isAncestorOf(b), a.childOf(b))
			}
		}
	}
	if Null.Level() != 0 || !Null.Parent().IsNull() || Null.Ancestors() != nil || !Null.SubtreeLimit().IsNull() ||
		Null.IsReservedChild() || Null.IsAncestorOf(Root()) || Root().IsAncestorOf(Null) || Root().ChildOf(Null) {
		t.Error("the null ID must label nothing and relate to nothing")
	}
}

// outcome runs f and returns its result or the panic it raised.
func outcome(f func() (ID, error)) (id ID, failed bool, panicked any) {
	defer func() { panicked = recover() }()
	id, err := f()
	return id, err != nil, nil
}

// TestOracleAllocator checks FirstChild, NthChild, NextSibling and Between
// against the reference allocator: the same labels, the same refusals.
func TestOracleAllocator(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	parents := labels(rng, 300)
	for i := 0; i < 3000; i++ {
		a := Allocator{Dist: uint32(rng.Intn(20))}
		ra := refAllocator{a}
		p := parents[rng.Intn(len(parents))]
		parent := fromRef(p)
		n := rng.Intn(100)
		if got, want := a.FirstChild(parent), ra.firstChild(p); got != fromRef(want) {
			t.Fatalf("FirstChild(%v) = %v, reference %v", p, got, want)
		}
		if got, want := a.NthChild(parent, n), p.appendDiv(uint32(n)*a.dist()+a.dist()+1); got != fromRef(want) {
			t.Fatalf("NthChild(%v, %d) = %v, reference %v", p, n, got, want)
		}
		kid := randomLabel(rng, p, 1)
		if got, want := a.NextSibling(fromRef(kid)), ra.nextSibling(kid); got != fromRef(want) {
			t.Fatalf("NextSibling(%v) = %v, reference %v", kid, got, want)
		}
		// Fences: children of p in either order, one of them null, or a
		// stranger — Between must refuse what the reference refuses.
		var l, r ref
		switch rng.Intn(5) {
		case 0:
			r = randomLabel(rng, p, 1)
		case 1:
			l = randomLabel(rng, p, 1)
		case 2:
			l = parents[rng.Intn(len(parents))]
			r = randomLabel(rng, p, 1)
		default:
			l, r = randomLabel(rng, p, 1), randomLabel(rng, p, 1)
		}
		got, gotErr, gotPanic := outcome(func() (ID, error) { return a.Between(parent, fromRef(l), fromRef(r)) })
		want, wantErr, wantPanic := outcome(func() (ID, error) {
			w, err := ra.between(p, l, r)
			return fromRef(w), err
		})
		if got != want || gotErr != wantErr || (gotPanic == nil) != (wantPanic == nil) {
			t.Fatalf("Between(%v, %v, %v) = %v (err %v, panic %v), reference %v (err %v, panic %v)",
				p, l, r, got, gotErr, gotPanic, want, wantErr, wantPanic)
		}
	}
}

// FuzzDecode holds Decode's one walk to the reference decoder: it accepts
// exactly the byte strings the reference accepts, and what it accepts
// encodes back to the input and survives the dotted form.
func FuzzDecode(f *testing.F) {
	for _, v := range boundaries {
		f.Add(refAppendDivision([]byte{1}, v))
		f.Add(refAppendDivision([]byte{1, 3}, v|1))
		f.Add(refAppendDivision(nil, v))
	}
	for _, b := range [][]byte{{}, {1, 2}, {1, 3, 4}, {1, 0, 3}, {0}, {0x80}, {1, 0xC0, 1}, {1, 0xF1, 3},
		{1, 0xF0, 0xFF, 0xFF, 0xFF, 0xFF}, {1, 0xF0, 0xEF, 0xDF, 0xBF, 0x7F}, {1, 0xF0, 0xEF, 0xDF, 0xBF, 0x80}} {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		id, err := Decode(b)
		r, rerr := refDecode(b)
		if (err == nil) != (rerr == nil) {
			t.Fatalf("Decode(%x): error %v, reference error %v", b, err, rerr)
		}
		if err != nil {
			return
		}
		if !bytes.Equal(id.Encode(), b) || id.String() != r.String() {
			t.Fatalf("Decode(%x) = %v encoding to %x, reference %v", b, id, id.Encode(), r)
		}
		if len(b) > 0 {
			if back, err := Parse(id.String()); err != nil || back != id {
				t.Fatalf("Parse(%q) = %v, %v; want %v", id.String(), back, err, id)
			}
		}
	})
}
