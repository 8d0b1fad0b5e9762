package splid

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestParseAndString(t *testing.T) {
	cases := []string{"1", "1.3", "1.3.3", "1.3.4.3", "1.5.3.3.11.3.1", "1.128.65537"}
	for _, s := range cases {
		id, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if got := id.String(); got != s {
			t.Errorf("Parse(%q).String() = %q", s, got)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{"", "2", "0", "1.0", "1.4", "1.3.4", "x", "1..3", "1.3.", "1.-3", "1.4294967296"}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q): expected error", s)
		}
	}
}

func TestLevel(t *testing.T) {
	cases := map[string]int{
		"1":            1,
		"1.3":          2,
		"1.3.3":        3,
		"1.3.4.3":      3, // even division 4 does not open a level
		"1.3.4.4.3":    3,
		"1.5.3.3.11.3": 6,
		"1.3.3.1":      4, // attribute root
	}
	for s, want := range cases {
		if got := MustParse(s).Level(); got != want {
			t.Errorf("Level(%s) = %d, want %d", s, got, want)
		}
	}
	if Null.Level() != 0 {
		t.Errorf("Null.Level() = %d", Null.Level())
	}
}

func TestParent(t *testing.T) {
	cases := map[string]string{
		"1.3":       "1",
		"1.3.3":     "1.3",
		"1.3.4.3":   "1.3", // strip overflow chain with the odd division
		"1.3.4.4.3": "1.3",
		"1.3.3.1":   "1.3.3",
		"1.3.3.1.3": "1.3.3.1",
	}
	for s, want := range cases {
		if got := MustParse(s).Parent().String(); got != want {
			t.Errorf("Parent(%s) = %s, want %s", s, got, want)
		}
	}
	if !Root().Parent().IsNull() {
		t.Error("Parent(root) should be null")
	}
	if !Null.Parent().IsNull() {
		t.Error("Parent(null) should be null")
	}
}

func TestAncestors(t *testing.T) {
	id := MustParse("1.3.4.3.5.1.3")
	anc := id.Ancestors()
	want := []string{"1", "1.3", "1.3.4.3", "1.3.4.3.5", "1.3.4.3.5.1"}
	if len(anc) != len(want) {
		t.Fatalf("Ancestors: got %v, want %v", anc, want)
	}
	for i, w := range want {
		if anc[i].String() != w {
			t.Errorf("Ancestors[%d] = %s, want %s", i, anc[i], w)
		}
	}
	if Root().Ancestors() != nil {
		t.Error("root has no ancestors")
	}
}

// TestAncestorsAliasSafely is the property that lets Ancestors hand out
// prefixes of the receiver's own encoding: every ancestor equals the
// AncestorAtLevel of its level, and nothing done with one — deriving labels
// from it, encoding it — changes the descendant.
func TestAncestorsAliasSafely(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	for n := 0; n < 2000; n++ {
		id := randomID(r)
		before := id.String()
		anc := id.Ancestors()
		if len(anc) != id.Level()-1 {
			t.Fatalf("%s: %d ancestors, want %d", id, len(anc), id.Level()-1)
		}
		for i, a := range anc {
			if want := id.AncestorAtLevel(i + 1); !a.Equal(want) {
				t.Fatalf("%s: ancestor %d is %s, want %s", id, i, a, want)
			}
			a.Child(3)
			a.Parent().Child(5)
			a.SubtreeLimit()
			a.AttributeRoot()
			a.Encode()
			if got := id.String(); got != before {
				t.Fatalf("using ancestor %s changed its descendant %s into %s", a, before, got)
			}
		}
	}
	id := MustParse("1.3.5.7.9.11.13")
	if avg := testing.AllocsPerRun(100, func() { id.Ancestors() }); avg > 1 {
		t.Errorf("Ancestors allocates %.0f times, want 1 (the outer slice)", avg)
	}
}

func TestAncestorAtLevel(t *testing.T) {
	id := MustParse("1.3.4.3.5")
	cases := map[int]string{1: "1", 2: "1.3", 3: "1.3.4.3", 4: "1.3.4.3.5"}
	for lvl, want := range cases {
		if got := id.AncestorAtLevel(lvl).String(); got != want {
			t.Errorf("AncestorAtLevel(%d) = %s, want %s", lvl, got, want)
		}
	}
	if !id.AncestorAtLevel(5).IsNull() || !id.AncestorAtLevel(0).IsNull() {
		t.Error("out-of-range levels should return Null")
	}
}

func TestCompareDocumentOrder(t *testing.T) {
	// From Figure 5 of the paper, in document order.
	ordered := []string{
		"1", "1.3", "1.3.3", "1.3.3.1", "1.3.3.1.3", "1.3.3.1.3.1",
		"1.3.3.3", "1.3.3.3.3", "1.3.3.5", "1.3.3.7",
		"1.3.4.3", // node inserted between 1.3.3 subtree and 1.3.5
		"1.3.5", "1.5", "1.5.3", "1.5.3.3", "1.5.4.3", "1.5.4.5", "1.5.5",
	}
	for i := range ordered {
		for j := range ordered {
			a, b := MustParse(ordered[i]), MustParse(ordered[j])
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got := Compare(a, b); got != want {
				t.Errorf("Compare(%s, %s) = %d, want %d", a, b, got, want)
			}
		}
	}
}

func TestAncestryPredicates(t *testing.T) {
	root := Root()
	book := MustParse("1.5.3.3")
	title := MustParse("1.5.3.3.3")
	if !root.IsAncestorOf(book) || !book.IsAncestorOf(title) {
		t.Error("expected ancestry")
	}
	if book.IsAncestorOf(book) {
		t.Error("a node is not its own proper ancestor")
	}
	if title.IsAncestorOf(book) {
		t.Error("descendant is not an ancestor")
	}
	if !title.ChildOf(book) {
		t.Error("title is a child of book")
	}
	if title.ChildOf(root) {
		t.Error("title is not a child of root")
	}
	// Overflow labels: 1.3.4.3 is a child of 1.3.
	if !MustParse("1.3.4.3").ChildOf(MustParse("1.3")) {
		t.Error("overflow label should still be a direct child")
	}
}

func TestSubtreeLimit(t *testing.T) {
	d := MustParse("1.3.3")
	lim := d.SubtreeLimit()
	in := []string{"1.3.3", "1.3.3.1", "1.3.3.99.3", "1.3.3.3.5.7"}
	out := []string{"1.3.4.3", "1.3.5", "1.5", "1.3"}
	for _, s := range in {
		if Compare(MustParse(s), lim) >= 0 {
			t.Errorf("%s should be below SubtreeLimit(%s) = %s", s, d, lim)
		}
	}
	for _, s := range out {
		id := MustParse(s)
		if Compare(id, d) > 0 && Compare(id, lim) < 0 {
			t.Errorf("%s should not be inside subtree bound of %s", s, d)
		}
	}
}

func TestReservedChildren(t *testing.T) {
	el := MustParse("1.3.3")
	ar := el.AttributeRoot()
	if ar.String() != "1.3.3.1" {
		t.Errorf("AttributeRoot = %s", ar)
	}
	if !ar.IsReservedChild() {
		t.Error("attribute root must be a reserved child")
	}
	if el.IsReservedChild() {
		t.Error("1.3.3 is a regular node")
	}
	txt := MustParse("1.3.3.5")
	if sn := txt.StringNode(); sn.String() != "1.3.3.5.1" || !sn.IsReservedChild() {
		t.Errorf("StringNode = %s", txt.StringNode())
	}
}

func TestAllocatorPaperExample(t *testing.T) {
	// Paper, Section 3.2: inserting before d2=1.3.5 when d1=1.3.3 exists
	// yields a label of the form 1.3.4.x (even overflow then a fresh odd).
	a := Allocator{Dist: 2}
	parent := MustParse("1.3")
	d1, d2 := MustParse("1.3.3"), MustParse("1.3.5")
	d3, err := a.Between(parent, d1, d2)
	if err != nil {
		t.Fatal(err)
	}
	if d3.String() != "1.3.4.3" {
		t.Errorf("Between(1.3.3, 1.3.5) = %s, want 1.3.4.3", d3)
	}
	if Compare(d1, d3) != -1 || Compare(d3, d2) != -1 {
		t.Error("d3 must sort strictly between d1 and d2")
	}
	if d3.Level() != 3 {
		t.Errorf("d3 level = %d, want 3", d3.Level())
	}
	if d3.Parent().String() != "1.3" {
		t.Errorf("d3 parent = %s", d3.Parent())
	}
}

func TestAllocatorRepeatedInsertions(t *testing.T) {
	// Keep inserting between the first two children; labels must stay
	// ordered, at the right level, with the right parent, forever.
	a := Allocator{Dist: 2}
	parent := MustParse("1.3")
	left, right := MustParse("1.3.3"), MustParse("1.3.5")
	prev := left
	for i := 0; i < 200; i++ {
		mid, err := a.Between(parent, prev, right)
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		if Compare(prev, mid) != -1 || Compare(mid, right) != -1 {
			t.Fatalf("iteration %d: %s not strictly between %s and %s", i, mid, prev, right)
		}
		if mid.Level() != 3 {
			t.Fatalf("iteration %d: level %d", i, mid.Level())
		}
		if !mid.Parent().Equal(parent) {
			t.Fatalf("iteration %d: parent %s", i, mid.Parent())
		}
		if mid.IsReservedChild() {
			t.Fatalf("iteration %d: produced reserved label %s", i, mid)
		}
		prev = mid
	}
}

func TestAllocatorInsertBeforeFirst(t *testing.T) {
	a := Allocator{Dist: 2}
	parent := MustParse("1.3")
	first := MustParse("1.3.3")
	for i := 0; i < 100; i++ {
		id, err := a.Between(parent, Null, first)
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		if Compare(id, first) != -1 {
			t.Fatalf("iteration %d: %s not before %s", i, id, first)
		}
		// Must stay above the reserved attribute-root label parent.1.
		if Compare(id, parent.AttributeRoot()) != 1 {
			t.Fatalf("iteration %d: %s collides with reserved space", i, id)
		}
		if id.Level() != 3 || !id.Parent().Equal(parent) || id.IsReservedChild() {
			t.Fatalf("iteration %d: bad label %s (level %d, parent %s)", i, id, id.Level(), id.Parent())
		}
		first = id
	}
}

func TestAllocatorAppend(t *testing.T) {
	a := Allocator{Dist: 16}
	parent := MustParse("1.5")
	prev := a.FirstChild(parent)
	if !prev.ChildOf(parent) {
		t.Fatalf("FirstChild %s not a child of %s", prev, parent)
	}
	for i := 0; i < 100; i++ {
		next := a.NextSibling(prev)
		if Compare(prev, next) != -1 {
			t.Fatalf("NextSibling(%s) = %s not after", prev, next)
		}
		if !next.ChildOf(parent) {
			t.Fatalf("NextSibling %s not a child of %s", next, parent)
		}
		if len(toRef(next)) != len(toRef(parent))+1 {
			t.Fatalf("appended sibling %s should not grow an overflow chain", next)
		}
		prev = next
	}
}

func TestAllocatorBetweenOverflowChains(t *testing.T) {
	// Exercise overflow-vs-overflow fences: random insert positions among an
	// evolving sibling list.
	a := Allocator{Dist: 2}
	parent := MustParse("1.3")
	sibs := []ID{MustParse("1.3.3"), MustParse("1.3.5"), MustParse("1.3.7")}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		pos := rng.Intn(len(sibs) + 1)
		var left, right ID
		if pos > 0 {
			left = sibs[pos-1]
		}
		if pos < len(sibs) {
			right = sibs[pos]
		}
		id, err := a.Between(parent, left, right)
		if err != nil {
			t.Fatalf("iteration %d (pos %d, left %v, right %v): %v", i, pos, left, right, err)
		}
		if !left.IsNull() && Compare(left, id) != -1 {
			t.Fatalf("iteration %d: %s not after left %s", i, id, left)
		}
		if !right.IsNull() && Compare(id, right) != -1 {
			t.Fatalf("iteration %d: %s not before right %s", i, id, right)
		}
		if !id.ChildOf(parent) {
			t.Fatalf("iteration %d: %s not child of %s", i, id, parent)
		}
		if id.IsReservedChild() {
			t.Fatalf("iteration %d: reserved label %s", i, id)
		}
		sibs = append(sibs[:pos], append([]ID{id}, sibs[pos:]...)...)
	}
	if !sort.SliceIsSorted(sibs, func(i, j int) bool { return Compare(sibs[i], sibs[j]) < 0 }) {
		t.Error("sibling list lost document order")
	}
}

func TestAllocatorBetweenErrors(t *testing.T) {
	a := Allocator{Dist: 2}
	parent := MustParse("1.3")
	if _, err := a.Between(parent, MustParse("1.3.5"), MustParse("1.3.3")); err == nil {
		t.Error("reversed fences should fail")
	}
	if _, err := a.Between(parent, MustParse("1.5.3"), MustParse("1.3.3")); err == nil {
		t.Error("non-children should fail")
	}
	if _, err := a.Between(parent, Null, MustParse("1.5.3")); err == nil {
		t.Error("right fence under wrong parent should fail")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	cases := []string{"1", "1.3", "1.3.4.3", "1.127.128.16511.16512.2113663", "1.4294967295"}
	for _, s := range cases {
		id := MustParse(s)
		b := id.Encode()
		if len(b) != id.EncodedLen() {
			t.Errorf("EncodedLen(%s) = %d, len = %d", s, id.EncodedLen(), len(b))
		}
		back, err := Decode(b)
		if err != nil {
			t.Fatalf("Decode(%s): %v", s, err)
		}
		if !back.Equal(id) {
			t.Errorf("round trip %s -> %s", id, back)
		}
	}
	if id, err := Decode(nil); err != nil || !id.IsNull() {
		t.Error("Decode(nil) should yield Null")
	}
}

func TestDecodeErrors(t *testing.T) {
	bad := [][]byte{{0x80}, {0xC0, 0x01}, {0xF0, 1, 2}, {0xF1}, {3}} // 3 = bare "3": first division must be 1
	for _, b := range bad {
		if _, err := Decode(b); err == nil {
			t.Errorf("Decode(%v): expected error", b)
		}
	}
}

func TestEncodingPreservesOrder(t *testing.T) {
	ids := []string{
		"1", "1.3", "1.3.3", "1.3.4.3", "1.3.5", "1.127", "1.129",
		"1.16511", "1.16513", "1.2113663", "1.2113665", "1.4294967295",
		"1.128.3", "1.16512.3", "1.2113664.3",
		"1.3.3.1", "1.3.3.1.3",
	}
	for i := range ids {
		for j := range ids {
			a, b := MustParse(ids[i]), MustParse(ids[j])
			want := Compare(a, b)
			got := bytes.Compare(a.Encode(), b.Encode())
			if got != want {
				t.Errorf("byte order of (%s, %s) = %d, want %d", a, b, got, want)
			}
		}
	}
}

// randomID builds a structurally valid random SPLID for property tests.
func randomID(rng *rand.Rand) ID {
	depth := 1 + rng.Intn(6)
	divs := []uint32{1}
	for l := 1; l < depth; l++ {
		// Optional overflow chain.
		for rng.Intn(4) == 0 {
			divs = append(divs, uint32(2+2*rng.Intn(1<<uint(2+rng.Intn(14)))))
		}
		divs = append(divs, uint32(3+2*rng.Intn(1<<uint(2+rng.Intn(14)))))
	}
	return fromDivs(divs...)
}

func TestPropertyEncodingOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func() bool {
		a, b := randomID(rng), randomID(rng)
		return Compare(a, b) == bytes.Compare(a.Encode(), b.Encode())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestPropertyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func() bool {
		id := randomID(rng)
		back, err := Decode(id.Encode())
		if err != nil {
			return false
		}
		s, err2 := Parse(id.String())
		return err2 == nil && back.Equal(id) && s.Equal(id)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestPropertyAncestorPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func() bool {
		id := randomID(rng)
		lvl := id.Level()
		prev := id
		for p := id.Parent(); !p.IsNull(); p = p.Parent() {
			lvl--
			if p.Level() != lvl {
				return false
			}
			if !p.IsAncestorOf(id) || !p.IsAncestorOf(prev) && !p.Equal(prev.Parent()) {
				return false
			}
			if !bytes.HasPrefix(id.Encode(), p.Encode()) {
				return false
			}
			prev = p
		}
		return lvl == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestPropertySubtreeLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := func() bool {
		a, b := randomID(rng), randomID(rng)
		lim := a.SubtreeLimit()
		inSubtree := a == b || a.IsAncestorOf(b)
		inRange := Compare(b, a) >= 0 && Compare(b, lim) < 0
		return inSubtree == inRange
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestPropertyBetween(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := Allocator{Dist: 2}
	f := func() bool {
		parent := randomID(rng)
		alloc := Allocator{Dist: uint32(2 + 2*rng.Intn(8))}
		left := alloc.FirstChild(parent)
		right := alloc.NextSibling(left)
		for i := 0; i < 20; i++ {
			mid, err := a.Between(parent, left, right)
			if err != nil {
				return false
			}
			if Compare(left, mid) != -1 || Compare(mid, right) != -1 {
				return false
			}
			if !mid.ChildOf(parent) || mid.IsReservedChild() {
				return false
			}
			if rng.Intn(2) == 0 {
				left = mid
			} else {
				right = mid
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkEncode(b *testing.B) {
	id := MustParse("1.5.3.3.11.3.1")
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = id.AppendEncode(buf[:0])
	}
}

func BenchmarkCompare(b *testing.B) {
	x := MustParse("1.5.3.3.11.3.1")
	y := MustParse("1.5.3.3.11.5")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Compare(x, y)
	}
}

func BenchmarkAncestors(b *testing.B) {
	id := MustParse("1.5.3.3.11.3.1")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		id.Ancestors()
	}
}
