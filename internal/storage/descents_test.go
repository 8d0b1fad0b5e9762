package storage

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/btree"
	"repro/internal/pagestore"
	"repro/internal/splid"
	"repro/internal/xmlmodel"
)

// TestFixesPerReadOp is the descent gate: on a document tree of height 3,
// every read primitive fixes one root-to-leaf path — 3 pages — plus one page
// per leaf boundary the keys it reads happen to straddle, however long the
// child or attribute list. (When each child cost a descent of its own,
// ScanChildren of five children fixed 18 pages and Attributes of four 12.)
// Through a leaf memory left on the leaf it reads, a primitive fixes that
// leaf alone.
func TestFixesPerReadOp(t *testing.T) {
	const persons = 2500
	d, err := Create(pagestore.NewMemBackend(), "bib", Options{BufferFrames: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	b := d.NewBuilder()
	filler := string(make([]byte, 1500))
	for i := 0; i < persons; i++ {
		b.StartElement("person").Attribute(IDAttrName, fmt.Sprintf("p%d", i)).
			Attribute("born", "1970").Attribute("city", "kl").Attribute("rev", "0")
		for _, f := range []string{"first", "last", "street", "phone"} {
			b.Element(f, f)
		}
		b.Text(filler).EndElement()
	}
	if err := b.Err(); err != nil {
		t.Fatal(err)
	}
	st, err := d.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.DocTree.Depth != 3 {
		t.Fatalf("document tree has depth %d, the gate is written for 3", st.DocTree.Depth)
	}
	fixes := func(read func() error) int {
		t.Helper()
		s0 := d.Store().Stats()
		if err := read(); err != nil {
			t.Fatal(err)
		}
		s1 := d.Store().Stats()
		return int(s1.Hits + s1.Misses - s0.Hits - s0.Misses)
	}
	visit := func(int) func(xmlmodel.Node) bool {
		return func(xmlmodel.Node) bool { return true }
	}
	// A reader with a leaf memory, which each read below first leaves on the
	// attribute it is given: a read of that attribute fixes one page.
	var hint btree.Hint
	hinted := d.Reader().WithHint(&hint)

	// Every primitive on 200 persons spread over the document: 3 fixes, 4
	// when the person's few keys straddle a leaf boundary — which, at four
	// persons to a leaf, most do not.
	ops := []struct {
		name  string
		fixes int // of the descent; every op may cross one boundary on top
		read  func(el, kid, attr splid.ID) error
	}{
		{"GetNode", 3, func(el, _, _ splid.ID) error { _, err := d.GetNode(el); return err }},
		{"Exists", 3, func(el, _, _ splid.ID) error { _, err := d.Exists(el); return err }},
		{"ScanChildren", 3, func(el, _, _ splid.ID) error { return d.ScanChildren(el, visit(5)) }},
		{"ChildIDs", 3, func(el, _, _ splid.ID) error { _, _, err := d.ChildIDs(el); return err }},
		{"Children", 3, func(el, _, _ splid.ID) error { _, err := d.Children(el); return err }},
		{"Attributes", 3, func(el, _, _ splid.ID) error { return d.Attributes(el, visit(4)) }},
		{"AttributeNodes", 3, func(el, _, _ splid.ID) error { _, err := d.AttributeNodes(el); return err }},
		{"AttributeByName", 3, func(el, _, _ splid.ID) error { _, err := d.AttributeByName(el, "rev"); return err }},
		{"FirstChild", 3, func(el, _, _ splid.ID) error { _, err := d.FirstChild(el); return err }},
		{"LastChild", 3, func(el, _, _ splid.ID) error { _, err := d.LastChild(el); return err }},
		{"NextSibling", 3, func(_, kid, _ splid.ID) error { _, err := d.NextSibling(kid); return err }},
		{"PrevSibling", 3, func(_, kid, _ splid.ID) error { _, err := d.PrevSibling(kid); return err }},
		{"Value", 3, func(_, _, attr splid.ID) error { _, err := d.Value(attr); return err }},
		{"hinted Value", 1, func(_, _, attr splid.ID) error { _, err := hinted.Value(attr); return err }},
		{"ScanSubtree", 3, func(_, kid, _ splid.ID) error { return d.ScanSubtree(kid, visit(3)) }},
		{"Subtree", 3, func(el, _, _ splid.ID) error { _, err := d.Subtree(el); return err }},
		{"missing GetNode", 3, func(el, _, _ splid.ID) error {
			if _, err := d.GetNode(el.Child(9999)); !errors.Is(err, ErrNodeNotFound) {
				return fmt.Errorf("GetNode of a missing node: %v", err)
			}
			return nil
		}},
	}
	for _, op := range ops {
		exact := 0
		for i := 0; i < 200; i++ {
			el, err := d.ElementByID([]byte(fmt.Sprintf("p%d", i*persons/200)))
			if err != nil {
				t.Fatal(err)
			}
			first, _ := d.FirstChild(el)
			kid, _ := d.NextSibling(first.ID) // a middle child: it has both siblings
			attr, _ := d.AttributeByName(el, "city")
			if _, err := hinted.GetNode(attr.ID); err != nil {
				t.Fatal(err)
			}
			switch n := fixes(func() error { return op.read(el, kid.ID, attr.ID) }); n {
			case op.fixes:
				exact++
			case op.fixes + 1:
			default:
				t.Fatalf("%s on person %d fixed %d pages, want %d (+1 across a leaf boundary)", op.name, i, n, op.fixes)
			}
		}
		if exact < 100 {
			t.Errorf("%s: only %d of 200 reads stayed inside one leaf", op.name, exact)
		}
	}

	// A child list as long as the document: one descent, then one fix per
	// leaf — never one descent per child.
	leaves := st.DocTree.LeafPages
	if n := fixes(func() error { return d.ScanChildren(d.Root(), visit(persons)) }); n < leaves || n > leaves+3 {
		t.Errorf("ScanChildren of the root (%d children over %d leaves) fixed %d pages, want one descent plus the leaf chain", persons, leaves, n)
	}
	if n := fixes(func() error { _, err := d.ElementByID([]byte("p77")); return err }); n != st.IDTree.Depth {
		t.Errorf("ElementByID fixed %d pages in an id index of depth %d", n, st.IDTree.Depth)
	}
	if n := d.Store().PinnedFrames(); n != 0 {
		t.Errorf("%d frames still pinned after the reads", n)
	}
}
