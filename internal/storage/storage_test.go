package storage

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/pagestore"
	"repro/internal/splid"
	"repro/internal/xmlmodel"
)

// buildLibrary creates a small version of the paper's Figure 5 document.
func buildLibrary(t testing.TB) *Document {
	t.Helper()
	d, err := Create(pagestore.NewMemBackend(), "bib", Options{Dist: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	b := d.NewBuilder()
	b.StartElement("persons")
	for _, name := range []string{"ann", "bob"} {
		b.StartElement("person").Attribute("id", "p-"+name).
			Element("name", name).
			Element("addr", name+" street").
			EndElement()
	}
	b.EndElement()
	b.StartElement("topics")
	b.StartElement("topic").Attribute("id", "t-1")
	for _, title := range []string{"tcp", "xml"} {
		b.StartElement("book").Attribute("id", "b-"+title).Attribute("year", "2005").
			Element("title", title).
			Element("author", "knuth").
			Element("price", "42").
			StartElement("history").
			StartElement("lend").Attribute("person", "p-ann").Attribute("return", "2006-01-01").EndElement().
			EndElement().
			EndElement()
	}
	b.EndElement()
	b.EndElement()
	if b.Err() != nil {
		t.Fatal(b.Err())
	}
	return d
}

func TestCreateAndRoot(t *testing.T) {
	d, err := Create(pagestore.NewMemBackend(), "bib", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	root, err := d.GetNode(d.Root())
	if err != nil {
		t.Fatal(err)
	}
	if root.Kind != xmlmodel.KindElement || d.Vocabulary().Name(root.Name) != "bib" {
		t.Errorf("root = %+v", root)
	}
	if d.Size() != 1 {
		t.Errorf("Size = %d", d.Size())
	}
}

// TestPrevSiblingPastHalfDeletedSibling: a subtree delete removes its
// records one by one in document order, the element's own record first, and
// reads are latch-free. A sibling caught with its record gone and its
// attributes and children still stored does not exist, and PrevSibling looks
// past it instead of failing on it.
func TestPrevSiblingPastHalfDeletedSibling(t *testing.T) {
	d := buildLibrary(t)
	persons, err := d.FirstChild(d.Root())
	if err != nil {
		t.Fatal(err)
	}
	ann, err := d.FirstChild(persons.ID)
	if err != nil {
		t.Fatal(err)
	}
	bob, err := d.NextSibling(ann.ID)
	if err != nil || bob.ID.IsNull() {
		t.Fatalf("NextSibling(ann) = %+v, %v", bob, err)
	}
	if err := d.deleteRaw(ann); err != nil {
		t.Fatal(err)
	}
	if n, err := d.PrevSibling(bob.ID); err != nil || !n.ID.IsNull() {
		t.Errorf("PrevSibling(bob) with ann half deleted = %+v, %v; want no sibling", n, err)
	}
}

func TestNavigationAxes(t *testing.T) {
	d := buildLibrary(t)
	root := d.Root()

	persons, err := d.FirstChild(root)
	if err != nil || d.Vocabulary().Name(persons.Name) != "persons" {
		t.Fatalf("FirstChild(root) = %+v, %v", persons, err)
	}
	topics, err := d.LastChild(root)
	if err != nil || d.Vocabulary().Name(topics.Name) != "topics" {
		t.Fatalf("LastChild(root) = %+v, %v", topics, err)
	}
	ns, err := d.NextSibling(persons.ID)
	if err != nil || !ns.ID.Equal(topics.ID) {
		t.Fatalf("NextSibling(persons) = %+v, %v", ns, err)
	}
	ps, err := d.PrevSibling(topics.ID)
	if err != nil || !ps.ID.Equal(persons.ID) {
		t.Fatalf("PrevSibling(topics) = %+v, %v", ps, err)
	}
	if n, _ := d.NextSibling(topics.ID); !n.ID.IsNull() {
		t.Error("topics has no next sibling")
	}
	if p, _ := d.PrevSibling(persons.ID); !p.ID.IsNull() {
		t.Error("persons has no previous sibling")
	}
	par, err := d.Parent(persons.ID)
	if err != nil || !par.ID.Equal(root) {
		t.Fatalf("Parent(persons) = %+v, %v", par, err)
	}
	if r, _ := d.Parent(root); !r.ID.IsNull() {
		t.Error("root has no parent")
	}
	if s, _ := d.NextSibling(root); !s.ID.IsNull() {
		t.Error("root has no siblings")
	}
}

func TestChildrenSkipAttributeMachinery(t *testing.T) {
	d := buildLibrary(t)
	book, err := d.ElementByID([]byte("b-tcp"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	if err := d.ScanChildren(book, func(n xmlmodel.Node) bool {
		names = append(names, d.Vocabulary().Name(n.Name))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	want := "title author price history"
	if got := strings.Join(names, " "); got != want {
		t.Errorf("children = %q, want %q", got, want)
	}
	if kids, _ := d.Children(book); len(kids) != 4 {
		t.Errorf("Children = %d nodes", len(kids))
	}
	// First child must be title, not the attribute root.
	fc, _ := d.FirstChild(book)
	if d.Vocabulary().Name(fc.Name) != "title" {
		t.Errorf("FirstChild(book) = %s", d.Vocabulary().Name(fc.Name))
	}
}

func TestAttributes(t *testing.T) {
	d := buildLibrary(t)
	book, _ := d.ElementByID([]byte("b-xml"))
	var attrs []string
	d.Attributes(book, func(n xmlmodel.Node) bool {
		v, _ := d.Value(n.ID)
		attrs = append(attrs, d.Vocabulary().Name(n.Name)+"="+string(v))
		return true
	})
	if strings.Join(attrs, ",") != "id=b-xml,year=2005" {
		t.Errorf("attrs = %v", attrs)
	}
	a, err := d.AttributeByName(book, "year")
	if err != nil || a.ID.IsNull() {
		t.Fatalf("AttributeByName(year) = %+v, %v", a, err)
	}
	if v, _ := d.Value(a.ID); string(v) != "2005" {
		t.Errorf("year = %q", v)
	}
	if a, _ := d.AttributeByName(book, "missing"); !a.ID.IsNull() {
		t.Error("missing attribute should be null")
	}
	// Overwrite.
	if _, err := d.SetAttribute(book, "year", []byte("2006")); err != nil {
		t.Fatal(err)
	}
	if v, _ := d.Value(a.ID); string(v) != "2006" {
		t.Errorf("year after overwrite = %q", v)
	}
	// Count must not grow.
	count := 0
	d.Attributes(book, func(xmlmodel.Node) bool { count++; return true })
	if count != 2 {
		t.Errorf("attribute count = %d", count)
	}
}

func TestValues(t *testing.T) {
	d := buildLibrary(t)
	book, _ := d.ElementByID([]byte("b-tcp"))
	title, _ := d.FirstChild(book)
	text, _ := d.FirstChild(title.ID)
	if text.Kind != xmlmodel.KindText {
		t.Fatalf("first child of title = %v", text.Kind)
	}
	if v, _ := d.Value(text.ID); string(v) != "tcp" {
		t.Errorf("title text = %q", v)
	}
	if err := d.SetValue(text.ID, []byte("tcp/ip")); err != nil {
		t.Fatal(err)
	}
	if v, _ := d.Value(text.ID); string(v) != "tcp/ip" {
		t.Errorf("title after SetValue = %q", v)
	}
	// Values of elements are errors.
	if _, err := d.Value(book); err == nil {
		t.Error("Value(element) should fail")
	}
	if err := d.SetValue(book, []byte("x")); err == nil {
		t.Error("SetValue(element) should fail")
	}
}

func TestIDIndex(t *testing.T) {
	d := buildLibrary(t)
	id, err := d.ElementByID([]byte("p-ann"))
	if err != nil {
		t.Fatal(err)
	}
	n, _ := d.GetNode(id)
	if d.Vocabulary().Name(n.Name) != "person" {
		t.Errorf("p-ann resolves to %s", d.Vocabulary().Name(n.Name))
	}
	if _, err := d.ElementByID([]byte("missing")); !errors.Is(err, ErrNodeNotFound) {
		t.Errorf("missing id: %v", err)
	}
	// Changing an id attribute re-points the index.
	attr, _ := d.AttributeByName(id, "id")
	if err := d.SetValue(attr.ID, []byte("p-anna")); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ElementByID([]byte("p-ann")); !errors.Is(err, ErrNodeNotFound) {
		t.Error("old id should be gone")
	}
	if got, err := d.ElementByID([]byte("p-anna")); err != nil || !got.Equal(id) {
		t.Errorf("new id lookup = %v, %v", got, err)
	}
}

func TestElementsByName(t *testing.T) {
	d := buildLibrary(t)
	var books []splid.ID
	d.ElementsByName("book", func(id splid.ID) bool {
		books = append(books, id)
		return true
	})
	if len(books) != 2 {
		t.Fatalf("found %d books", len(books))
	}
	if splid.Compare(books[0], books[1]) != -1 {
		t.Error("element index must be in document order")
	}
	count := 0
	d.ElementsByName("lend", func(splid.ID) bool { count++; return true })
	if count != 2 {
		t.Errorf("lend count = %d", count)
	}
	if err := d.ElementsByName("nonexistent", func(splid.ID) bool { t.Error("callback for unknown name"); return true }); err != nil {
		t.Fatal(err)
	}
}

func TestRename(t *testing.T) {
	d := buildLibrary(t)
	topic, err := d.ElementByID([]byte("t-1"))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Rename(topic, "subject"); err != nil {
		t.Fatal(err)
	}
	n, _ := d.GetNode(topic)
	if d.Vocabulary().Name(n.Name) != "subject" {
		t.Errorf("renamed to %s", d.Vocabulary().Name(n.Name))
	}
	// Element index follows the rename.
	count := 0
	d.ElementsByName("topic", func(splid.ID) bool { count++; return true })
	if count != 0 {
		t.Errorf("stale topic index entries: %d", count)
	}
	d.ElementsByName("subject", func(splid.ID) bool { count++; return true })
	if count != 1 {
		t.Errorf("subject index entries: %d", count)
	}
	// Renaming a text node fails.
	txt, _ := d.FirstChild(topic)
	for !txt.ID.IsNull() && txt.Kind == xmlmodel.KindElement {
		txt, _ = d.FirstChild(txt.ID)
	}
	if !txt.ID.IsNull() {
		if err := d.Rename(txt.ID, "x"); err == nil {
			t.Error("renaming a text node should fail")
		}
	}
}

func TestDeleteSubtree(t *testing.T) {
	d := buildLibrary(t)
	before := d.Size()
	book, _ := d.ElementByID([]byte("b-tcp"))
	sub, _ := d.SubtreeSize(book)
	n, err := d.DeleteSubtree(book)
	if err != nil {
		t.Fatal(err)
	}
	if n != sub {
		t.Errorf("deleted %d nodes, subtree had %d", n, sub)
	}
	if d.Size() != before-n {
		t.Errorf("Size = %d, want %d", d.Size(), before-n)
	}
	if _, err := d.GetNode(book); !errors.Is(err, ErrNodeNotFound) {
		t.Error("book still present")
	}
	if _, err := d.ElementByID([]byte("b-tcp")); !errors.Is(err, ErrNodeNotFound) {
		t.Error("id index entry survived delete")
	}
	count := 0
	d.ElementsByName("book", func(splid.ID) bool { count++; return true })
	if count != 1 {
		t.Errorf("book element index count = %d", count)
	}
	// Sibling structure is intact.
	topic, _ := d.ElementByID([]byte("t-1"))
	if kids, _ := d.Children(topic); len(kids) != 1 {
		t.Errorf("topic children = %d", len(kids))
	}
	// Root is protected.
	if _, err := d.DeleteSubtree(d.Root()); err == nil {
		t.Error("deleting the root must fail")
	}
	// Deleting twice fails.
	if _, err := d.DeleteSubtree(book); !errors.Is(err, ErrNodeNotFound) {
		t.Errorf("second delete: %v", err)
	}
}

func TestInsertDuplicate(t *testing.T) {
	d := buildLibrary(t)
	persons, _ := d.FirstChild(d.Root())
	if _, err := d.InsertElement(persons.ID, "person"); !errors.Is(err, ErrNodeExists) {
		t.Errorf("duplicate insert: %v", err)
	}
}

func TestImportExportXML(t *testing.T) {
	d, err := Create(pagestore.NewMemBackend(), "bib", Options{Dist: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	src := `<persons><person id="p1"><name>Ann &amp; Bob</name></person></persons>`
	if err := d.ImportXML(strings.NewReader(src)); err != nil {
		t.Fatal(err)
	}
	el, err := d.ElementByID([]byte("p1"))
	if err != nil {
		t.Fatal(err)
	}
	name, _ := d.FirstChild(el)
	txt, _ := d.FirstChild(name.ID)
	if v, _ := d.Value(txt.ID); string(v) != "Ann & Bob" {
		t.Errorf("text = %q", v)
	}
	var buf bytes.Buffer
	if err := d.ExportXML(&buf, d.Root()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, frag := range []string{"<bib>", `id="p1"`, "Ann &amp; Bob", "</bib>"} {
		if !strings.Contains(out, frag) {
			t.Errorf("export missing %q:\n%s", frag, out)
		}
	}
	// Re-import the export into a fresh document: same node count.
	d2, _ := Create(pagestore.NewMemBackend(), "wrapper", Options{})
	defer d2.Close()
	if err := d2.ImportXML(strings.NewReader(out)); err != nil {
		t.Fatalf("re-import: %v\n%s", err, out)
	}
	if d2.Size() != d.Size()+1 { // +1: wrapper root around exported <bib>
		t.Errorf("re-import size %d vs %d", d2.Size(), d.Size())
	}
}

func TestImportErrors(t *testing.T) {
	d, _ := Create(pagestore.NewMemBackend(), "root", Options{})
	defer d.Close()
	if err := d.ImportXML(strings.NewReader("<a><b></a>")); err == nil {
		t.Error("mismatched tags should fail")
	}
}

func TestDocumentOrderScan(t *testing.T) {
	d := buildLibrary(t)
	var prev splid.ID
	count := 0
	err := d.ScanDocument(func(n xmlmodel.Node) bool {
		if !prev.IsNull() && splid.Compare(prev, n.ID) != -1 {
			t.Fatalf("scan out of document order at %v", n.ID)
		}
		prev = n.ID
		count++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != d.Size() {
		t.Errorf("scanned %d, Size %d", count, d.Size())
	}
}

func TestBuilderErrors(t *testing.T) {
	d, _ := Create(pagestore.NewMemBackend(), "r", Options{})
	defer d.Close()
	b := d.NewBuilder()
	b.EndElement()
	if b.Err() == nil {
		t.Error("unbalanced EndElement should error")
	}
	b2 := d.NewBuilder()
	b2.Attribute("x", "y")
	if b2.Err() == nil {
		t.Error("attribute outside element should error")
	}
}

// TestBuilderOverPopulatedDocument: a second Builder labels its first child
// as the document's first child already is. The key sorts below the last
// key, so the load falls back to insertRaw, which refuses it.
func TestBuilderOverPopulatedDocument(t *testing.T) {
	d := buildLibrary(t)
	size := d.Size()
	for name, write := range map[string]func(*Builder){
		"element": func(b *Builder) { b.StartElement("persons") },
		"text":    func(b *Builder) { b.Text("again") },
	} {
		b := d.NewBuilder()
		if write(b); !errors.Is(b.Err(), ErrNodeExists) || d.Size() != size {
			t.Errorf("%s over a stored node: %v, size %d, was %d", name, b.Err(), d.Size(), size)
		}
	}
}

// TestBuilderUnderDeletedElement: the element a Builder has open is deleted
// between two calls. Its next child sorts past every key but finds no parent
// on the rightmost leaf, so the load falls back to insertRaw, which reports
// the missing parent.
func TestBuilderUnderDeletedElement(t *testing.T) {
	for name, write := range map[string]func(*Builder){
		"element":   func(b *Builder) { b.StartElement("y") },
		"text":      func(b *Builder) { b.Text("y") },
		"attribute": func(b *Builder) { b.Attribute("y", "1") },
	} {
		d, err := Create(pagestore.NewMemBackend(), "r", Options{})
		if err != nil {
			t.Fatal(err)
		}
		b := d.NewBuilder()
		b.StartElement("a").Element("x", "1")
		a, err := d.FirstChild(d.Root())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.DeleteSubtree(a.ID); err != nil {
			t.Fatal(err)
		}
		if write(b); !errors.Is(b.Err(), ErrNodeNotFound) || d.Size() != 1 {
			t.Errorf("%s under a deleted element: %v, size %d", name, b.Err(), d.Size())
		}
		d.Close()
	}
}

// TestBuilderRepeatedAttribute: a Builder that sets an element's id twice,
// with another attribute and a child element that has one of its own in
// between, keeps one id attribute with the second value, and the ID index
// maps that value alone; an attribute set after the child follows the
// element's last. The nodes are those SetAttribute writes for the same calls.
func TestBuilderRepeatedAttribute(t *testing.T) {
	build := func(t *testing.T, viaBuilder bool) []string {
		d, err := Create(pagestore.NewMemBackend(), "r", Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		before, after := [][2]string{{"id", "x"}, {"rev", "1"}}, [][2]string{{"id", "y"}, {"year", "2006"}}
		attrs := func(b *Builder, attrs [][2]string) {
			for _, a := range attrs {
				if viaBuilder {
					b.Attribute(a[0], a[1])
				}
			}
		}
		b := d.NewBuilder().StartElement("a")
		attrs(b, before)
		b.StartElement("c").Attribute("lang", "en").Text("t").EndElement()
		attrs(b, after)
		if b.EndElement(); b.Err() != nil {
			t.Fatal(b.Err())
		}
		a, err := d.FirstChild(d.Root())
		if err != nil {
			t.Fatal(err)
		}
		for _, at := range append(before, after...) {
			if !viaBuilder {
				if _, err := d.SetAttribute(a.ID, at[0], []byte(at[1])); err != nil {
					t.Fatal(err)
				}
			}
		}
		var nodes []string
		if err := d.ScanDocument(func(n xmlmodel.Node) bool {
			nodes = append(nodes, fmt.Sprintf("%v %v %s %q", n.ID, n.Kind, d.vocab.Name(n.Name), n.Value))
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if got, err := d.AttributeNodes(a.ID); err != nil || len(got) != 3 {
			t.Fatalf("attributes %v, %v; want id, rev and year", got, err)
		}
		if v, err := d.Value(mustAttr(t, d, a.ID, "id").ID); err != nil || string(v) != "y" {
			t.Fatalf("id is %q, %v; want y", v, err)
		}
		if el, err := d.ElementByID([]byte("y")); err != nil || el != a.ID || d.ids.Len() != 1 {
			t.Fatalf("ID index: y -> %v, %v, %d entries; want %v alone", el, err, d.ids.Len(), a.ID)
		}
		return nodes
	}
	if built, set := build(t, true), build(t, false); !slices.Equal(built, set) {
		t.Fatalf("the Builder wrote\n%s\nSetAttribute\n%s", strings.Join(built, "\n"), strings.Join(set, "\n"))
	}
}

// mustAttr returns el's attribute of the given name.
func mustAttr(t *testing.T, d *Document, el splid.ID, name string) xmlmodel.Node {
	t.Helper()
	n, err := d.AttributeByName(el, name)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestPersistenceAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "doc.db")
	fb, err := pagestore.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Create(fb, "bib", Options{Dist: 4})
	if err != nil {
		t.Fatal(err)
	}
	b := d.NewBuilder()
	b.StartElement("topics").
		StartElement("topic").Attribute("id", "t1").
		Element("title", "durable data").
		EndElement().
		EndElement()
	if b.Err() != nil {
		t.Fatal(b.Err())
	}
	size := d.Size()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	fb2, err := pagestore.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Open(fb2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.Size() != size {
		t.Errorf("size after reopen = %d, want %d", d2.Size(), size)
	}
	topic, err := d2.ElementByID([]byte("t1"))
	if err != nil {
		t.Fatalf("id index lost: %v", err)
	}
	title, err := d2.FirstChild(topic)
	if err != nil || d2.Vocabulary().Name(title.Name) != "title" {
		t.Fatalf("structure lost: %+v, %v", title, err)
	}
	txt, _ := d2.FirstChild(title.ID)
	if v, _ := d2.Value(txt.ID); string(v) != "durable data" {
		t.Errorf("content lost: %q", v)
	}
	count := 0
	d2.ElementsByName("topic", func(splid.ID) bool { count++; return true })
	if count != 1 {
		t.Errorf("element index lost: %d topics", count)
	}
	// The reopened document accepts further updates.
	if _, err := d2.SetAttribute(topic, "year", []byte("2006")); err != nil {
		t.Fatal(err)
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	mb := pagestore.NewMemBackend()
	s := pagestore.Open(mb, 4)
	f, _ := s.FixNew()
	copy(f.Data(), "JUNKJUNK")
	f.MarkDirty()
	s.Unfix(f)
	s.Flush()
	if _, err := Open(mb, Options{}); err == nil {
		t.Error("Open should reject a non-document backend")
	}
}

func TestVerifyCleanDocument(t *testing.T) {
	d := buildLibrary(t)
	if err := d.Verify(); err != nil {
		t.Fatal(err)
	}
	// Still clean after updates, renames, and deletes.
	book, _ := d.ElementByID([]byte("b-tcp"))
	if _, err := d.DeleteSubtree(book); err != nil {
		t.Fatal(err)
	}
	topic, _ := d.ElementByID([]byte("t-1"))
	if err := d.Rename(topic, "theme"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.SetAttribute(topic, "year", []byte("2006")); err != nil {
		t.Fatal(err)
	}
	if err := d.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyDetectsCorruption(t *testing.T) {
	d := buildLibrary(t)
	// Sever a subtree root while keeping its descendants: orphans.
	book, _ := d.ElementByID([]byte("b-xml"))
	n, _ := d.GetNode(book)
	if err := d.deleteRaw(n); err != nil {
		t.Fatal(err)
	}
	if err := d.Verify(); err == nil {
		t.Error("orphaned descendants must fail verification")
	}
}

func TestRelabelSubtree(t *testing.T) {
	d := buildLibrary(t)
	topic, err := d.ElementByID([]byte("t-1"))
	if err != nil {
		t.Fatal(err)
	}
	// Grow a pathological overflow chain: keep inserting an element between
	// the first two books until the labels get long.
	first, _ := d.FirstChild(topic)
	second, _ := d.NextSibling(first.ID)
	right := second.ID
	for i := 0; i < 40; i++ {
		id, err := d.Allocator().Between(topic, first.ID, right)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.InsertElement(id, "filler"); err != nil {
			t.Fatal(err)
		}
		right = id
	}
	if right.EncodedLen() < 12 {
		t.Fatalf("expected a long overflow label, got %d bytes (%v)", right.EncodedLen(), right)
	}
	sizeBefore, _ := d.SubtreeSize(topic)

	newTopic, err := d.RelabelSubtree(topic)
	if err != nil {
		t.Fatal(err)
	}
	sizeAfter, err := d.SubtreeSize(newTopic)
	if err != nil || sizeAfter != sizeBefore {
		t.Fatalf("subtree size %d -> %d (%v)", sizeBefore, sizeAfter, err)
	}
	// All labels inside are now short.
	maxLen := 0
	d.ScanSubtree(newTopic, func(n xmlmodel.Node) bool {
		if l := n.ID.EncodedLen(); l > maxLen {
			maxLen = l
		}
		return true
	})
	if maxLen > 12 {
		t.Errorf("labels still long after relabel: %d bytes", maxLen)
	}
	// Indexes follow: id lookup and element index agree with the new home.
	got, err := d.ElementByID([]byte("t-1"))
	if err != nil || !got.Equal(newTopic) {
		t.Errorf("id index after relabel: %v, %v", got, err)
	}
	count := 0
	d.ElementsByName("filler", func(splid.ID) bool { count++; return true })
	if count != 40 {
		t.Errorf("filler index count = %d", count)
	}
	if err := d.Verify(); err != nil {
		t.Fatal(err)
	}
	// The rest of the document is untouched.
	if _, err := d.ElementByID([]byte("p-ann")); err != nil {
		t.Errorf("unrelated node lost: %v", err)
	}
}

func TestRelabelRootRejected(t *testing.T) {
	d := buildLibrary(t)
	if _, err := d.RelabelSubtree(d.Root()); !errors.Is(err, ErrRelabelRoot) {
		t.Errorf("err = %v", err)
	}
}

func TestNeedsRelabel(t *testing.T) {
	d := buildLibrary(t)
	topic, _ := d.ElementByID([]byte("t-1"))
	first, _ := d.FirstChild(topic)
	need, err := d.NeedsRelabel(topic, splid.Null, first.ID)
	if err != nil || need {
		t.Errorf("fresh position should not need relabeling: %v, %v", need, err)
	}
}

func TestDocStats(t *testing.T) {
	d := buildLibrary(t)
	st, err := d.Stats()
	if err != nil {
		t.Fatal(err)
	}
	total := st.Elements + st.Texts + st.Attributes + st.AttrRoots + st.Strings
	if total != d.Size() {
		t.Errorf("stats count %d != size %d", total, d.Size())
	}
	if st.Elements == 0 || st.Attributes == 0 || st.Strings == 0 {
		t.Errorf("node mix missing kinds: %+v", st)
	}
	if st.MaxDepth < 5 {
		t.Errorf("MaxDepth = %d", st.MaxDepth)
	}
	if st.AvgSplid() <= 0 || st.AvgSplid() > 16 {
		t.Errorf("AvgSplid = %.2f", st.AvgSplid())
	}
	if st.DocTree.Keys != d.Size() {
		t.Errorf("doc tree keys %d != size %d", st.DocTree.Keys, d.Size())
	}
	if st.ElemTree.Keys != st.Elements {
		t.Errorf("elem tree keys %d != elements %d", st.ElemTree.Keys, st.Elements)
	}
}
