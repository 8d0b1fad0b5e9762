//go:build !race

// Allocation-regression guard for the logged write path. The race detector
// changes allocation behaviour, so this runs only in the non-race suite
// (make verify runs both).

package storage

import (
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/pagestore"
	"repro/internal/xmlmodel"
)

// TestAllocLoggedSetValue pins what one warm, logged TxDoc.SetValue costs
// the allocator with no snapshot source installed: the value path's small
// copies (SPLID encodings, the old value, the record, the undo payload) and
// at most the log's pending buffer — and nothing page-sized. The capture
// recycles its pre-image buffers and entries, and the deltas go from the
// pinned frame straight into the log record, so a write that allocates a
// pre-image (8 KiB), a copy of its delta, or an encode buffer fails here.
func TestAllocLoggedSetValue(t *testing.T) {
	w := newWritePathDoc(t, 200)
	tx := w.d.ForTx(1)
	vals := [2][]byte{make([]byte, 64), make([]byte, 64)}
	vals[1][0] = 1
	i := 0
	write := func() {
		if err := tx.SetValue(w.texts[i%len(w.texts)], vals[i/len(w.texts)&1]); err != nil {
			t.Fatal(err)
		}
		i++
	}
	for i < 2*len(w.texts) { // warm: every page has its full image logged
		write()
	}

	const (
		runs      = 400
		maxAllocs = 10   // measured 9
		maxBytes  = 1024 // measured ~700
	)
	if avg := testing.AllocsPerRun(runs, write); avg > maxAllocs {
		t.Errorf("logged SetValue allocates %.1f times, want at most %d", avg, maxAllocs)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for n := 0; n < runs; n++ {
		write()
	}
	runtime.ReadMemStats(&after)
	if perOp := (after.TotalAlloc - before.TotalAlloc) / runs; perOp > maxBytes {
		t.Errorf("logged SetValue allocates %d B/op, want at most %d (a pre-image or a delta copy is %d)",
			perOp, maxBytes, 8192)
	}
}

// TestAllocReadFragmentOneSlice pins what a fragment read (reader.Subtree,
// the body of ReadFragment) allocates for a subtree that ends in the leaf it
// starts in: one label per node, one copy per string value — the range's
// bounds are built on the stack — and the result slice once, at its size,
// because the cursor says how many keys lie below the limit. A result that
// grows as it is appended to costs log2(n) allocations more and fails here,
// and so does a label that costs more than its encoded bytes and one size
// class (a division slice is 4 bytes per encoded byte).
func TestAllocReadFragmentOneSlice(t *testing.T) {
	d, err := Create(pagestore.NewMemBackend(), "bib", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	b := d.NewBuilder()
	for book := 0; book < 3; book++ {
		b.StartElement("book").Attribute("year", "2006")
		for ch := 0; ch < 12; ch++ {
			b.StartElement("chapter").Element("title", "t").Element("summary", "s").EndElement()
		}
		b.EndElement()
	}
	if err := b.Err(); err != nil {
		t.Fatal(err)
	}
	first, err := d.FirstChild(d.Root())
	if err != nil {
		t.Fatal(err)
	}
	book, err := d.NextSibling(first.ID) // the middle book: keys on both sides
	if err != nil {
		t.Fatal(err)
	}
	var got []xmlmodel.Node
	read := func() {
		if got, err = d.Subtree(book.ID); err != nil {
			t.Fatal(err)
		}
	}
	read()
	n, values, labelBytes, valueBytes := len(got), 0, 0, 0
	for _, x := range got {
		labelBytes += x.ID.EncodedLen()
		if x.Value != nil {
			values++
			valueBytes += len(x.Value)
		}
	}
	if n < 64 || !got[0].ID.Equal(book.ID) {
		t.Fatalf("fixture: %d nodes under %v, first %v", n, book.ID, got[0].ID)
	}
	if size, _ := d.SubtreeSize(book.ID); size != n {
		t.Fatalf("Subtree returned %d nodes, ScanSubtree visits %d", n, size)
	}
	if cap(got) >= 2*n {
		t.Errorf("result of %d nodes has capacity %d", n, cap(got))
	}
	if avg, want := testing.AllocsPerRun(50, read), float64(n+values+1); avg > want {
		t.Errorf("Subtree of %d nodes (%d string values) allocates %.0f times, want at most %.0f",
			n, values, avg, want)
	}
	// The result slice is charged at its size class: append rounds up to it.
	result := cap(append([]byte(nil), make([]byte, cap(got)*int(unsafe.Sizeof(got[0])))...))
	const runs, class = 50, 8
	maxBytes := uint64(result + labelBytes + valueBytes + class*(n+values))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		read()
	}
	runtime.ReadMemStats(&after)
	if perOp := (after.TotalAlloc - before.TotalAlloc) / runs; perOp > maxBytes {
		t.Errorf("Subtree of %d nodes (%d label bytes) allocates %d B/op, want at most %d", n, labelBytes, perOp, maxBytes)
	}
}
