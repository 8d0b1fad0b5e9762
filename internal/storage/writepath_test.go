package storage

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/pagestore"
	"repro/internal/splid"
	"repro/internal/wal"
	"repro/internal/xmlmodel"
)

// discardSegments is a wal.SegmentStore that keeps nothing: the write-path
// benchmark and alloc gate measure what a logged operation costs up to and
// including the append, not how an in-memory segment grows.
type discardSegments struct{}

func (discardSegments) Create(uint64) (wal.Segment, error) { return discardSegments{}, nil }
func (discardSegments) List() ([]uint64, error)            { return nil, nil }
func (discardSegments) ReadAll(uint64) ([]byte, error)     { return nil, nil }
func (discardSegments) Truncate(uint64, int64) error       { return nil }
func (discardSegments) Remove(uint64) error                { return nil }
func (discardSegments) WriteMaster([]byte) error           { return nil }
func (discardSegments) ReadMaster() ([]byte, error)        { return nil, nil }
func (discardSegments) Write(p []byte) (int, error)        { return len(p), nil }
func (discardSegments) Sync() error                        { return nil }
func (discardSegments) Close() error                       { return nil }

// writePathDoc is a logged document of n sections under the root, each with
// one text child of 64 bytes, on a log that discards.
type writePathDoc struct {
	d        *Document
	sections []splid.ID
	texts    []splid.ID
}

func newWritePathDoc(tb testing.TB, n int) *writePathDoc {
	tb.Helper()
	d, err := Create(pagestore.NewMemBackend(), "bib", Options{})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { d.Close() })
	w := &writePathDoc{d: d}
	alloc := d.Allocator()
	id := alloc.FirstChild(d.Root())
	for i := 0; i < n; i++ {
		if _, err := d.InsertElement(id, "section"); err != nil {
			tb.Fatal(err)
		}
		text := alloc.FirstChild(id)
		if _, err := d.InsertText(text, make([]byte, 64)); err != nil {
			tb.Fatal(err)
		}
		w.sections, w.texts = append(w.sections, id), append(w.texts, text)
		id = alloc.NextSibling(id)
	}
	log, err := wal.Open(discardSegments{}, wal.Config{})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { log.Close() })
	if err := d.AttachWAL(log); err != nil {
		tb.Fatal(err)
	}
	return w
}

// BenchmarkLoggedWrite measures one logged write operation through TxDoc —
// capture, btree mutation, diff, log append — for the three shapes the
// CLUSTER1 writers are made of: overwrite a value in place, append an
// element, delete a small subtree.
func BenchmarkLoggedWrite(b *testing.B) {
	b.Run("SetValue", func(b *testing.B) {
		w := newWritePathDoc(b, 2000)
		tx := w.d.ForTx(1)
		vals := [2][]byte{make([]byte, 64), make([]byte, 64)}
		vals[1][0] = 1
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := tx.SetValue(w.texts[i%len(w.texts)], vals[i&1]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("AppendElement", func(b *testing.B) {
		w := newWritePathDoc(b, 2000)
		tx := w.d.ForTx(1)
		alloc := w.d.Allocator()
		id := alloc.NextSibling(w.sections[len(w.sections)-1])
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := tx.InsertElement(id, "section"); err != nil {
				b.Fatal(err)
			}
			id = alloc.NextSibling(id)
		}
	})
	b.Run("DeleteSubtree", func(b *testing.B) {
		w := newWritePathDoc(b, b.N)
		tx := w.d.ForTx(1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if n, err := tx.DeleteSubtree(w.sections[i]); err != nil || n != 3 {
				b.Fatalf("DeleteSubtree = %d, %v; want the section, its text and the string node", n, err)
			}
		}
	})
}

// TestReadsDuringCapturesSmallPool is the storage-level form of the pin
// defect (pagestore.TestCapturePinsOnlyDeclaredPages): a writer looping
// SetAttribute keeps a capture open most of the time while a reader does
// point lookups over a document twenty times the 64-frame pool. When every
// page fixed during a capture stayed pinned until it closed, the reader's
// misses ran the pool out of frames within a tenth of a second. The reader
// leaves its cursors every way there is — scans run to the end, callbacks
// that stop early, lookups that fail — and none may leave a pin behind: a
// cursor holds one, and 64 frames do not forgive a leak for long.
func TestReadsDuringCapturesSmallPool(t *testing.T) {
	const (
		frames  = 64
		persons = 6000 // x ~2 KiB each: upwards of 20 x frames pages
	)
	backend := pagestore.NewMemBackend()
	d, err := Create(backend, "bib", Options{Config: pagestore.Config{BufferFrames: frames}})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	b := d.NewBuilder()
	filler := string(make([]byte, 1800))
	for i := 0; i < persons; i++ {
		b.StartElement("person").Attribute(IDAttrName, fmt.Sprintf("p%d", i)).Text(filler).EndElement()
	}
	if err := b.Err(); err != nil {
		t.Fatal(err)
	}
	if n := backend.NumPages(); n < 20*frames {
		t.Fatalf("document has %d pages, want at least %d", n, 20*frames)
	}
	// Small segments, and a checkpoint every few hundred writes, keep the
	// in-memory log from growing by a full page image per write.
	log, err := wal.Open(wal.NewMemSegmentStore(), wal.Config{SegmentSize: 64 << 10, Retain: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	if err := d.AttachWAL(log); err != nil {
		t.Fatal(err)
	}

	dur := 2 * time.Second
	if testing.Short() {
		dur = 300 * time.Millisecond
	}
	deadline := time.Now().Add(dur)
	person := func(rng *rand.Rand) (splid.ID, error) {
		return d.ElementByID([]byte(fmt.Sprintf("p%d", rng.Intn(persons))))
	}
	var wg sync.WaitGroup
	var writes, reads int
	wg.Add(2)
	go func() { // writer
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		for ; time.Now().Before(deadline); writes++ {
			el, err := person(rng)
			if err == nil {
				_, err = d.ForTx(SystemTxn).SetAttribute(el, "rev", []byte(fmt.Sprint(writes)))
			}
			if err == nil && writes%256 == 255 {
				_, err = d.Checkpoint()
			}
			if err != nil {
				t.Errorf("write %d: %v", writes, err)
				return
			}
		}
	}()
	go func() { // reader: JumpToID, then one read primitive — run out, stopped early, or failing
		defer wg.Done()
		rng := rand.New(rand.NewSource(2))
		for ; time.Now().Before(deadline); reads++ {
			el, err := person(rng)
			if err == nil {
				err = readOneWay(d, el, reads)
			}
			if err != nil {
				t.Errorf("read %d: %v", reads, err)
				return
			}
		}
	}()
	wg.Wait()
	if writes == 0 || reads == 0 {
		t.Errorf("%d writes and %d reads: the two sides did not overlap", writes, reads)
	}
	if n := d.Store().PinnedFrames(); n != 0 {
		t.Errorf("%d frames still pinned after the run", n)
	}
	if err := d.Verify(); err != nil {
		t.Error(err)
	}
}

// readOneWay reads person el by the i-th of the ways a cursor can be left.
func readOneWay(d *Document, el splid.ID, i int) error {
	seen := 0
	stopAtFirst := func(xmlmodel.Node) bool { seen++; return false }
	switch i % 6 {
	case 0: // a scan run to its end
		if err := d.Attributes(el, func(xmlmodel.Node) bool { seen++; return true }); err != nil || seen == 0 {
			return fmt.Errorf("person %v: %d attributes, %v", el, seen, err)
		}
	case 1: // callbacks that stop the scan at the first node
		for _, scan := range []func(splid.ID, func(xmlmodel.Node) bool) error{d.Attributes, d.ScanChildren, d.ScanSubtree} {
			if err := scan(el, stopAtFirst); err != nil {
				return err
			}
		}
		if seen != 3 {
			return fmt.Errorf("person %v: early-stopping scans saw %d nodes, want 3", el, seen)
		}
	case 2: // lookups that fail: a missing node, a node without a value
		if _, err := d.GetNode(el.Child(99999)); !errors.Is(err, ErrNodeNotFound) {
			return fmt.Errorf("GetNode of a missing child: %v", err)
		}
		if _, err := d.Value(el); err == nil {
			return fmt.Errorf("Value of element %v did not fail", el)
		}
		if ids, found, err := d.ChildIDs(el.Child(99999)); err != nil || found || len(ids) != 0 {
			return fmt.Errorf("ChildIDs of a missing child: %v, %v, %v", ids, found, err)
		}
	case 3: // two positions on one cursor: the text node and its 1800-byte string, often a leaf apart
		text, err := d.LastChild(el)
		if err != nil {
			return err
		}
		if v, err := d.Value(text.ID); err != nil || len(v) != 1800 {
			return fmt.Errorf("text of %v: %d bytes, %v", el, len(v), err)
		}
	case 4:
		if a, err := d.AttributeByName(el, IDAttrName); err != nil || a.ID.IsNull() {
			return fmt.Errorf("person %v: id attribute %v, %v", el, a.ID, err)
		}
	default:
		if _, err := d.NextSibling(el); err != nil {
			return err
		}
		if _, err := d.PrevSibling(el); err != nil {
			return err
		}
	}
	return nil
}
