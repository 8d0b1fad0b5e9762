package pagestore

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
)

// TestFileReadOfTruncatedPageIsAnError cuts the file under a live backend:
// the pages past the new end still pass the bounds check, so the read touches
// the mapping where no file backs it (SIGBUS on unix). That read, and a read
// after Close, must come back as errors, and the process must survive both.
//
// Mutant (run by hand): ReadPage without debug.SetPanicOnFault crashes the
// test binary at the first read past the cut.
func TestFileReadOfTruncatedPageIsAnError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	fb, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PageSize)
	for id := PageID(0); id < 8; id++ {
		if _, err := fb.Allocate(); err != nil {
			t.Fatal(err)
		}
		stampPage(buf, id, 1)
		if err := fb.WritePage(id, buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Truncate(path, 2*PageSize); err != nil {
		t.Fatal(err)
	}
	for id := PageID(0); id < 8; id++ {
		err := fb.ReadPage(id, buf)
		switch {
		case id < 2 && err != nil:
			t.Errorf("page %d, below the cut: %v", id, err)
		case id >= 2 && err == nil:
			t.Errorf("page %d, past the cut: read succeeded", id)
		case id >= 2 && errors.Is(err, ErrPageOutOfRange):
			t.Errorf("page %d, past the cut: %v; want the fault, not the bounds check", id, err)
		}
	}
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fb.ReadPage(0, buf); err == nil {
		t.Error("read after Close succeeded")
	}
}

// TestFileGrowthAndCoherence allocates from an empty file through at least
// three remaps while readers read the newest pages and the whole range below
// NumPages; no read may fail. Every write is read back at once through the
// mapping. Run it under -race.
//
// Mutant (run by hand): Allocate raising the page count before it publishes
// the bigger mapping fails the readers of the newest page (19 of 20 runs).
func TestFileGrowthAndCoherence(t *testing.T) {
	for r := 0; r < 16; r++ {
		growAndRead(t, r)
	}
}

// growAndRead is one round of TestFileGrowthAndCoherence on a fresh file.
func growAndRead(t *testing.T, round int) {
	fb, err := OpenFile(filepath.Join(t.TempDir(), "pages.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()
	var stop atomic.Bool
	var wg sync.WaitGroup
	var errs [2]error
	read := func(e *error, next func(n PageID, i int) PageID) {
		defer wg.Done()
		buf := make([]byte, PageSize)
		for i := 0; !stop.Load(); i++ {
			if n := fb.NumPages(); n > 0 {
				if *e = fb.ReadPage(next(n, i), buf); *e != nil {
					return
				}
			}
		}
	}
	wg.Add(2)
	go read(&errs[0], func(n PageID, _ int) PageID { return n - 1 })
	go read(&errs[1], func(n PageID, i int) PageID { return PageID(i) % n })
	defer func() {
		stop.Store(true)
		wg.Wait()
		if err := errors.Join(errs[:]...); err != nil {
			t.Errorf("round %d: concurrent read during growth: %v", round, err)
		}
	}()

	remaps, last := 0, len(*fb.view.Load())
	buf, got := make([]byte, PageSize), make([]byte, PageSize)
	for remaps < 3 {
		id, err := fb.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		if l := len(*fb.view.Load()); l != last {
			remaps, last = remaps+1, l
		}
		for v := uint32(1); v <= 2; v++ {
			stampPage(buf, id, v)
			if err := fb.WritePage(id, buf); err != nil {
				t.Fatal(err)
			}
			if err := fb.ReadPage(id, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, buf) {
				t.Fatalf("page %d: the mapping does not show write %d", id, v)
			}
		}
	}
}
