package pagestore

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func backends(t *testing.T) map[string]Backend {
	t.Helper()
	fb, err := OpenFile(filepath.Join(t.TempDir(), "pages.db"))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Backend{"mem": NewMemBackend(), "file": fb}
}

func TestBackendReadWrite(t *testing.T) {
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			defer b.Close()
			id1, err := b.Allocate()
			if err != nil {
				t.Fatal(err)
			}
			id2, err := b.Allocate()
			if err != nil {
				t.Fatal(err)
			}
			if id1 == id2 {
				t.Fatal("Allocate returned duplicate IDs")
			}
			if b.NumPages() != 2 {
				t.Fatalf("NumPages = %d", b.NumPages())
			}
			buf := make([]byte, PageSize)
			for i := range buf {
				buf[i] = byte(i)
			}
			if err := b.WritePage(id2, buf); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, PageSize)
			if err := b.ReadPage(id2, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf, got) {
				t.Error("read back mismatch")
			}
			// Fresh pages are zeroed.
			if err := b.ReadPage(id1, got); err != nil {
				t.Fatal(err)
			}
			for _, x := range got {
				if x != 0 {
					t.Fatal("fresh page not zeroed")
				}
			}
			// Out of range.
			if err := b.ReadPage(99, got); !errors.Is(err, ErrPageOutOfRange) {
				t.Errorf("read out of range: %v", err)
			}
			if err := b.WritePage(99, got); !errors.Is(err, ErrPageOutOfRange) {
				t.Errorf("write out of range: %v", err)
			}
		})
	}
}

func TestFilePersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	fb, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	id, _ := fb.Allocate()
	buf := make([]byte, PageSize)
	copy(buf, "persisted")
	if err := fb.WritePage(id, buf); err != nil {
		t.Fatal(err)
	}
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}
	fb2, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fb2.Close()
	if fb2.NumPages() != 1 {
		t.Fatalf("NumPages after reopen = %d", fb2.NumPages())
	}
	got := make([]byte, PageSize)
	if err := fb2.ReadPage(id, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(got, []byte("persisted")) {
		t.Error("content lost across reopen")
	}
}

func TestBufferFixUnfix(t *testing.T) {
	s := Open(NewMemBackend(), 4)
	defer s.Close()
	f, err := s.FixNew()
	if err != nil {
		t.Fatal(err)
	}
	copy(f.Data(), "hello")
	f.MarkDirty()
	id := f.ID()
	s.Unfix(f)

	f2, err := s.Fix(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(f2.Data(), []byte("hello")) {
		t.Error("buffered content lost")
	}
	s.Unfix(f2)
	st := s.Stats()
	if st.Hits != 1 {
		t.Errorf("hits = %d, want 1", st.Hits)
	}
}

func TestBufferEvictionWritesBack(t *testing.T) {
	atSizes(t, bufferEvictionWritesBack, 2, DefaultFrames)
}

// bufferEvictionWritesBack writes twice as many pages as a pool of frames
// frames holds through it, then reads them all back.
func bufferEvictionWritesBack(t *testing.T, frames int) {
	mb := NewMemBackend()
	s := Open(mb, frames)
	var ids []PageID
	for i := 0; i < 2*frames; i++ {
		f, err := s.FixNew()
		if err != nil {
			t.Fatal(err)
		}
		f.Data()[0] = byte(i + 1)
		f.MarkDirty()
		ids = append(ids, f.ID())
		s.Unfix(f)
	}
	// The pool held twice what it can: at least frames evictions with
	// write-back.
	st := s.Stats()
	if st.Evictions < uint64(frames) || st.Writebacks < uint64(frames) {
		t.Errorf("stats = %+v, want >=%d evictions and writebacks", st, frames)
	}
	// All pages readable with correct content, whether buffered or not.
	for i, id := range ids {
		f, err := s.Fix(id)
		if err != nil {
			t.Fatal(err)
		}
		if f.Data()[0] != byte(i+1) {
			t.Errorf("page %d content %d, want %d", id, f.Data()[0], byte(i+1))
		}
		s.Unfix(f)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBufferAllPinned fills the pool with pinned pages, at 2 frames and at
// DefaultFrames: ErrNoFrames means the whole pool is pinned, at every size.
func TestBufferAllPinned(t *testing.T) { atSizes(t, bufferAllPinned, 2, DefaultFrames) }

// bufferAllPinned pins frames fresh pages in a pool of frames frames: the
// next FixNew finds no frame until one of them is unpinned.
func bufferAllPinned(t *testing.T, frames int) {
	s := Open(NewMemBackend(), frames)
	defer s.Close()
	pinned := make([]*Frame, frames)
	for i := range pinned {
		f, err := s.FixNew()
		if err != nil {
			t.Fatalf("FixNew %d of %d: %v", i+1, frames, err)
		}
		pinned[i] = f
	}
	if _, err := s.FixNew(); !errors.Is(err, ErrNoFrames) {
		t.Errorf("expected ErrNoFrames, got %v", err)
	}
	s.Unfix(pinned[frames-1])
	f, err := s.FixNew()
	if err != nil {
		t.Fatalf("after Unfix, FixNew should succeed: %v", err)
	}
	s.Unfix(f)
	for _, f := range pinned[:frames-1] {
		s.Unfix(f)
	}
}

func TestBufferDoublePin(t *testing.T) {
	s := Open(NewMemBackend(), 2)
	defer s.Close()
	f, _ := s.FixNew()
	id := f.ID()
	f2, err := s.Fix(id)
	if err != nil {
		t.Fatal(err)
	}
	if f != f2 {
		t.Error("same page must map to the same frame")
	}
	if s.PinnedFrames() != 1 {
		t.Errorf("PinnedFrames = %d", s.PinnedFrames())
	}
	s.Unfix(f)
	if s.PinnedFrames() != 1 {
		t.Error("frame must stay pinned until both Unfix calls")
	}
	s.Unfix(f2)
	if s.PinnedFrames() != 0 {
		t.Error("frame should be unpinned")
	}
}

func TestUnfixPanicsWithoutFix(t *testing.T) {
	s := Open(NewMemBackend(), 2)
	defer s.Close()
	f, _ := s.FixNew()
	s.Unfix(f)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on unbalanced Unfix")
		}
	}()
	s.Unfix(f)
}

func TestFlushPersists(t *testing.T) {
	mb := NewMemBackend()
	s := Open(mb, 8)
	f, _ := s.FixNew()
	copy(f.Data(), "flushed")
	f.MarkDirty()
	id := f.ID()
	s.Unfix(f)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, PageSize)
	if err := mb.ReadPage(id, raw); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(raw, []byte("flushed")) {
		t.Error("Flush did not reach the backend")
	}
}

func TestBufferConcurrentAccess(t *testing.T) {
	s := Open(NewMemBackend(), 16)
	defer s.Close()
	const pages = 64
	ids := make([]PageID, pages)
	for i := range ids {
		f, err := s.FixNew()
		if err != nil {
			t.Fatal(err)
		}
		f.Data()[0] = byte(i)
		f.MarkDirty()
		ids[i] = f.ID()
		s.Unfix(f)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 500; i++ {
				n := rng.Intn(pages)
				f, err := s.Fix(ids[n])
				if err != nil {
					t.Error(err)
					return
				}
				if f.Data()[0] != byte(n) {
					t.Errorf("page %d holds %d", n, f.Data()[0])
					s.Unfix(f)
					return
				}
				s.Unfix(f)
			}
		}(int64(w))
	}
	wg.Wait()
	if s.PinnedFrames() != 0 {
		t.Errorf("pin leak: %d frames pinned", s.PinnedFrames())
	}
}

func TestOpenFileBadSize(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.db")
	fb, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fb.Close()
	// Corrupt the size.
	if err := writeJunk(path); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(path); err == nil {
		t.Error("expected error for non-multiple file size")
	}
}

func writeJunk(path string) error {
	return os.WriteFile(path, []byte("junk"), 0o644)
}
