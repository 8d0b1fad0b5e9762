// Package pagestore provides the disk substrate of the XDBMS: fixed-size
// pages on a backing store (file or memory) behind a pinning buffer manager
// with CLOCK replacement. The document container and all B*-tree indexes of
// Section 3 live on these pages; the paper's observation that most upper
// index layers stay buffer-resident ("reference locality ... reducing disk
// accesses to a minimum") is what the buffer manager reproduces.
package pagestore

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// PageSize is the size of every page in bytes.
const PageSize = 8192

// PageID identifies a page within a backend. Page 0 is valid and usually
// holds store metadata.
type PageID uint32

// InvalidPage is a sentinel PageID that no backend ever allocates.
const InvalidPage = PageID(^uint32(0))

// Backend is the raw page I/O interface under the buffer manager.
// Implementations must be safe for concurrent use.
type Backend interface {
	// ReadPage fills buf (len PageSize) with the page's content.
	ReadPage(id PageID, buf []byte) error
	// WritePage persists buf (len PageSize) as the page's content.
	WritePage(id PageID, buf []byte) error
	// Allocate reserves a fresh zeroed page and returns its ID.
	Allocate() (PageID, error)
	// NumPages returns the number of allocated pages.
	NumPages() PageID
	// Sync flushes backend buffers to stable storage.
	Sync() error
	// Close releases backend resources.
	Close() error
}

// ErrPageOutOfRange is returned when accessing an unallocated page.
var ErrPageOutOfRange = errors.New("pagestore: page out of range")

// MemBackend keeps pages in memory. SimulatedLatency, when non-zero, is
// spent on every page read and write to approximate disk behavior in
// benchmarks without real I/O (see DESIGN.md, substitutions).
type MemBackend struct {
	mu               sync.RWMutex
	pages            [][]byte
	SimulatedLatency time.Duration
}

// NewMemBackend returns an empty in-memory backend.
func NewMemBackend() *MemBackend { return &MemBackend{} }

// Clone returns a deep copy of the backend's pages. The crash-recovery
// benchmarks and the parallel-vs-serial redo oracle recover the same crash
// image repeatedly; cloning keeps each run independent.
func (m *MemBackend) Clone() *MemBackend {
	m.mu.RLock()
	defer m.mu.RUnlock()
	c := &MemBackend{
		pages:            make([][]byte, len(m.pages)),
		SimulatedLatency: m.SimulatedLatency,
	}
	for i, p := range m.pages {
		c.pages[i] = append([]byte(nil), p...)
	}
	return c
}

// simulateIO spends SimulatedLatency as device time. Sub-millisecond
// latencies busy-wait: time.Sleep rounds short sleeps up to scheduler
// granularity (a millisecond or more), which would turn a simulated 20µs
// seek into a 1ms one and swamp any benchmark built on it.
func (m *MemBackend) simulateIO() {
	d := m.SimulatedLatency
	if d <= 0 {
		return
	}
	if d >= time.Millisecond {
		time.Sleep(d)
		return
	}
	end := time.Now().Add(d)
	for time.Now().Before(end) {
	}
}

// ReadPage implements Backend.
func (m *MemBackend) ReadPage(id PageID, buf []byte) error {
	m.simulateIO()
	m.mu.RLock()
	defer m.mu.RUnlock()
	if int(id) >= len(m.pages) {
		return fmt.Errorf("%w: read %d of %d", ErrPageOutOfRange, id, len(m.pages))
	}
	copy(buf, m.pages[id])
	return nil
}

// WritePage implements Backend.
func (m *MemBackend) WritePage(id PageID, buf []byte) error {
	m.simulateIO()
	m.mu.Lock()
	defer m.mu.Unlock()
	if int(id) >= len(m.pages) {
		return fmt.Errorf("%w: write %d of %d", ErrPageOutOfRange, id, len(m.pages))
	}
	copy(m.pages[id], buf)
	return nil
}

// Allocate implements Backend.
func (m *MemBackend) Allocate() (PageID, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.pages) >= int(InvalidPage) {
		return InvalidPage, errors.New("pagestore: memory backend full")
	}
	m.pages = append(m.pages, make([]byte, PageSize))
	return PageID(len(m.pages) - 1), nil
}

// NumPages implements Backend.
func (m *MemBackend) NumPages() PageID {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return PageID(len(m.pages))
}

// Sync implements Backend.
func (m *MemBackend) Sync() error { return nil }

// Close implements Backend.
func (m *MemBackend) Close() error { return nil }

// FileBackend stores pages in a single OS file at offset id*PageSize. A read
// copies the page out of a read-only shared mapping of the file (mmap_unix.go;
// pread where the platform has no mmap); a write, Allocate's zero-extension
// and Sync go through pwrite and fsync, so durability, the WAL rule's write
// order and write errors stay the file's own.
type FileBackend struct {
	mu sync.Mutex // serializes Allocate and Close
	f  *os.File
	// pages is the page count, read without mu: a read or write of a page
	// below it needs no lock, so concurrent misses share no line here.
	pages atomic.Uint32
	// view is the current mapping, nil after Close. It covers every page
	// below pages: Allocate publishes a bigger one before it raises pages.
	view atomic.Pointer[[]byte]
	// old holds the outgrown mappings, unmapped at Close: a reader may still
	// be copying out of one.
	old [][]byte
}

// minMapping is the smallest mapping, so an empty file maps too.
const minMapping = 64 * PageSize

// errClosed is a read after Close.
var errClosed = errors.New("pagestore: file backend closed")

// OpenFile opens (creating if necessary) a file backend at path. An existing
// file must have a size that is a multiple of PageSize.
func OpenFile(path string) (*FileBackend, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("pagestore: open %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("pagestore: stat %s: %w", path, err)
	}
	if st.Size()%PageSize != 0 {
		f.Close()
		return nil, fmt.Errorf("pagestore: %s has size %d, not a multiple of %d", path, st.Size(), PageSize)
	}
	b := &FileBackend{f: f}
	if err := b.remap(st.Size()); err != nil {
		f.Close()
		return nil, err
	}
	b.pages.Store(uint32(st.Size() / PageSize))
	return b, nil
}

// remap maps at least twice size bytes of the file and publishes the
// mapping; the one it replaces stays mapped until Close. The caller holds mu
// or owns b.
func (b *FileBackend) remap(size int64) error {
	m, err := mapFile(b.f, int(max(2*size, minMapping)))
	if err != nil {
		return fmt.Errorf("pagestore: map %s: %w", b.f.Name(), err)
	}
	if cur := b.view.Load(); cur != nil {
		b.old = append(b.old, *cur)
	}
	b.view.Store(&m)
	return nil
}

// readable returns the mapping to read page id from. The page count is read
// before the mapping, so the mapping covers the page; the check that it does
// is the ordering's witness.
func (b *FileBackend) readable(id PageID) ([]byte, error) {
	n := PageID(b.pages.Load())
	if id >= n {
		return nil, fmt.Errorf("%w: read %d of %d", ErrPageOutOfRange, id, n)
	}
	v := b.view.Load()
	switch {
	case v == nil:
		return nil, errClosed
	case canMap && int64(id+1)*PageSize > int64(len(*v)):
		return nil, fmt.Errorf("pagestore: read page %d: beyond the %d-byte mapping", id, len(*v))
	}
	return *v, nil
}

// WritePage implements Backend.
func (b *FileBackend) WritePage(id PageID, buf []byte) error {
	n := PageID(b.pages.Load())
	if id >= n {
		return fmt.Errorf("%w: write %d of %d", ErrPageOutOfRange, id, n)
	}
	if _, err := b.f.WriteAt(buf[:PageSize], int64(id)*PageSize); err != nil {
		return fmt.Errorf("pagestore: write page %d: %w", id, err)
	}
	return nil
}

// Allocate implements Backend: it extends the file by a zeroed page, maps a
// bigger region first if the page lies beyond the mapping, and only then
// raises the page count readers check against.
func (b *FileBackend) Allocate() (PageID, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	id := PageID(b.pages.Load())
	var zero [PageSize]byte
	if _, err := b.f.WriteAt(zero[:], int64(id)*PageSize); err != nil {
		return InvalidPage, fmt.Errorf("pagestore: extend to page %d: %w", id, err)
	}
	// The write above fails after Close, so the mapping is there.
	if end := int64(id+1) * PageSize; canMap && end > int64(len(*b.view.Load())) {
		if err := b.remap(end); err != nil {
			return InvalidPage, err
		}
	}
	b.pages.Add(1)
	return id, nil
}

// NumPages implements Backend.
func (b *FileBackend) NumPages() PageID { return PageID(b.pages.Load()) }

// Sync implements Backend.
func (b *FileBackend) Sync() error { return b.f.Sync() }

// Close implements Backend: it unmaps every mapping and closes the file. No
// read may run concurrently with it.
func (b *FileBackend) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	var errs []error
	if v := b.view.Swap(nil); v != nil {
		for _, m := range append(b.old, *v) {
			errs = append(errs, unmapFile(m))
		}
	}
	b.old = nil
	return errors.Join(append(errs, b.f.Close())...)
}
