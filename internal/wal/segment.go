package wal

// Segment storage: the log is a sequence of append-only segments addressed
// by a monotonically increasing index. The Log writes to one segment at a
// time and rotates to a fresh one when the current segment passes the
// configured size; frames never straddle a segment boundary, so each
// segment parses independently.
//
// MemSegmentStore is the test substrate: it models the OS page cache by
// distinguishing written from synced bytes, and Crash() drops everything
// unsynced — the exact data a power failure loses. FileSegmentStore is the
// real thing, one file per segment with fsync, used by cmd/xtc and the
// group-commit benchmark.

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// Segment is one open, appendable log segment.
type Segment interface {
	// Write appends p to the segment.
	Write(p []byte) (int, error)
	// Sync makes everything written so far durable.
	Sync() error
	// Close releases the segment handle.
	Close() error
}

// SegmentStore creates, lists, and reads log segments.
type SegmentStore interface {
	// Create opens a fresh segment with the given index for appending.
	Create(index uint64) (Segment, error)
	// List returns the existing segment indices in ascending order.
	List() ([]uint64, error)
	// ReadAll returns a segment's full content.
	ReadAll(index uint64) ([]byte, error)
	// Truncate cuts a segment down to size bytes (torn-tail removal).
	Truncate(index uint64, size int64) error
	// Remove unlinks a segment (checkpoint GC of fully-truncated segments).
	Remove(index uint64) error
	// WriteMaster atomically replaces the master record — the small
	// fixed-size blob that locates the latest complete checkpoint and the
	// base LSN of the oldest surviving segment. Atomic means a crash at
	// any point leaves either the old master or the new one, never a mix.
	WriteMaster(data []byte) error
	// ReadMaster returns the current master record, or (nil, nil) when no
	// master has ever been written.
	ReadMaster() ([]byte, error)
}

// MemSegmentStore is an in-memory SegmentStore with explicit durability:
// bytes become durable only at Sync, and Crash throws away the rest.
type MemSegmentStore struct {
	mu     sync.Mutex
	segs   map[uint64]*memSegment
	master []byte // replaced atomically by WriteMaster; survives Crash
}

type memSegment struct {
	buf    []byte
	synced int
}

// NewMemSegmentStore returns an empty in-memory segment store.
func NewMemSegmentStore() *MemSegmentStore {
	return &MemSegmentStore{segs: make(map[uint64]*memSegment)}
}

// Create implements SegmentStore.
func (s *MemSegmentStore) Create(index uint64) (Segment, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.segs[index]; ok {
		return nil, fmt.Errorf("wal: segment %d already exists", index)
	}
	// A log rotates at a fixed threshold and overshoots it by less than one
	// batch, so a segment ends about where its predecessor did: reserve that
	// much and a sixteenth once, instead of doubling into it.
	seg := &memSegment{}
	if prev, ok := s.segs[index-1]; ok {
		seg.buf = make([]byte, 0, len(prev.buf)+len(prev.buf)/16)
	}
	s.segs[index] = seg
	return &memSegmentWriter{store: s, index: index}, nil
}

// List implements SegmentStore.
func (s *MemSegmentStore) List() ([]uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]uint64, 0, len(s.segs))
	for i := range s.segs {
		out = append(out, i)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out, nil
}

// ReadAll implements SegmentStore.
func (s *MemSegmentStore) ReadAll(index uint64) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	seg, ok := s.segs[index]
	if !ok {
		return nil, fmt.Errorf("wal: no segment %d", index)
	}
	out := make([]byte, len(seg.buf))
	copy(out, seg.buf)
	return out, nil
}

// Truncate implements SegmentStore.
func (s *MemSegmentStore) Truncate(index uint64, size int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	seg, ok := s.segs[index]
	if !ok {
		return fmt.Errorf("wal: no segment %d", index)
	}
	if size < 0 || size > int64(len(seg.buf)) {
		return fmt.Errorf("wal: truncate segment %d to %d, have %d bytes", index, size, len(seg.buf))
	}
	seg.buf = seg.buf[:size]
	if seg.synced > int(size) {
		seg.synced = int(size)
	}
	return nil
}

// Remove implements SegmentStore.
func (s *MemSegmentStore) Remove(index uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.segs[index]; !ok {
		return fmt.Errorf("wal: no segment %d", index)
	}
	delete(s.segs, index)
	return nil
}

// WriteMaster implements SegmentStore. The in-memory analogue of
// write-temp-then-rename is a single slice swap, so the replacement is
// all-or-nothing and survives Crash (a renamed file survives power loss
// once the directory entry is durable).
func (s *MemSegmentStore) WriteMaster(data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.master = append([]byte(nil), data...)
	return nil
}

// ReadMaster implements SegmentStore.
func (s *MemSegmentStore) ReadMaster() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.master == nil {
		return nil, nil
	}
	return append([]byte(nil), s.master...), nil
}

// Crash models a power failure: every byte not yet synced is lost. The
// store remains usable — reopen it with wal.Open to recover.
func (s *MemSegmentStore) Crash() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, seg := range s.segs {
		seg.buf = seg.buf[:seg.synced]
	}
}

// Clone deep-copies the store, letting a test recover the same crashed log
// several times from identical starting bytes.
func (s *MemSegmentStore) Clone() *MemSegmentStore {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := NewMemSegmentStore()
	for i, seg := range s.segs {
		buf := make([]byte, len(seg.buf))
		copy(buf, seg.buf)
		c.segs[i] = &memSegment{buf: buf, synced: seg.synced}
	}
	if s.master != nil {
		c.master = append([]byte(nil), s.master...)
	}
	return c
}

type memSegmentWriter struct {
	store *MemSegmentStore
	index uint64
}

func (w *memSegmentWriter) seg() (*memSegment, error) {
	seg, ok := w.store.segs[w.index]
	if !ok {
		return nil, fmt.Errorf("wal: segment %d vanished", w.index)
	}
	return seg, nil
}

// Write implements Segment.
func (w *memSegmentWriter) Write(p []byte) (int, error) {
	w.store.mu.Lock()
	defer w.store.mu.Unlock()
	seg, err := w.seg()
	if err != nil {
		return 0, err
	}
	seg.buf = append(seg.buf, p...)
	return len(p), nil
}

// Sync implements Segment.
func (w *memSegmentWriter) Sync() error {
	w.store.mu.Lock()
	defer w.store.mu.Unlock()
	seg, err := w.seg()
	if err != nil {
		return err
	}
	seg.synced = len(seg.buf)
	return nil
}

// Close implements Segment.
func (w *memSegmentWriter) Close() error { return nil }

// FileSegmentStore keeps one file per segment under a directory.
type FileSegmentStore struct {
	dir string
}

// NewFileSegmentStore opens (creating if needed) a directory of segments.
func NewFileSegmentStore(dir string) (*FileSegmentStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	return &FileSegmentStore{dir: dir}, nil
}

func (s *FileSegmentStore) path(index uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("wal-%010d.seg", index))
}

// Create implements SegmentStore.
func (s *FileSegmentStore) Create(index uint64) (Segment, error) {
	f, err := os.OpenFile(s.path(index), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	return f, nil
}

// List implements SegmentStore.
func (s *FileSegmentStore) List() ([]uint64, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var out []uint64
	for _, e := range entries {
		var idx uint64
		if n, err := fmt.Sscanf(e.Name(), "wal-%010d.seg", &idx); n == 1 && err == nil {
			out = append(out, idx)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out, nil
}

// ReadAll implements SegmentStore.
func (s *FileSegmentStore) ReadAll(index uint64) ([]byte, error) {
	return os.ReadFile(s.path(index))
}

// Truncate implements SegmentStore.
func (s *FileSegmentStore) Truncate(index uint64, size int64) error {
	return os.Truncate(s.path(index), size)
}

// Remove implements SegmentStore.
func (s *FileSegmentStore) Remove(index uint64) error {
	return os.Remove(s.path(index))
}

func (s *FileSegmentStore) masterPath() string {
	return filepath.Join(s.dir, "wal-master")
}

// WriteMaster implements SegmentStore: write a temp file, fsync it, then
// rename over the real name. rename(2) is atomic within a directory, so a
// crash leaves either the old master or the complete new one.
func (s *FileSegmentStore) WriteMaster(data []byte) error {
	tmp := s.masterPath() + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("wal: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("wal: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: %w", err)
	}
	if err := os.Rename(tmp, s.masterPath()); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}

// ReadMaster implements SegmentStore.
func (s *FileSegmentStore) ReadMaster() ([]byte, error) {
	data, err := os.ReadFile(s.masterPath())
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	return data, nil
}
