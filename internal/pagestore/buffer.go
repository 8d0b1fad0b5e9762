package pagestore

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/spin"
)

// Stats aggregates buffer-manager counters. Values are monotonically
// increasing and may be read concurrently with operation.
type Stats struct {
	// Hits counts Fix calls satisfied from the buffer.
	Hits uint64
	// Misses counts Fix calls that had to read the backend.
	Misses uint64
	// Evictions counts frames recycled for another page.
	Evictions uint64
	// Writebacks counts dirty pages written to the backend.
	Writebacks uint64
	// Retries counts backend re-attempts after transient failures.
	Retries uint64
	// RetryFailures counts operations whose transient failures outlived the
	// retry budget and were escalated to permanent.
	RetryFailures uint64
	// FlusherWrites counts dirty pages trickled out by the background
	// flusher.
	FlusherWrites uint64
	// FlusherErrors counts background write-backs that failed; the frame
	// stays dirty and is retried on a later pass (or at eviction).
	FlusherErrors uint64
}

// frameState is the I/O state of a frame: the high half of Frame.word.
// Transitions out of the in-flight states (loading, writing) are made under
// Frame.mu and broadcast Frame.cond.
type frameState uint32

const (
	// frameFree: the frame is not mapped to any page (new, or recycled after
	// a failed load and parked on the pool's free list).
	frameFree frameState = iota
	// frameLoading: a Fix miss owns the frame and is reading its page from
	// the backend. Nobody may pin it; Fixers of the page wait on cond.
	frameLoading
	// frameResident: data holds the page image; the frame may be pinned.
	frameResident
	// frameWriting: an evictor, the background flusher, or Flush claimed
	// the frame and is writing its image to the backend. Nobody may pin
	// it; Fixers of the page wait on cond.
	frameWriting
)

// pinMask selects the pin count, the low half of Frame.word.
const pinMask = 1<<32 - 1

// frameWord packs a state and a pin count into one Frame.word value.
func frameWord(st frameState, pins uint32) uint64 { return uint64(st)<<32 | uint64(pins) }

// Frame is a pinned buffer slot holding one page. It stays valid (and its
// page stays in memory) until Unfix is called; a frame must not be used
// afterwards.
type Frame struct {
	// word is the frame's state and pin count in one atomic word, so a pin
	// and a claim exclude each other by CAS alone: a pin succeeds only on a
	// resident frame (pin), and the evictor and the flusher claim only a
	// resident frame with no pins (claim). Nobody pins an in-flight frame.
	word atomic.Uint64
	// hits counts Fix hits on this frame; the pool's counters sum it. It
	// shares word's cache line, which every hit writes anyway.
	hits atomic.Uint64
	// ref is the CLOCK second-chance bit: set by a Fix when clear, cleared
	// by the sweep.
	ref atomic.Bool
	// The pad keeps the fields below, which a pin holder reads, off the
	// line the other cores' pins keep taking away.
	_ [64 - 20]byte

	// id is the page held. Remapped only under Store.mu write-locked while
	// the frame is claimed or free; stable while the frame is pinned (a
	// pinner reads it after its CAS) or while Store.mu is held.
	id    PageID
	store *Store
	data  []byte

	// dirty marks content that must reach the backend before the frame is
	// recycled.
	dirty atomic.Bool
	// recLSN is the LSN of the first log record that dirtied the page since
	// it last went clean (0 = clean, or dirt that predates the WAL epoch).
	// It is the page's dirty-page-table entry: a fuzzy checkpoint's redo
	// scan must start at or before the minimum recLSN of all dirty frames.
	// Set once per dirty epoch by Capture.Commit, cleared by markClean.
	recLSN atomic.Uint64
	// imaged records that a full body image of the page was logged since it
	// last went clean. Cleared on every clean transition so the first delta
	// after re-dirtying is upgraded to a full image again — the invariant
	// that keeps every torn page healable from the post-redo-LSN log suffix
	// even after WAL segments below it are garbage-collected.
	imaged atomic.Bool
	// influx is up while the page is declared for writing in the active
	// capture: its bytes (the pageLSN stamp included) may change until the
	// capture closes. Snapshot readers (FixAt) divert to the version chain
	// instead of reading the live bytes; the Store(false) at capture close
	// releases the stamp to their Load. Raised by Capture.declare, which also
	// pins the frame for the capture, so the frame cannot be remapped while
	// the flag is up.
	influx atomic.Bool

	// mu and cond let Fixers sleep through a frame's I/O (awaitIO).
	mu   sync.Mutex
	cond *sync.Cond
}

func (f *Frame) state() frameState { return frameState(f.word.Load() >> 32) }

func (f *Frame) pins() uint32 { return uint32(f.word.Load()) }

// pin adds one pin by a CAS that succeeds only on a resident frame, sleeping
// through I/O in flight. It reports false when the frame was unmapped
// meanwhile. The frame may have been remapped between the caller's table
// read and the CAS: the caller checks f.id once it holds the pin.
func (f *Frame) pin() bool {
	for {
		w := f.word.Load()
		switch frameState(w >> 32) {
		case frameResident:
			if f.word.CompareAndSwap(w, w+1) {
				return true
			}
		case frameFree:
			return false
		default:
			f.awaitIO()
		}
	}
}

// pinResident adds one pin only if the frame is resident now: it never
// waits for I/O.
func (f *Frame) pinResident() bool {
	for {
		w := f.word.Load()
		if frameState(w>>32) != frameResident {
			return false
		}
		if f.word.CompareAndSwap(w, w+1) {
			return true
		}
	}
}

// hit records a pin of a resident page: the CLOCK bit, stored only when it
// is clear, and the frame's hit count.
func (f *Frame) hit() {
	if !f.ref.Load() {
		f.ref.Store(true)
	}
	f.hits.Add(1)
}

// unpin drops one pin; false when the frame holds none.
func (f *Frame) unpin() bool {
	for {
		w := f.word.Load()
		if w&pinMask == 0 {
			return false
		}
		if f.word.CompareAndSwap(w, w-1) {
			return true
		}
	}
}

// claim moves a resident frame with no pins to frameWriting for the evictor
// or the flusher: one CAS from (resident, 0 pins), so a pin that lands
// first makes it fail and no pin can land after it.
func (f *Frame) claim() bool {
	return f.word.CompareAndSwap(frameWord(frameResident, 0), frameWord(frameWriting, 0))
}

// awaitIO sleeps until the frame leaves the in-flight states.
func (f *Frame) awaitIO() {
	f.mu.Lock()
	for st := f.state(); st == frameLoading || st == frameWriting; st = f.state() {
		f.cond.Wait()
	}
	f.mu.Unlock()
}

// settle ends the frame's I/O: it moves the frame to st, keeping its pins
// (only Flush claims a pinned frame, and those pins may drop meanwhile), and
// wakes the Fixers sleeping on it.
func (f *Frame) settle(st frameState) {
	f.mu.Lock()
	for w := f.word.Load(); !f.word.CompareAndSwap(w, frameWord(st, uint32(w))); w = f.word.Load() {
	}
	f.cond.Broadcast()
	f.mu.Unlock()
}

// ID returns the page ID held by the frame.
func (f *Frame) ID() PageID { return f.id }

// Data returns the page bytes. Mutating them requires holding the pin and
// having called MarkDirty first: declare before you write.
func (f *Frame) Data() []byte { return f.data }

// MarkDirty declares the intent to write the page: call it while holding
// the pin and before changing the first byte. It records that the page must
// be written back before eviction, and while a capture is active it is the
// moment the page's pre-image is taken — a byte changed before the
// declaration is a change the log never sees. Declaring and then changing
// nothing is harmless.
func (f *Frame) MarkDirty() {
	f.dirty.Store(true)
	if c := &f.store.capture; c.active.Load() && !f.influx.Load() {
		c.declare(f, false)
	}
}

// markClean ends a dirty epoch after a successful write-back (or remap):
// the dirty-page-table entry and the full-image flag reset together, so the
// next dirtying starts a fresh epoch with a fresh full-image anchor. Called
// only while the frame is claimed (frameWriting, pins 0) or freshly mapped,
// so no capture can be stamping it concurrently.
func (f *Frame) markClean() {
	f.dirty.Store(false)
	f.recLSN.Store(0)
	f.imaged.Store(false)
}

// Store is the buffer manager: a fixed pool of page frames over a Backend,
// found through one lock-free page table, with CLOCK replacement of unpinned
// frames.
type Store struct {
	// table is what every Fix reads; the pad keeps the fields below, which
	// misses and captures write, off its cache lines.
	table pageTable
	_     [64]byte

	backend Backend
	cap     int

	// mu is the miss latch. Fix hits never take it. The miss path holds it
	// for the CLOCK sweep and the page-table surgery — never across backend
	// I/O or WAL forces; the walkers (flush, trickle, dirty-page table,
	// counters) read the frames under it shared.
	mu     sync.RWMutex
	frames []*Frame // every frame allocated, at most cap
	free   []*Frame // unmapped frames (recycled after failed loads)
	hand   int      // CLOCK hand over frames
	// misses counts Fix misses; Stats and the buffer.* counters sum it with
	// the frames' hit counts.
	misses atomic.Uint64

	wal     atomic.Pointer[walRef]
	capture Capture // the one reusable capture session (capture.go)

	// captureFloor is the LSN floor published by the active capture: no
	// record the capture will log has an LSN below it. DirtyPageTable reads
	// it BEFORE scanning frames, so a page whose Commit stamp is still in
	// flight is covered by the floor instead of its (unset) recLSN. Zero
	// means no capture is active.
	captureFloor atomic.Uint64

	// checkpointer is the callback the background flusher invokes every
	// Config.CheckpointInterval (installed via SetCheckpointer, typically by
	// storage.Document.AttachWAL). Nil until installed.
	checkpointer atomic.Pointer[func() error]

	// Version sidecar (versions.go): retained pre-images serving MVCC
	// snapshot readers. snapSrc is the oldest-active-snapshot watermark
	// callback; version publication is off until one is installed.
	snapSrc  atomic.Pointer[func() uint64]
	verMu    sync.Mutex
	versions map[PageID][]*pageVersion
	// fixAtParked is a test seam: when set, FixAt calls it between giving up
	// on the live frame and consulting the version chain.
	fixAtParked func()
	// claimParked is a test seam: when set, the CLOCK sweep calls it between
	// picking a victim and claiming it, holding the miss latch.
	claimParked func()

	flusherStop chan struct{}
	flusherWG   sync.WaitGroup
	flusherOnce sync.Once

	evictions, writebacks, retries, retryFailures atomic.Uint64
	flusherWrites, flusherErrors                  atomic.Uint64

	// reg is Config.Metrics. Latency histograms (nil without it): miss-path
	// load latency (backend read + checksum + retries) and write-back latency
	// (WAL force + checksum stamp + backend write + retries).
	reg        *metrics.Registry
	hFixMiss   *metrics.Histogram
	hWriteback *metrics.Histogram
}

// LogSyncer is the write-ahead log hook the WAL rule needs: FlushTo blocks
// until the log is durable up to lsn (and fails once the log is dead, which
// stops all further write-backs — after a log crash nothing unlogged may
// reach the backend). The wal package's Log satisfies it; the indirection
// keeps pagestore free of a wal import.
type LogSyncer interface {
	FlushTo(lsn uint64) error
}

// walRef boxes the LogSyncer so the attached log can be swapped and read
// without a lock.
type walRef struct{ ls LogSyncer }

// SetWAL attaches a write-ahead log. From then on every dirty-page
// write-back first forces the log up to the page's LSN (the WAL rule).
func (s *Store) SetWAL(w LogSyncer) { s.wal.Store(&walRef{ls: w}) }

// walSyncer returns the attached log, or nil.
func (s *Store) walSyncer() LogSyncer {
	if r := s.wal.Load(); r != nil {
		return r.ls
	}
	return nil
}

// The buffer manager re-attempts a backend operation that failed with a
// transient classification (see IsTransient) up to retryMax times, sleeping
// a jittered step before each that starts at retryBase and doubles up to
// retryCap; permanent and unclassified failures are never retried. That
// absorbs short transient glitches without stalling the engine: retries
// never run under a page-table lock (I/O is done in the frameLoading/
// frameWriting states), so only Fixers of the affected page wait them out.
const (
	retryMax  = 5
	retryBase = 50 * time.Microsecond
	retryCap  = 2 * time.Millisecond
)

// RetryExhaustedError wraps a transient failure that outlived the retry
// budget. It reclassifies the chain as permanent: the caller must not keep
// retrying what the buffer manager already gave up on.
type RetryExhaustedError struct {
	// Attempts is the total number of attempts made.
	Attempts int
	// Err is the last failure.
	Err error
}

// Error implements error.
func (e *RetryExhaustedError) Error() string {
	return fmt.Sprintf("pagestore: %d attempts exhausted: %v", e.Attempts, e.Err)
}

// Unwrap exposes the last failure.
func (e *RetryExhaustedError) Unwrap() error { return e.Err }

// Transient reports false: the retry budget is spent.
func (e *RetryExhaustedError) Transient() bool { return false }

// withRetry runs op, re-attempting transient failures with exponential
// backoff and jitter. A transient failure that survives the budget
// comes back wrapped in RetryExhaustedError (classified permanent).
func (s *Store) withRetry(op func() error) error {
	err := op()
	if err == nil || !IsTransient(err) {
		return err
	}
	for attempt, step := 0, retryBase; attempt < retryMax; attempt++ {
		s.retries.Add(1)
		sleep, next := spin.Backoff(step, retryCap, rand.Int63n)
		time.Sleep(sleep)
		step = next
		if err = op(); err == nil || !IsTransient(err) {
			return err
		}
	}
	s.retryFailures.Add(1)
	return &RetryExhaustedError{Attempts: retryMax + 1, Err: err}
}

// ErrNoFrames is returned when every frame of the pool is pinned and a new
// page is requested.
var ErrNoFrames = errors.New("pagestore: all buffer frames pinned")

// DefaultFrames is the default buffer pool capacity.
const DefaultFrames = 1024

// Config configures a buffer-manager Store.
type Config struct {
	// BufferFrames is the pool capacity (DefaultFrames if <= 0).
	BufferFrames int
	// FlusherInterval enables the background flusher: every interval, all
	// dirty unpinned frames are trickled to the backend so evictions
	// rarely stall on a write-back. Zero or negative disables it.
	FlusherInterval time.Duration
	// CheckpointInterval makes the background flusher goroutine invoke the
	// installed checkpointer (SetCheckpointer) on this cadence — the
	// flusher-driven fuzzy checkpoints of DESIGN.md §14. Zero or negative
	// disables it. The goroutine runs whenever either interval is set.
	CheckpointInterval time.Duration
	// Metrics, when non-nil, receives the buffer instruments: the buffer.*
	// counters and the fix-miss and write-back latency histograms. Nil
	// disables all latency recording (no clock reads on the Fix path).
	Metrics *metrics.Registry
}

// Open wraps backend in a buffer manager with the given frame capacity
// (DefaultFrames if frames <= 0).
func Open(backend Backend, frames int) *Store {
	return OpenConfig(backend, Config{BufferFrames: frames})
}

// OpenConfig wraps backend in a buffer manager per cfg.
func OpenConfig(backend Backend, cfg Config) *Store {
	frames := cfg.BufferFrames
	if frames <= 0 {
		frames = DefaultFrames
	}
	s := &Store{backend: backend, cap: frames, reg: cfg.Metrics}
	s.capture.s = s
	if reg := cfg.Metrics; reg != nil {
		s.hFixMiss = reg.Histogram("buffer.fix_miss")
		s.hWriteback = reg.Histogram("buffer.writeback")
		s.registerCounters(reg)
	}
	if cfg.FlusherInterval > 0 || cfg.CheckpointInterval > 0 {
		s.startFlusher(cfg.FlusherInterval, cfg.CheckpointInterval)
	}
	return s
}

// registerCounters unifies the store's atomic counters onto a metrics
// registry as snapshot-time computed values; the hot paths keep their
// existing single atomic adds.
func (s *Store) registerCounters(reg *metrics.Registry) {
	reg.Func("buffer.hits", s.hitCount)
	reg.Func("buffer.misses", s.misses.Load)
	reg.Func("buffer.evictions", s.evictions.Load)
	reg.Func("buffer.writebacks", s.writebacks.Load)
	reg.Func("buffer.retries", s.retries.Load)
	reg.Func("buffer.retry_failures", s.retryFailures.Load)
	reg.Func("buffer.flusher_writes", s.flusherWrites.Load)
	reg.Func("buffer.flusher_errors", s.flusherErrors.Load)
	reg.Func("buffer.resident_pages", func() uint64 { return uint64(s.ResidentPages()) })
}

// Backend exposes the underlying backend (used by tests and tools).
func (s *Store) Backend() Backend { return s.backend }

// Metrics returns Config.Metrics, the registry the pool reports into (nil
// without one): an engine wrapped around an existing document reports its
// other layers into the same one.
func (s *Store) Metrics() *metrics.Registry { return s.reg }

// newFrame allocates an empty frame.
func newFrame(s *Store) *Frame {
	f := &Frame{store: s, data: make([]byte, PageSize)}
	f.cond = sync.NewCond(&f.mu)
	return f
}

// Fix pins the page into a frame, reading it from the backend on a miss.
// Every successful Fix must be paired with exactly one Unfix. A hit on a
// resident page takes no lock: it reads the page table and pins the frame
// with one CAS, and writes no cache line but that frame's.
func (s *Store) Fix(id PageID) (*Frame, error) {
	for {
		if f := s.table.lookup(id); f != nil {
			// pin sleeps through I/O in flight (a load, or a write-back by
			// an evictor or the flusher); by the time it succeeds the frame
			// may hold another page, and then the lookup starts over.
			if f.pin() {
				if f.id == id {
					f.hit()
					return f, nil
				}
				s.Unfix(f)
			}
			continue
		}

		// A page-table chunk is as large as the IDs below it: an ID the
		// backend does not hold (a corrupt page pointer) must fail before it
		// is mapped, not allocate gigabytes of slots.
		if n := s.backend.NumPages(); id >= n {
			return nil, fmt.Errorf("%w: fix %d of %d", ErrPageOutOfRange, id, n)
		}
		f, err := s.alloc(id)
		if err != nil {
			return nil, err
		}
		if f == nil {
			// Lost the allocation race to a concurrent Fix of the same
			// page; its frame is (or will shortly be) in the table.
			continue
		}
		t0 := s.hFixMiss.Start()
		if err := s.loadFrame(f, id); err != nil {
			s.hFixMiss.Since(t0)
			return nil, err
		}
		s.hFixMiss.Since(t0)
		s.misses.Add(1)
		return f, nil
	}
}

// FixResident pins page id only if it is buffered and resident: a page-table
// lookup and a pin, never I/O, never an eviction and never a wait. It returns
// nil otherwise — the page is not buffered, or is being loaded or written
// back — and then counts nothing; a pin counts as a hit, like Fix's. It is
// for a guess that must not cost a miss (btree's leaf memory); the caller
// Unfixes the frame as after Fix.
func (s *Store) FixResident(id PageID) *Frame {
	f := s.table.lookup(id)
	if f == nil || !f.pinResident() {
		return nil
	}
	if f.id != id { // remapped between the lookup and the pin
		s.Unfix(f)
		return nil
	}
	f.hit()
	return f
}

// FixNew allocates a fresh zeroed page in the backend and pins it. A fresh
// page exists to be written, so FixNew is its own write-intent declaration:
// the page is born dirty, and an active capture enters it without a
// pre-image (zeros) and logs it as a full image.
func (s *Store) FixNew() (*Frame, error) {
	var id PageID
	err := s.withRetry(func() (e error) { id, e = s.backend.Allocate(); return e })
	if err != nil {
		return nil, err
	}
	f, err := s.alloc(id)
	if err != nil {
		return nil, err
	}
	if f == nil {
		// Allocate hands out fresh IDs, so nobody can be loading this page
		// concurrently; reaching here means the ID was recycled behind our
		// back. Fall back to a plain Fix of the (zeroed) page.
		return s.Fix(id)
	}
	clear(f.data)
	f.dirty.Store(true)
	f.settle(frameResident)
	if s.capture.active.Load() {
		s.capture.declare(f, true)
	}
	return f, nil
}

// alloc claims a frame for page id: it re-checks the table, reuses a free
// frame, grows the pool up to its capacity, or CLOCK-evicts. The returned
// frame is mapped to id, pinned once, and in frameLoading state — the
// caller must fill data and publish frameResident (or fail the load). A
// nil, nil return means another goroutine mapped id concurrently; the
// caller should retry its lookup.
func (s *Store) alloc(id PageID) (*Frame, error) {
	for {
		s.mu.Lock()
		if s.table.lookup(id) != nil {
			s.mu.Unlock()
			return nil, nil
		}
		if n := len(s.free); n > 0 {
			f := s.free[n-1]
			s.free = s.free[:n-1]
			s.mapFrameLocked(f, id)
			s.mu.Unlock()
			return f, nil
		}
		if len(s.frames) < s.cap {
			f := newFrame(s)
			s.frames = append(s.frames, f)
			s.mapFrameLocked(f, id)
			s.mu.Unlock()
			return f, nil
		}

		// CLOCK sweep: up to two revolutions (the first may only clear
		// reference bits). A victim must be resident, unpinned, and
		// unreferenced. It is claimed (claim: a CAS that fails if a Fix
		// pinned it since) before the miss latch is dropped, which excludes
		// the background flusher and concurrent Fixers.
		var victim, inflight *Frame
		for i := 0; i < 2*len(s.frames); i++ {
			f := s.frames[s.hand]
			s.hand = (s.hand + 1) % len(s.frames)
			w := f.word.Load()
			if st := frameState(w >> 32); st == frameLoading || st == frameWriting {
				inflight = f
				continue
			}
			if w != frameWord(frameResident, 0) {
				continue // free, or pinned
			}
			if f.ref.Load() {
				f.ref.Store(false)
				continue
			}
			if s.claimParked != nil {
				s.claimParked()
			}
			if f.claim() {
				victim = f
				break
			}
		}
		if victim == nil {
			s.mu.Unlock()
			if inflight == nil {
				return nil, fmt.Errorf("%w (capacity %d)", ErrNoFrames, s.cap)
			}
			// Every unpinned frame is mid-I/O; wait for one to settle and
			// rescan instead of failing a pool that is about to have room.
			inflight.awaitIO()
			continue
		}

		if !victim.dirty.Load() {
			s.table.remove(victim.id, victim)
			s.mapFrameLocked(victim, id)
			s.evictions.Add(1)
			s.mu.Unlock()
			return victim, nil
		}

		// Dirty victim: write it back with the miss latch released. The
		// frame stays mapped in frameWriting, so Fixers of the old page sleep
		// on the frame — not the latch — and cannot pin it while the backend
		// reads its bytes.
		s.mu.Unlock()
		err := s.writeBack(victim)
		s.mu.Lock()
		if err != nil {
			// Requeue: the page stays buffered and dirty — a failed
			// write-back must never drop content. The error surfaces to
			// the caller (permanent or retry-exhausted by now).
			victim.settle(frameResident)
			s.mu.Unlock()
			return nil, err
		}
		victim.markClean()
		s.evictions.Add(1)
		if s.table.lookup(id) != nil {
			// Someone mapped our target page while we wrote; release the
			// victim as a clean resident frame and retry the lookup.
			victim.settle(frameResident)
			s.mu.Unlock()
			return nil, nil
		}
		s.table.remove(victim.id, victim)
		s.mapFrameLocked(victim, id)
		s.mu.Unlock()
		return victim, nil
	}
}

// mapFrameLocked binds a free or just-claimed frame to page id in
// frameLoading state with one pin for the caller, and enters it in the page
// table. The caller holds s.mu write-locked. A Fixer sleeping on the frame
// under its old page keeps sleeping until the load settles it, then finds
// that the frame holds another page.
func (s *Store) mapFrameLocked(f *Frame, id PageID) {
	f.id = id
	f.ref.Store(true)
	f.markClean()
	f.influx.Store(false)
	f.word.Store(frameWord(frameLoading, 1))
	s.table.insert(id, f)
}

// loadFrame fills a just-mapped frame from the backend and publishes it
// resident. On failure the frame is unmapped and recycled through the free
// list; waiters retry their lookup and surface their own errors.
func (s *Store) loadFrame(f *Frame, id PageID) error {
	err := s.withRetry(func() error { return s.backend.ReadPage(id, f.data) })
	if err == nil {
		// Detect torn or corrupt images at read time: the checksum was
		// stamped by the last write-back, so a mismatch means the backend
		// returned a page that was never completely written. Classified
		// permanent — recovery (full-image redo) is the only heal.
		err = VerifyChecksum(id, f.data)
	}
	if err == nil {
		f.settle(frameResident)
		return nil
	}
	s.mu.Lock()
	s.table.remove(id, f)
	f.mu.Lock()
	f.word.Store(frameWord(frameFree, 0)) // the loader's pin goes with the mapping
	f.cond.Broadcast()
	f.mu.Unlock()
	s.free = append(s.free, f)
	s.mu.Unlock()
	return err
}

// writeBack persists one frame the caller has claimed in frameWriting: it
// enforces the WAL rule (force the log up to the page's LSN first — with no
// attached log the rule is vacuous), stamps the page checksum, and writes
// through the retry policy. The miss latch is not held. FlushTo is called
// unconditionally, even for pages with LSN 0: a crashed log fails every
// FlushTo, which is exactly the barrier that keeps post-crash unlogged
// content off the backend.
func (s *Store) writeBack(f *Frame) error {
	t0 := s.hWriteback.Start()
	if w := s.walSyncer(); w != nil {
		if err := w.FlushTo(PageLSN(f.data)); err != nil {
			s.hWriteback.Since(t0)
			return fmt.Errorf("pagestore: WAL rule for page %d: %w", f.id, err)
		}
	}
	StampChecksum(f.data)
	if err := s.withRetry(func() error { return s.backend.WritePage(f.id, f.data) }); err != nil {
		s.hWriteback.Since(t0)
		return err
	}
	s.writebacks.Add(1)
	s.hWriteback.Since(t0)
	return nil
}

// Unfix releases one pin. When the pin count reaches zero the frame becomes
// eligible for eviction (dirty content is written back lazily, or earlier
// by the background flusher); a page declared for writing in an active
// capture stays pinned by the capture until it closes. Unfixing an
// already-unpinned frame is always a caller bug — the pin count would
// silently corrupt — so it panics with the frame's page identity.
func (s *Store) Unfix(f *Frame) {
	if !f.unpin() {
		panic(fmt.Sprintf("pagestore: Unfix without matching Fix on frame for page %d", f.id))
	}
}

// Flush writes all dirty buffered pages to the backend, waiting out
// in-flight I/O, and syncs it. Unlike the flusher it does not skip pinned
// frames: Flush is a checkpoint barrier and its callers hold the document
// quiescent.
func (s *Store) Flush() error {
	s.mu.RLock()
	frames := append([]*Frame(nil), s.frames...)
	s.mu.RUnlock()
	for _, f := range frames {
		if !f.claimDirty() {
			continue
		}
		err := s.writeBack(f)
		if err == nil {
			f.markClean()
		}
		f.settle(frameResident)
		if err != nil {
			return err
		}
	}
	return s.withRetry(s.backend.Sync)
}

// claimDirty claims a dirty resident frame for Flush, pinned or not, after
// sleeping through I/O in flight; false when the frame is clean or free.
// Like claim it is one CAS from resident, so nobody pins the frame while
// it is written.
func (f *Frame) claimDirty() bool {
	for {
		w := f.word.Load()
		if st := frameState(w >> 32); st == frameLoading || st == frameWriting {
			f.awaitIO()
		} else if st == frameFree || !f.dirty.Load() {
			return false
		} else if f.word.CompareAndSwap(w, frameWord(frameWriting, uint32(w))) {
			return true
		}
	}
}

// Close stops the background flusher, flushes, and closes the backend.
func (s *Store) Close() error {
	s.stopFlusher()
	if err := s.Flush(); err != nil {
		s.backend.Close()
		return err
	}
	return s.backend.Close()
}

// Stats returns a snapshot of the buffer counters. All counters are
// atomics; the snapshot is race-clean against concurrent operation.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:          s.hitCount(),
		Misses:        s.misses.Load(),
		Evictions:     s.evictions.Load(),
		Writebacks:    s.writebacks.Load(),
		Retries:       s.retries.Load(),
		RetryFailures: s.retryFailures.Load(),
		FlusherWrites: s.flusherWrites.Load(),
		FlusherErrors: s.flusherErrors.Load(),
	}
}

// eachFrame calls fn for every frame, holding the miss latch shared: no
// frame is added or remapped meanwhile.
func (s *Store) eachFrame(fn func(*Frame)) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, f := range s.frames {
		fn(f)
	}
}

// hitCount sums the frames' hit counters.
func (s *Store) hitCount() (n uint64) {
	s.eachFrame(func(f *Frame) { n += f.hits.Load() })
	return n
}

// PinnedFrames reports how many frames currently hold at least one pin
// (test and debugging aid for pin-leak detection).
func (s *Store) PinnedFrames() (n int) {
	s.eachFrame(func(f *Frame) {
		if f.pins() > 0 {
			n++
		}
	})
	return n
}

// ResidentPages reports how many pages are currently buffered.
func (s *Store) ResidentPages() (n int) {
	s.eachFrame(func(f *Frame) {
		if f.state() != frameFree {
			n++
		}
	})
	return n
}
