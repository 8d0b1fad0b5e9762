package pagestore

import (
	"encoding/binary"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Page-image capture: the hook the storage layer uses to turn one logical
// document operation into a physiological WAL record. While a capture is
// active on a Store, a page pays for being captured only when somebody
// declares the intent to write it: Frame.MarkDirty (and FixNew, whose page
// exists to be written) snapshots the pre-image — before the first byte
// changes — and gives the capture a pin of its own on the frame. Pages that
// are merely read, by the operation or by anyone else meanwhile, are not
// copied, not diffed and not held.
//
// The capture's pin is load-bearing: a declared page can hold modified
// content whose log record has not been appended yet, so it must not become
// evictable (the WAL rule could not be honored for it). Because the evictor,
// the background flusher, and FlushDirty all require a zero pin count before
// touching a frame's bytes, the pin is exactly what keeps ahead-of-log
// content out of every concurrent write-back path until Close.
//
// At the end of the operation the capture diffs each declared page body
// against its pre-image, the storage layer logs the deltas in a single
// record, and Commit stamps the record's LSN into every changed page before
// the pins are finally released.

// PageDelta is one contiguous changed byte range of a page, the redo unit
// of a physiological log record.
type PageDelta struct {
	// Page is the page the range belongs to.
	Page PageID
	// Off is the byte offset of the range within the page.
	Off int
	// Data is the after-image of the range.
	Data []byte
}

// FullImage reports whether the delta covers the entire page body (all
// bytes after the page header). Full-image deltas can heal a torn page
// during redo regardless of what the corrupt image contains.
func (d PageDelta) FullImage() bool {
	return d.Off == PageHeaderSize && len(d.Data) == PageSize-PageHeaderSize
}

// preImages recycles pre-image buffers between captures. A buffer comes
// back at Close unless the version chain took it over; a GC empties the
// pool, so idle buffers never count as live heap.
var preImages = sync.Pool{New: func() any { return new([PageSize]byte) }}

// captureEntry tracks one page declared for writing during a capture.
type captureEntry struct {
	f *Frame
	// pre is the page image at the declaration; nil for a FixNew page, whose
	// pre-image is zeros and which is logged as a full image.
	pre *[PageSize]byte
	// logged is set by Deltas when the page body changed; Commit stamps
	// only logged entries.
	logged bool
	// full is set by Deltas when the page's complete body was emitted (a
	// full image); Commit then marks the frame imaged so later captures in
	// the same dirty epoch log minimal ranges.
	full bool
	// pushed is set when the pre-image was published to the page's version
	// chain (snapshot source installed), which then owns the buffer; Commit
	// seals the chain entry, Close drops it if the page was never logged.
	pushed bool
}

// Capture is the Store's page-image capture session: started by
// Store.BeginCapture, finished with Close exactly once, then reused by the
// next BeginCapture. A Store supports at most one active capture; the
// storage layer's document latch provides that exclusion. The mutex orders
// a declaration from a goroutine other than the capture's owner (nothing in
// the engine does that while a capture is open, but MarkDirty is callable
// by any pin holder) against the owner's Deltas/Commit/Close.
type Capture struct {
	s      *Store
	active atomic.Bool

	mu      sync.Mutex
	entries []captureEntry // declaration order, for deterministic delta layout
	deltas  []PageDelta    // Deltas' result, reused across captures
}

// BeginCapture starts a capture session. Until Close, every page declared
// for writing (Frame.MarkDirty, FixNew) has its pre-image snapshotted and
// stays pinned. floor is the WAL position at which this capture's record
// will be appended at the earliest (the log's next LSN); it is published as
// the store's capture floor so a concurrent dirty-page-table scan can bound
// the recLSN of pages this capture is about to dirty. Pass 0 when no WAL
// is attached.
func (s *Store) BeginCapture(floor uint64) *Capture {
	c := &s.capture
	if !c.active.CompareAndSwap(false, true) {
		panic("pagestore: nested capture")
	}
	s.captureFloor.Store(floor)
	return c
}

// declare enters f into the capture on the first write intent declared for
// it: the caller holds a pin and has not changed a byte yet. fresh marks a
// page FixNew just zeroed, which needs no pre-image.
func (c *Capture) declare(f *Frame, fresh bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	// influx doubles as the membership flag: it is up exactly while the frame
	// is an entry of the active capture.
	if !c.active.Load() || f.influx.Load() {
		return
	}
	e := captureEntry{f: f}
	if !fresh {
		e.pre = preImages.Get().(*[PageSize]byte)
		copy(e.pre[:], f.data)
		// Publish the pre-image as the chain's open head, then raise the
		// in-flux flag — both before the caller mutates the page — diverting
		// snapshot readers to the version chain. Chain first, flag second
		// (and the reverse at Close): a reader that sees the flag up must be
		// able to rely on the entry having been there. A fresh page publishes
		// nothing: no root older than this capture's record reaches it.
		e.pushed = c.s.pushVersion(f.id, e.pre[:])
	}
	// The capture's own pin. The caller's pin keeps the count above zero, so
	// adding one here cannot race an evictor's claim, which needs 0 pins.
	f.word.Add(1)
	f.influx.Store(true)
	c.entries = append(c.entries, e)
}

// Deltas diffs every declared page body against its pre-image and returns
// the changed ranges in declaration order. A page that has no full body
// image in the log since it last went clean (the frame's imaged bit is
// unset) contributes its complete body instead of a minimal range — the
// torn-page healing anchor: recovery can rebuild the page from the log
// alone, and the image sits at exactly the page's recLSN, so a
// checkpoint-bounded redo scan always covers it. The header bytes are
// excluded: pageLSN and checksum are recovery metadata, not logged content.
//
// The returned deltas alias the pinned frames (and the slice is the
// capture's own): they are valid until Close, and only as long as the
// caller does not mutate the pages further.
func (c *Capture) Deltas() []PageDelta {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.deltas[:0]
	for i := range c.entries {
		e := &c.entries[i]
		lo, hi := PageHeaderSize, PageSize
		if e.pre != nil {
			if lo, hi = diffRange(e.pre[:], e.f.data); lo < 0 {
				continue
			}
			if !e.f.imaged.Load() {
				lo, hi = PageHeaderSize, PageSize
			}
		}
		e.logged = true
		e.full = lo == PageHeaderSize && hi == PageSize
		out = append(out, PageDelta{Page: e.f.id, Off: lo, Data: e.f.data[lo:hi]})
	}
	c.deltas = out
	return out
}

// diffRange returns the smallest [lo, hi) range within the page body where
// pre and cur differ, or lo = -1 when they are identical. It compares eight
// bytes at a time from both ends and locates the first and last differing
// byte inside the first and last differing word.
func diffRange(pre, cur []byte) (lo, hi int) {
	pre, cur = pre[:PageSize], cur[:PageSize]
	lo = PageHeaderSize
	for ; lo+8 <= PageSize; lo += 8 {
		if x := binary.LittleEndian.Uint64(pre[lo:]) ^ binary.LittleEndian.Uint64(cur[lo:]); x != 0 {
			lo += bits.TrailingZeros64(x) / 8
			break
		}
	}
	for lo < PageSize && pre[lo] == cur[lo] {
		lo++ // tail shorter than a word, or nothing found yet
	}
	if lo == PageSize {
		return -1, -1
	}
	hi = PageSize
	for ; hi-8 > lo; hi -= 8 {
		if x := binary.LittleEndian.Uint64(pre[hi-8:]) ^ binary.LittleEndian.Uint64(cur[hi-8:]); x != 0 {
			hi -= bits.LeadingZeros64(x) / 8
			break
		}
	}
	for hi-1 > lo && pre[hi-1] == cur[hi-1] {
		hi--
	}
	return lo, hi
}

// Commit stamps lsn into every page Deltas reported changed and marks them
// dirty, establishing the pageLSN the WAL rule and conditional redo key on.
// Call it after the log record holding the deltas has been appended. The
// stamped frames are still pinned by the capture, so no concurrent
// write-back can observe a half-stamped page.
func (c *Capture) Commit(lsn uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.entries {
		e := &c.entries[i]
		if !e.logged {
			continue
		}
		SetPageLSN(e.f.data, lsn)
		// First record to dirty the page this epoch wins the recLSN; the
		// CAS keeps an already-dirty page's earlier recLSN intact.
		e.f.recLSN.CompareAndSwap(0, lsn)
		if e.full {
			e.f.imaged.Store(true)
		}
		e.f.dirty.Store(true)
		if e.pushed {
			// Seal the chain entry at the new stamp: the retained pre-image
			// now serves exactly the snapshots older than this record.
			c.s.closeVersion(e.f.id, lsn)
		}
	}
}

// Close ends the capture: the capture's pins are released, pre-image
// buffers the version chain did not take go back to the pool, and write
// intents stop snapshotting. Must be called exactly once, after
// Deltas/Commit; the deltas Deltas returned are dead afterwards.
func (c *Capture) Close() {
	c.mu.Lock()
	if !c.active.CompareAndSwap(true, false) {
		c.mu.Unlock()
		panic("pagestore: capture closed twice or out of order")
	}
	c.s.captureFloor.Store(0)
	pushed := false
	for i := range c.entries {
		e := &c.entries[i]
		// Lower the in-flux flag after Commit's stamp: the release/acquire
		// pair on the flag is what publishes the new pageLSN to snapshot
		// readers that go on to read the live bytes.
		e.f.influx.Store(false)
		switch {
		case e.pushed:
			pushed = true
			if !e.logged {
				// The page's body never changed (a write that stored what
				// was there, or an operation that failed before mutating
				// it): the open chain entry duplicates the live bytes and
				// retains nothing. It goes only after the flag is down, so a
				// reader that misses it finds the live page visible again on
				// its next look — there is no moment with the flag up and
				// the chain empty, however long this goroutine is
				// descheduled in between. The buffer is not recycled: a
				// reader may still hold the slice versionAt handed out.
				c.s.dropOpenVersion(e.f.id)
			}
		case e.pre != nil:
			preImages.Put(e.pre)
		}
		if !e.f.unpin() {
			panic("pagestore: capture pin accounting underflow")
		}
		*e = captureEntry{} // the reused slice must not keep a pooled buffer alive
	}
	c.entries = c.entries[:0]
	c.mu.Unlock()
	if pushed {
		// Opportunistic retirement: every capture close is a chance to drop
		// chain entries no active snapshot can reach anymore.
		c.s.PruneVersions(c.s.snapshotWatermark())
	}
}
