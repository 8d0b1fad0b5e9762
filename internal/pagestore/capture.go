package pagestore

import "sync"

// Page-image capture: the hook the storage layer uses to turn one logical
// document operation into a physiological WAL record. While a capture is
// active on a Store, every page fixed (or newly allocated) gets its
// pre-image snapshotted, and all unpins on captured frames are deferred
// until the capture closes. The deferral is load-bearing: a captured page
// can hold modified content whose log record has not been appended yet, so
// it must not become evictable (the WAL rule could not be honored for it).
// Because the evictor, the background flusher, and Flush all require a
// zero pin count before touching a frame's bytes, the retained pins are
// exactly what keeps ahead-of-log content out of every concurrent
// write-back path.
//
// At the end of the operation the capture diffs each page body against its
// pre-image, the storage layer logs the deltas in a single record, and
// Commit stamps the record's LSN into every changed page before the pins
// are finally released.

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

// captureEntry tracks one page touched during a capture.
type captureEntry struct {
	f *Frame
	// pre is the page image at first Fix within the capture.
	pre []byte
	// deferred counts Unfix calls intercepted while the capture was active.
	deferred int32
	// logged is set by Deltas when the page body changed; Commit stamps
	// only logged entries.
	logged bool
	// full is set by Deltas when the page's complete body was emitted (a
	// full image); Commit then marks the frame imaged so later captures in
	// the same dirty epoch log minimal ranges.
	full bool
	// pushed is set by note when the pre-image was published to the page's
	// version chain (snapshot source installed); Commit seals the entry,
	// Close drops it if the capture never logged a change to the page.
	pushed bool
}

// Capture is one active page-image capture session. It is created by
// Store.BeginCapture and must be finished with Close exactly once. A Store
// supports at most one active capture; the storage layer's document latch
// provides that exclusion. The capture has its own mutex — the sharded
// store no longer has a global lock to piggyback on — guarding entries
// against the race between the owner's Fixes and other transactions'
// concurrent Unfix calls.
type Capture struct {
	s *Store

	mu      sync.Mutex
	closed  bool
	entries map[PageID]*captureEntry
	order   []PageID // insertion order, for deterministic delta layout
}

// BeginCapture starts a capture session. Until Close, every Fix/FixNew
// snapshots the page's pre-image and Unfix calls on captured frames are
// deferred. floor is the WAL position at which this capture's record will
// be appended at the earliest (the log's next LSN); it is published as the
// store's capture floor so a concurrent dirty-page-table scan can bound
// the recLSN of pages this capture is about to dirty. Pass 0 when no WAL
// is attached.
func (s *Store) BeginCapture(floor uint64) *Capture {
	c := &Capture{s: s, entries: make(map[PageID]*captureEntry)}
	if !s.capture.CompareAndSwap(nil, c) {
		panic("pagestore: nested capture")
	}
	s.captureFloor.Store(floor)
	return c
}

// noteCapture snapshots f into the active capture, if any. Called with the
// caller's pin held, after the frame is resident.
func (s *Store) noteCapture(f *Frame) {
	if c := s.capture.Load(); c != nil {
		c.note(f)
	}
}

// note snapshots f's pre-image on its first Fix within the capture.
func (c *Capture) note(f *Frame) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	if _, ok := c.entries[f.id]; ok {
		return
	}
	pre := make([]byte, PageSize)
	copy(pre, f.data)
	e := &captureEntry{f: f, pre: pre}
	// Publish the pre-image as the chain's open head, then raise the
	// in-flux flag — both before the owner can mutate the page (the owner's
	// first touch is this Fix) — diverting snapshot readers to the version
	// chain. Chain first, flag second (and the reverse at Close): a reader
	// that sees the flag up must be able to rely on the entry having been
	// there. The slice is shared with the entry: both sides only read it.
	e.pushed = c.s.pushVersion(f.id, pre)
	f.influx.Store(true)
	c.entries[f.id] = e
	c.order = append(c.order, f.id)
}

// deferUnfix intercepts an Unfix on a captured frame. Returns false when
// the frame is not part of the capture (or the capture already closed), in
// which case the caller performs a normal unpin.
func (c *Capture) deferUnfix(f *Frame) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return false
	}
	e, ok := c.entries[f.id]
	if !ok || e.f != f {
		return false
	}
	e.deferred++
	return true
}

// Deltas diffs every captured page body against its pre-image and returns
// the changed ranges in page-touch order. A page that has no full body
// image in the log since it last went clean (the frame's imaged bit is
// unset) contributes its complete body instead of a minimal range — the
// torn-page healing anchor: recovery can rebuild the page from the log
// alone, and the image sits at exactly the page's recLSN, so a
// checkpoint-bounded redo scan always covers it. The header bytes are
// excluded: pageLSN and checksum are recovery metadata, not logged content.
func (c *Capture) Deltas() []PageDelta {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []PageDelta
	for _, id := range c.order {
		e := c.entries[id]
		lo, hi := diffRange(e.pre, e.f.data)
		if lo < 0 {
			continue
		}
		e.logged = true
		if !e.f.imaged.Load() {
			lo, hi = PageHeaderSize, PageSize
			e.full = true
		}
		data := make([]byte, hi-lo)
		copy(data, e.f.data[lo:hi])
		out = append(out, PageDelta{Page: id, Off: lo, Data: data})
	}
	return out
}

// diffRange returns the smallest [lo, hi) range within the page body where
// pre and cur differ, or lo = -1 when they are identical.
func diffRange(pre, cur []byte) (lo, hi int) {
	lo = -1
	for i := PageHeaderSize; i < PageSize; i++ {
		if pre[i] != cur[i] {
			lo = i
			break
		}
	}
	if lo < 0 {
		return -1, -1
	}
	hi = PageSize
	for hi > lo && pre[hi-1] == cur[hi-1] {
		hi--
	}
	return lo, hi
}

// Commit stamps lsn into every page Deltas reported changed and marks them
// dirty, establishing the pageLSN the WAL rule and conditional redo key on.
// Call it after the log record holding the deltas has been appended. The
// stamped frames are still pinned (their unpins are deferred), so no
// concurrent write-back can observe a half-stamped page.
func (c *Capture) Commit(lsn uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, id := range c.order {
		e := c.entries[id]
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
			c.s.closeVersion(id, lsn)
		}
	}
}

// Close ends the capture: deferred unpins are applied and the store stops
// snapshotting. Must be called exactly once, after Deltas/Commit. The
// capture pointer is cleared first, so Unfix calls that race with Close
// either get deferred before the drain below or fall through to a normal
// unpin — never both.
func (c *Capture) Close() {
	if !c.s.capture.CompareAndSwap(c, nil) {
		panic("pagestore: capture closed twice or out of order")
	}
	c.s.captureFloor.Store(0)
	c.mu.Lock()
	c.closed = true
	pushed := false
	for _, id := range c.order {
		e := c.entries[id]
		// Lower the in-flux flag after Commit's stamp: the release/acquire
		// pair on the flag is what publishes the new pageLSN to snapshot
		// readers that go on to read the live bytes.
		e.f.influx.Store(false)
		if e.pushed {
			pushed = true
			if !e.logged {
				// The page's body never changed (a read-only touch, or an
				// operation that failed before mutating it): the open chain
				// entry duplicates the live bytes and retains nothing. It
				// goes only after the flag is down, so a reader that misses
				// it finds the live page visible again on its next look —
				// there is no moment with the flag up and the chain empty,
				// however long this goroutine is descheduled in between.
				c.s.dropOpenVersion(id)
			}
		}
		if e.deferred > 0 {
			if n := e.f.pins.Add(-e.deferred); n < 0 {
				panic("pagestore: capture pin accounting underflow")
			}
		}
	}
	c.mu.Unlock()
	if pushed {
		// Opportunistic retirement: every capture close is a chance to drop
		// chain entries no active snapshot can reach anymore.
		c.s.PruneVersions(c.s.snapshotWatermark())
	}
}
