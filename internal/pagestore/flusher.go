package pagestore

import "time"

// Background flusher: a goroutine that periodically trickles dirty,
// unpinned, resident frames to the backend so that CLOCK eviction almost
// always finds clean victims and a Fix miss rarely stalls on a synchronous
// write-back. Every trickled write goes through the same writeBack path as
// eviction, so the WAL rule (FlushTo before the page image leaves the
// buffer) and the transient-retry policy apply unchanged. A failed trickle
// leaves the frame dirty — it is simply retried on a later pass or, at the
// latest, by the evictor — and is counted in Stats.FlusherErrors.
//
// The same goroutine also drives fuzzy checkpoints: when a checkpoint
// interval is configured and a checkpointer has been installed (see
// SetCheckpointer), each checkpoint tick invokes it. Checkpoint errors are
// swallowed here — the WAL layer owns checkpoint bookkeeping and a failed
// checkpoint merely delays truncation; the next tick retries.

// startFlusher launches the background flusher goroutine. Either interval
// may be zero, which disables that duty (a nil ticker channel never fires).
func (s *Store) startFlusher(flushEvery, ckptEvery time.Duration) {
	s.flusherStop = make(chan struct{})
	s.flusherWG.Add(1)
	go func() {
		defer s.flusherWG.Done()
		var flushC, ckptC <-chan time.Time
		if flushEvery > 0 {
			t := time.NewTicker(flushEvery)
			defer t.Stop()
			flushC = t.C
		}
		if ckptEvery > 0 {
			t := time.NewTicker(ckptEvery)
			defer t.Stop()
			ckptC = t.C
		}
		for {
			select {
			case <-s.flusherStop:
				return
			case <-flushC:
				s.FlushDirty()
				// Retire version-chain entries below the oldest active
				// snapshot on the same cadence (no-op when versioning is
				// off: the watermark reads 0).
				s.PruneVersions(s.snapshotWatermark())
			case <-ckptC:
				if fn := s.checkpointer.Load(); fn != nil {
					_ = (*fn)()
				}
			}
		}
	}()
}

// stopFlusher terminates the flusher goroutine (if any) and waits for an
// in-flight pass to finish. Idempotent.
func (s *Store) stopFlusher() {
	if s.flusherStop == nil {
		return
	}
	s.flusherOnce.Do(func() { close(s.flusherStop) })
	s.flusherWG.Wait()
}

// FlushDirty performs one flusher pass: every frame that is dirty, unpinned,
// and resident is written back. Exported so tools and tests can force a
// pass; the background flusher calls it on every tick. Unlike Flush it skips
// pinned frames (their holders may be mutating the bytes) and does not sync
// the backend.
//
// Candidates are collected under the miss latch shared; each is then claimed
// like an eviction victim (Frame.claim), which re-validates the frame (it
// may have been pinned or evicted since the scan) and excludes concurrent
// evictors and Fixers: once the frame is in frameWriting no Fix can pin it
// until the write finishes. Dirt is checked after the claim, when nobody can
// clean the frame underneath.
func (s *Store) FlushDirty() {
	var cands []*Frame
	s.eachFrame(func(f *Frame) {
		if f.dirty.Load() && f.pins() == 0 {
			cands = append(cands, f)
		}
	})
	for _, f := range cands {
		if !f.claim() {
			continue
		}
		if f.dirty.Load() {
			if err := s.writeBack(f); err == nil {
				f.markClean()
				s.flusherWrites.Add(1)
			} else {
				s.flusherErrors.Add(1)
			}
		}
		f.settle(frameResident)
	}
}
