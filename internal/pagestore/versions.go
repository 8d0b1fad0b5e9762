package pagestore

import "fmt"

// Page-version sidecar: the copy-on-write layer behind MVCC snapshot reads.
//
// While a snapshot source is installed (SetSnapshotSource), every page
// declared for writing in a capture publishes its pre-image into a per-page
// version chain before the live bytes change. A chain entry covers the
// half-open LSN interval [lsn, end): lsn is the pre-image's own pageLSN and
// end is the stamp the capture's record put on the live page (0 while the
// capture is still open). A snapshot reader pinned at S resolves a page via
// FixAt: the live frame when it is visible (no capture in flux and
// pageLSN <= S), otherwise the newest chain entry whose interval covers S.
//
// Retirement is watermark-driven: entries whose end lies at or below the
// oldest active snapshot (or, with no snapshots active, the log's current
// commit-consistent position) can never be read again — the snapshot-LSN
// watermark is monotonic — and are pruned opportunistically at capture
// close, on flusher ticks, and at checkpoints.

// pageVersion is one retained pre-image of a page.
type pageVersion struct {
	lsn  uint64 // pageLSN of the image: first snapshot LSN it serves
	end  uint64 // first LSN the image no longer serves (0 = open)
	data []byte
}

// SetSnapshotSource installs the oldest-snapshot watermark callback and
// turns version publication on. fn must be safe for concurrent use
// (typically tx.Manager.SnapshotWatermark). Install it before the first
// write that snapshot transactions should be isolated from; with no source
// installed the version layer is completely inert.
func (s *Store) SetSnapshotSource(fn func() uint64) {
	s.snapSrc.Store(&fn)
}

// SnapshotsEnabled reports whether a snapshot source is installed.
func (s *Store) SnapshotsEnabled() bool { return s.snapSrc.Load() != nil }

// snapshotWatermark returns the current retirement watermark, or 0 when
// versioning is off.
func (s *Store) snapshotWatermark() uint64 {
	if fn := s.snapSrc.Load(); fn != nil {
		return (*fn)()
	}
	return 0
}

// pushVersion publishes a page's pre-image as the open head of its version
// chain. Called by Capture.declare with the pre-image it just copied; the
// slice is shared (both sides only read it) and owned by the chain from
// then on. Reports whether an entry was pushed — the capture closes or
// drops it when it resolves.
func (s *Store) pushVersion(id PageID, pre []byte) bool {
	if s.snapSrc.Load() == nil {
		return false
	}
	lsn := PageLSN(pre)
	s.verMu.Lock()
	defer s.verMu.Unlock()
	chain := s.versions[id]
	if n := len(chain); n > 0 {
		tail := chain[n-1]
		if tail.end == 0 || tail.lsn >= lsn {
			// An open entry or an image at least as new already heads the
			// chain.
			return false
		}
	}
	if s.versions == nil {
		s.versions = make(map[PageID][]*pageVersion)
	}
	s.versions[id] = append(chain, &pageVersion{lsn: lsn, data: pre})
	return true
}

// closeVersion seals the open head entry of a page's chain at end: the
// pre-image now serves snapshots in [lsn, end). Called by Capture.Commit
// with the record LSN it stamped into the live page.
func (s *Store) closeVersion(id PageID, end uint64) {
	s.verMu.Lock()
	defer s.verMu.Unlock()
	chain := s.versions[id]
	if n := len(chain); n > 0 && chain[n-1].end == 0 {
		chain[n-1].end = end
	}
}

// dropOpenVersion removes a page's open head entry — the capture declared
// the page for writing but never logged a change to it, so the pre-image
// equals the live bytes and retains nothing.
func (s *Store) dropOpenVersion(id PageID) {
	s.verMu.Lock()
	defer s.verMu.Unlock()
	chain := s.versions[id]
	n := len(chain)
	if n == 0 || chain[n-1].end != 0 {
		return
	}
	if n == 1 {
		delete(s.versions, id)
		return
	}
	s.versions[id] = chain[:n-1]
}

// versionAt returns the page image visible to a snapshot at snap, if the
// chain holds one.
func (s *Store) versionAt(id PageID, snap uint64) ([]byte, bool) {
	s.verMu.Lock()
	defer s.verMu.Unlock()
	chain := s.versions[id]
	for i := len(chain) - 1; i >= 0; i-- {
		v := chain[i]
		if v.lsn <= snap && (v.end == 0 || v.end > snap) {
			return v.data, true
		}
	}
	return nil, false
}

// fixAtRetries bounds FixAt's second looks at a page it found in flux.
// Every retry means a whole capture closed between two instructions of the
// reader, so more than a handful in a row is not contention but a bug.
const fixAtRetries = 16

// FixAt resolves page id as of snapshot snap: the live frame when it is
// visible (returned pinned: the caller must Unfix it), otherwise the covering
// version chain entry (a nil frame: nothing to release). An error means no
// image covering snap exists — with a correctly maintained watermark that is
// an invariant violation, not a transient condition.
func (s *Store) FixAt(id PageID, snap uint64) ([]byte, *Frame, error) {
	for attempt := 0; ; attempt++ {
		f, err := s.Fix(id)
		if err != nil {
			// The live page is unreachable (I/O failure); a retained version
			// can still serve the snapshot.
			if data, ok := s.versionAt(id, snap); ok {
				return data, nil, nil
			}
			return nil, nil, err
		}
		// The influx flag must be read before the page bytes: a capture stamps
		// pageLSN only while the flag is up, so a down flag (acquire) means the
		// bytes — stamp included — are settled.
		influx := f.influx.Load()
		if !influx && PageLSN(f.data) <= snap {
			return f.data, f, nil
		}
		if s.fixAtParked != nil {
			s.fixAtParked()
		}
		data, ok := s.versionAt(id, snap)
		s.Unfix(f)
		if ok {
			return data, nil, nil
		}
		// A chain miss after seeing the flag up is not a hole: the capture
		// declared the page but logged no change to it, and closed in between
		// — lowering the flag, then dropping the open chain entry that
		// duplicated the live bytes — so the live frame is visible again;
		// look once more. A miss with the flag down (the stamp is final and
		// newer than snap) is the real invariant violation.
		if !influx || attempt == fixAtRetries {
			return nil, nil, fmt.Errorf("pagestore: no version of page %d covers snapshot LSN %d", id, snap)
		}
	}
}

// PruneVersions retires every chain entry sealed at or below the watermark
// w and returns how many entries were dropped. Safe because the snapshot
// watermark is monotonic: no present or future snapshot can have an LSN
// below w, and an entry with end <= w serves only snapshots below w.
func (s *Store) PruneVersions(w uint64) int {
	if w == 0 {
		return 0
	}
	s.verMu.Lock()
	defer s.verMu.Unlock()
	dropped := 0
	for id, chain := range s.versions {
		keep := chain[:0]
		for _, v := range chain {
			if v.end != 0 && v.end <= w {
				dropped++
				continue
			}
			keep = append(keep, v)
		}
		if len(keep) == 0 {
			delete(s.versions, id)
		} else {
			s.versions[id] = keep
		}
	}
	return dropped
}

// StaleVersions counts chain entries that should not exist in a drained
// store: entries sealed at or below the watermark w (PruneVersions residue)
// and open entries (a capture that never resolved them). It is the version
// layer's analogue of lock.Manager.LeakCheck and is meaningful only while
// no capture is active.
func (s *Store) StaleVersions(w uint64) int {
	s.verMu.Lock()
	defer s.verMu.Unlock()
	stale := 0
	for _, chain := range s.versions {
		for _, v := range chain {
			if v.end == 0 || v.end <= w {
				stale++
			}
		}
	}
	return stale
}

// RetainedVersions reports the total number of live chain entries (tooling
// and tests).
func (s *Store) RetainedVersions() int {
	s.verMu.Lock()
	defer s.verMu.Unlock()
	n := 0
	for _, chain := range s.versions {
		n += len(chain)
	}
	return n
}
