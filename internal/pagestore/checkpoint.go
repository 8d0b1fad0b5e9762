package pagestore

// Checkpoint support: the buffer pool's contribution to a fuzzy checkpoint
// is the dirty-page table — every resident dirty page with the LSN of the
// first record that dirtied it (recLSN). The WAL layer combines it with
// the active-transaction table to compute the redo LSN a restart can scan
// from and the truncation point behind which segments may be unlinked.

// DirtyPage is one dirty-page-table entry: a resident dirty page and the
// LSN of the first log record that dirtied it since it last went clean.
// RecLSN 0 means the dirt predates LSN tracking (page dirtied without a
// WAL attached); consumers must treat such entries as "unbounded below"
// and fall back to the scan's other floors.
type DirtyPage struct {
	Page   PageID
	RecLSN uint64
}

// DirtyPageTable snapshots the dirty-page table without quiescing writers.
// It returns the table plus the capture floor: the log position published
// by a capture that was in flight while the scan ran. The floor is loaded
// BEFORE the frames are scanned — with sequentially consistent atomics
// this ordering is load-bearing. If the scan observes floor == 0, any
// capture whose Commit stores were missed by the scan must have begun
// after the floor load, hence after the caller snapshotted the log's next
// LSN, hence its records sit above that snapshot and need no dirty-table
// coverage. If floor != 0, the in-flight capture's records are at or above
// the floor, and the caller folds the floor into its redo-LSN minimum.
func (s *Store) DirtyPageTable() ([]DirtyPage, uint64) {
	floor := s.captureFloor.Load()
	var out []DirtyPage
	s.eachFrame(func(f *Frame) {
		if f.dirty.Load() { // only a mapped frame is ever dirty
			out = append(out, DirtyPage{Page: f.id, RecLSN: f.recLSN.Load()})
		}
	})
	return out, floor
}

// SetCheckpointer installs the function the background flusher invokes on
// every checkpoint tick (Config.CheckpointInterval). The storage layer
// installs a closure that drives wal.Log.Checkpoint; installing nil (or
// never installing) makes checkpoint ticks no-ops.
func (s *Store) SetCheckpointer(fn func() error) {
	if fn == nil {
		s.checkpointer.Store(nil)
		return
	}
	s.checkpointer.Store(&fn)
}
