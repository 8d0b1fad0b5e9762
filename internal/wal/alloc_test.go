//go:build !race

// Allocation-regression guard for the commit path of the log. The race
// detector changes allocation behaviour, so this runs only in the non-race
// suite (make verify runs both).

package wal

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/pagestore"
)

// TestAllocAppendForceSteadyState pins what a committing transaction costs
// the allocator inside the log once it is warm: nothing. AppendOp frames the
// record into a pending buffer the log owns (the flusher borrows it for one
// write and hands it back), the memory store appends into a segment reserved
// at its predecessor's size, the file store writes. Only a segment rotation
// allocates — the new segment and its bookkeeping — so the budget is per
// rotation, not per commit: a pending buffer made anew for every batch, or a
// segment that doubles its way up, costs at least one allocation per commit
// and fails here.
func TestAllocAppendForceSteadyState(t *testing.T) {
	const (
		commits     = 3000
		perRotation = 8 // measured: memory 4, file 6
	)
	stores := map[string]func(t *testing.T) SegmentStore{
		"memory": func(*testing.T) SegmentStore { return NewMemSegmentStore() },
		"file": func(t *testing.T) SegmentStore {
			s, err := NewFileSegmentStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
	}
	for name, open := range stores {
		t.Run(name, func(t *testing.T) {
			l, err := Open(open(t), Config{SegmentSize: 32 << 10})
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			undo := bytes.Repeat([]byte{0xA5}, 48)
			page := bytes.Repeat([]byte{0xC3}, pagestore.PageSize)
			deltas := []pagestore.PageDelta{{Page: 2, Off: 40, Data: page[40:140]}, {Page: 5, Off: 900, Data: page[900:960]}}
			txn := uint64(0)
			commit := func() {
				txn++
				if _, err := l.AppendOp(txn, undo, deltas); err != nil {
					t.Fatal(err)
				}
				lsn, err := l.AppendCommit(txn)
				if err == nil {
					err = l.Force(lsn)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			for l.Stats().Rotations < 3 { // warm: both buffers grown, a predecessor to size from
				commit()
			}
			var before, after runtime.MemStats
			r0 := l.Stats().Rotations
			runtime.ReadMemStats(&before)
			for i := 0; i < commits; i++ {
				commit()
			}
			runtime.ReadMemStats(&after)
			rotations := l.Stats().Rotations - r0
			if rotations < 10 {
				t.Fatalf("only %d rotations in %d commits", rotations, commits)
			}
			if allocs := after.Mallocs - before.Mallocs; allocs > rotations*perRotation {
				t.Errorf("%d commits over %d rotations allocated %d times (%.2f per commit), want at most %d per rotation and none between",
					commits, rotations, allocs, float64(allocs)/commits, perRotation)
			}
		})
	}
}
