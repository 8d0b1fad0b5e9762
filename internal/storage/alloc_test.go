//go:build !race

// Allocation-regression guard for the logged write path. The race detector
// changes allocation behaviour, so this runs only in the non-race suite
// (make verify runs both).

package storage

import (
	"runtime"
	"testing"
)

// TestAllocLoggedSetValue pins what one warm, logged TxDoc.SetValue costs
// the allocator with no snapshot source installed: the value path's small
// copies (SPLID encodings, the old value, the record, the undo payload) and
// at most the log's pending buffer — and nothing page-sized. The capture
// recycles its pre-image buffers and entries, and the deltas go from the
// pinned frame straight into the log record, so a write that allocates a
// pre-image (8 KiB), a copy of its delta, or an encode buffer fails here.
func TestAllocLoggedSetValue(t *testing.T) {
	w := newWritePathDoc(t, 200)
	tx := w.d.ForTx(1)
	vals := [2][]byte{make([]byte, 64), make([]byte, 64)}
	vals[1][0] = 1
	i := 0
	write := func() {
		if err := tx.SetValue(w.texts[i%len(w.texts)], vals[i/len(w.texts)&1]); err != nil {
			t.Fatal(err)
		}
		i++
	}
	for i < 2*len(w.texts) { // warm: every page has its full image logged
		write()
	}

	const (
		runs      = 400
		maxAllocs = 10   // measured 9
		maxBytes  = 1024 // measured ~700
	)
	if avg := testing.AllocsPerRun(runs, write); avg > maxAllocs {
		t.Errorf("logged SetValue allocates %.1f times, want at most %d", avg, maxAllocs)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for n := 0; n < runs; n++ {
		write()
	}
	runtime.ReadMemStats(&after)
	if perOp := (after.TotalAlloc - before.TotalAlloc) / runs; perOp > maxBytes {
		t.Errorf("logged SetValue allocates %d B/op, want at most %d (a pre-image or a delta copy is %d)",
			perOp, maxBytes, 8192)
	}
}
