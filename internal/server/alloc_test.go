//go:build !race

// Allocation guard for the table-driven request path. The race detector
// instruments allocations, so this runs only in the non-race suite (make
// verify runs both).

package server

import (
	"testing"

	"repro/internal/wire"
)

// TestAllocTableDrivenRoundTrip pins what one warm request costs in
// allocations from encode through dispatch to decode. The ceilings are the
// figures of the hand-written per-op switch this path replaced (measured at
// the parent commit on the same document, transaction and book): Args and
// Result travel by value, so the table may not cost an allocation more.
func TestAllocTableDrivenRoundTrip(t *testing.T) {
	eng, cat := newBibEngine(t)
	w := newWired(t, eng)
	book, err := w.do(wire.OpJumpToID, wire.Args{Name: cat.BookIDs[0]})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		op      wire.Op
		ceiling float64
	}{
		{wire.OpFirstChild, 47},
		{wire.OpGetChildren, 201},
	} {
		got := testing.AllocsPerRun(500, func() {
			if _, err := w.do(c.op, wire.Args{ID: book.Node.ID}); err != nil {
				t.Fatal(err)
			}
		})
		if got > c.ceiling {
			t.Errorf("%s: %.0f allocs per encode→dispatch→decode, hand-written path took %.0f", c.op, got, c.ceiling)
		}
		t.Logf("%s: %.0f allocs (ceiling %.0f)", c.op, got, c.ceiling)
	}
}
