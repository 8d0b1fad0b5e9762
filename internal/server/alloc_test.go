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
// allocations from encode through dispatch to decode, with request and reply
// encoded into reused buffers as a connection's frame buffers are: what is
// left is execute (node.Manager.Do, nearly all of it) and the decoders. The
// ceilings only ever go down — 47/201 when every stage allocated its own
// buffer and AppendID a scratch encoding per SPLID, 42/190 while every read
// primitive descended once per child and copied each key before decoding it.
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
		{wire.OpFirstChild, 21},
		{wire.OpGetChildren, 52},
	} {
		got := testing.AllocsPerRun(500, func() {
			if _, err := w.do(c.op, wire.Args{ID: book.Node.ID}); err != nil {
				t.Fatal(err)
			}
		})
		if got > c.ceiling {
			t.Errorf("%s: %.0f allocs per encode→dispatch→decode, ceiling %.0f", c.op, got, c.ceiling)
		}
		t.Logf("%s: %.0f allocs (ceiling %.0f)", c.op, got, c.ceiling)
	}
}
