//go:build !race

// Allocation guard for a whole loopback round trip. The race detector
// instruments allocations, so this runs only in the non-race suite.

package client_test

import (
	"testing"

	"repro/internal/bibserve"
	"repro/internal/client"
	"repro/internal/server"
	"repro/internal/tamix"
	"repro/internal/tx"
)

// TestAllocLoopbackRoundTrip pins what one warm round trip allocates, client
// and server together (AllocsPerRun counts the whole process, and both run in
// this one): a Ping, which is transport and nothing else, and a FirstChild,
// of whose 21 node.Manager.Do makes 17 (server.TestAllocTableDrivenRoundTrip
// pins those); the other four are the request's and the reply's copy out of
// the read buffer and the SPLID each side decodes. Before frames were read
// and built in per-connection buffers the two cost 62 and 18; before the
// read primitives ran on one cursor a FirstChild cost 44.
func TestAllocLoopbackRoundTrip(t *testing.T) {
	srv, err := bibserve.Start(bibserve.Options{Bib: tamix.Scaled(0.01)}, server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, srv)
	pool, err := client.Dial(srv.Addr(), client.Options{Conns: 1, HeartbeatInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	s, err := pool.OpenSession("taDOM3+", tx.LevelRepeatable, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cat, err := s.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	txn, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	book, err := s.JumpToID(cat.Books[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		ceiling float64
		trip    func() error
	}{
		{"FirstChild", 23, func() error { _, err := s.FirstChild(book.ID); return err }},
		{"Ping", 3, func() error { return client.PingRoundTrip(pool) }},
	} {
		got := testing.AllocsPerRun(500, func() {
			if err := c.trip(); err != nil {
				t.Fatal(err)
			}
		})
		if got > c.ceiling {
			t.Errorf("%s: %.0f allocs per loopback round trip, ceiling %.0f", c.name, got, c.ceiling)
		}
		t.Logf("%s: %.0f allocs (ceiling %.0f)", c.name, got, c.ceiling)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
}
