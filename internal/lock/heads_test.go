package lock

import (
	"fmt"
	"testing"
	"time"
)

// TestHeadGCKeepsHeldHeads fills a one-stripe table, then collects it
// twice: once with half the resources still held, once empty. Held heads
// survive and stay their entries' heads; released ones leave the map.
func TestHeadGCKeepsHeldHeads(t *testing.T) {
	m := newMgr(t, Options{stripes: 1})
	s := &m.stripes[0]
	keep, drop := m.Begin(), m.Begin()
	const n = 200
	res := func(i int) Resource { return Resource(fmt.Sprintf("gc-%d", i)) }
	for i := 0; i < n; i++ {
		tx := keep
		if i%2 == 1 {
			tx = drop
		}
		if err := m.Lock(tx, res(i), tX, false); err != nil {
			t.Fatal(err)
		}
	}
	m.ReleaseAll(drop)
	gc := func() {
		s.mu.Lock()
		m.gcStripeLocked(s)
		s.mu.Unlock()
	}
	gc()
	if len(s.heads) != n/2 {
		t.Fatalf("after GC: %d heads mapped, want %d", len(s.heads), n/2)
	}
	for i := 0; i < n; i++ {
		h := m.headOf(res(i))
		if i%2 == 1 {
			if h != nil {
				t.Fatalf("%s: released head still mapped", res(i))
			}
			continue
		}
		if h == nil || keep.held[res(i)].head != h {
			t.Fatalf("%s: held entry's head %p is not the live mapped head %p", res(i), keep.held[res(i)].head, h)
		}
	}
	m.ReleaseAll(keep)
	gc()
	if len(s.heads) != 0 {
		t.Fatalf("after releasing everything and GC: %d heads mapped", len(s.heads))
	}
	again := m.Begin()
	if err := m.Lock(again, res(1), tX, false); err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(again)
	if err := m.LeakCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestSweptGrantReleasesThroughItsHead grants two waiters by a sweep, one
// long and one short, then releases them by ReleaseShort (one of two
// holders) and ReleaseAll (the sole holder). Both go through the head the
// sweep recorded in the entry.
func TestSweptGrantReleasesThroughItsHead(t *testing.T) {
	m := newMgr(t, Options{Timeout: 5 * time.Second})
	const res = Resource("swept")
	owner, long, short := m.Begin(), m.Begin(), m.Begin()
	if err := m.Lock(owner, res, tX, false); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2)
	go func() { errs <- m.Lock(long, res, tS, false) }()
	waitBlocked(t, m, long)
	go func() { errs <- m.Lock(short, res, tS, true) }()
	waitBlocked(t, m, short)
	if n := m.stripes[m.PartitionOf(res)].waitingHeads.Load(); n != 1 {
		t.Fatalf("stripe counts %d heads with waiters, want 1", n)
	}
	m.ReleaseAll(owner)
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	h := m.headOf(res)
	for _, tx := range []*Tx{long, short} {
		if e := tx.held[res]; e == nil || e.head != h {
			t.Fatalf("tx%d: swept entry does not record its head", tx.ID())
		}
	}
	m.ReleaseShort(short)
	m.ReleaseAll(long)
	m.ReleaseAll(short)
	for i := range m.stripes {
		if n := m.stripes[i].waitingHeads.Load(); n != 0 {
			t.Fatalf("stripe %d still counts %d heads with waiters", i, n)
		}
	}
	if err := m.LeakCheck(); err != nil {
		t.Fatal(err)
	}
	next := m.Begin()
	if err := m.Lock(next, res, tX, false); err != nil {
		t.Fatalf("resource still held after both swept grants were released: %v", err)
	}
	m.ReleaseAll(next)
}
