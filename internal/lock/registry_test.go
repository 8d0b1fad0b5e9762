package lock

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/splid"
)

// collideBuckets puts every resource of a stripe in one bucket until the test
// ends — the registry test of apache-lucy's LockFreeRegistry, whose keys hash
// to 1. Call it before building managers, so they are closed before the
// bucket choice is restored.
func collideBuckets(t *testing.T) {
	old := bucketHash
	bucketHash = func(uint64) uint64 { return 1 }
	t.Cleanup(func() { bucketHash = old })
}

// siblingKeys returns the lock names of n siblings under 1.3.5 — what
// protocol.nodeRes builds for one parent's children.
func siblingKeys(n int) []Resource {
	parent := splid.MustParse("1.3.5")
	out := make([]Resource, n)
	for k := range out {
		out[k] = Resource(parent.Child(uint32(2*k + 3)).Key())
	}
	return out
}

// TestHeadIndexSpreadsSiblingLabels inserts one parent's children into one
// index and gates the slots a successful lookup walks. The raw high bits of
// FNV-1a put 1 024 siblings in 2 of 512 buckets (453 slots per lookup).
func TestHeadIndexSpreadsSiblingLabels(t *testing.T) {
	for _, n := range []int{256, 1024, 4096} {
		var ix headIndex
		ix.init()
		keys := siblingKeys(n)
		for _, res := range keys {
			ix.insertLocked(res, fnv1a(string(res)), &lockHead{})
		}
		b := ix.buckets.Load()
		walked := 0
		for _, res := range keys {
			sl := b.bucketOf(fnv1a(string(res))).Load()
			for walked++; sl.res != res; walked++ {
				sl = sl.next.Load()
			}
		}
		used := 0
		for i := range b.slots {
			if b.slots[i].Load() != nil {
				used++
			}
		}
		perLookup := float64(walked) / float64(n)
		t.Logf("n=%d: %.2f slots per lookup, %d of %d buckets used", n, perLookup, used, len(b.slots))
		if perLookup > 2.0 {
			t.Errorf("n=%d: a lookup walks %.2f slots, want <= 2.0", n, perLookup)
		}
		if 4*used < 3*len(b.slots) {
			t.Errorf("n=%d: %d of %d buckets used, want >= 75 %%", n, used, len(b.slots))
		}
	}
}

// TestHeadIndexEqualHashes is Lucy's registry test: keys with an equal hash
// that are not equal are told apart, and an absent key fetches nil.
func TestHeadIndexEqualHashes(t *testing.T) {
	var ix headIndex
	ix.init()
	foo, bar := &lockHead{}, &lockHead{}
	ix.insertLocked("foo", 1, foo)
	ix.insertLocked("bar", 1, bar)
	if got := ix.lookup("foo", 1); got != foo {
		t.Errorf("lookup(foo) = %p, want %p", got, foo)
	}
	if got := ix.lookup("bar", 1); got != bar {
		t.Errorf("lookup(bar) = %p, want %p", got, bar)
	}
	if got := ix.lookup("baz", 1); got != nil {
		t.Errorf("lookup(baz) = %p, want nil", got)
	}
}

// TestHeadIndexGrowAndGCUnderCollision grows a one-stripe table whose
// resources all share a bucket, then collects it twice: once with half the
// resources still held, once empty. Held heads survive and stay their
// entries' heads; released ones leave the index.
func TestHeadIndexGrowAndGCUnderCollision(t *testing.T) {
	collideBuckets(t)
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
	if got := len(s.index.buckets.Load().slots); got < n/2 {
		t.Fatalf("index never grew: %d buckets for %d heads", got, n)
	}
	m.ReleaseAll(drop)
	gc := func() {
		s.mu.Lock()
		m.gcStripeLocked(s)
		s.mu.Unlock()
	}
	gc()
	if s.index.count != n/2 {
		t.Fatalf("after GC: %d heads indexed, want %d", s.index.count, n/2)
	}
	for i := 0; i < n; i++ {
		h := m.headOf(res(i))
		if i%2 == 1 {
			if h != nil {
				t.Fatalf("%s: released head still indexed", res(i))
			}
			continue
		}
		if h == nil || keep.held[res(i)].head != h {
			t.Fatalf("%s: held entry's head %p is not the live indexed head %p", res(i), keep.held[res(i)].head, h)
		}
	}
	m.ReleaseAll(keep)
	gc()
	if s.index.count != 0 {
		t.Fatalf("after releasing everything and GC: %d heads indexed", s.index.count)
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

// TestSuitesUnderFullCollision runs the equivalence oracle, the stress
// invariant and the observer storm again with every resource of a stripe in
// one bucket, so every lookup walks a shared chain.
func TestSuitesUnderFullCollision(t *testing.T) {
	collideBuckets(t)
	t.Run("equivalence", TestEquivalenceRandomized)
	t.Run("stress", TestStressInvariant)
	t.Run("storm", TestObserverStorm)
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
