package lock

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"
)

// distinctPartitionResources returns n resources that hash to n different
// partitions of m.
func distinctPartitionResources(t *testing.T, m *Manager, n int) []Resource {
	t.Helper()
	if m.NumPartitions() < n {
		t.Fatalf("manager has %d partitions, need %d", m.NumPartitions(), n)
	}
	seen := make(map[int]bool)
	var out []Resource
	for i := 0; len(out) < n && i < 10000; i++ {
		res := Resource(fmt.Sprintf("xp-%d", i))
		if p := m.PartitionOf(res); !seen[p] {
			seen[p] = true
			out = append(out, res)
		}
	}
	if len(out) < n {
		t.Fatalf("could not find %d distinct partitions", n)
	}
	return out
}

func waitBlocked(t *testing.T, m *Manager, tx *Tx) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !m.Waiting(tx) {
		if time.Now().After(deadline) {
			t.Fatal("transaction never blocked")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestCrossPartitionDeadlock builds a three-transaction cycle whose wait
// edges span three different partitions — the case the dedicated detector
// goroutine exists for, since no single-partition view can see the cycle.
func TestCrossPartitionDeadlock(t *testing.T) {
	var mu sync.Mutex
	var infos []DeadlockInfo
	m := newMgr(t, Options{onDeadlock: func(info DeadlockInfo) {
		mu.Lock()
		infos = append(infos, info)
		mu.Unlock()
	}})
	rs := distinctPartitionResources(t, m, 3)
	a, b, c := rs[0], rs[1], rs[2]

	t1, t2, t3 := m.Begin(), m.Begin(), m.Begin()
	for _, g := range []struct {
		tx  *Tx
		res Resource
	}{{t1, a}, {t2, b}, {t3, c}} {
		if err := m.Lock(g.tx, g.res, tX, false); err != nil {
			t.Fatal(err)
		}
	}

	ch1 := make(chan error, 1)
	go func() { ch1 <- m.Lock(t1, b, tX, false) }()
	waitBlocked(t, m, t1)
	ch2 := make(chan error, 1)
	go func() { ch2 <- m.Lock(t2, c, tX, false) }()
	waitBlocked(t, m, t2)

	// t3 closes the cycle t1→t2→t3→t1 and, as the youngest member, is the
	// victim.
	if err := m.Lock(t3, a, tX, false); err != ErrDeadlockVictim {
		t.Fatalf("t3 got %v, want ErrDeadlockVictim", err)
	}

	st := m.Stats()
	if st.Deadlocks != 1 || st.SubtreeDeadlocks != 1 || st.ConversionDeadlocks != 0 {
		t.Fatalf("stats %+v: want exactly one non-conversion deadlock", st)
	}
	mu.Lock()
	if len(infos) != 1 {
		t.Fatalf("got %d deadlock reports, want 1", len(infos))
	}
	info := infos[0]
	mu.Unlock()
	if info.Victim != t3.ID() {
		t.Fatalf("victim %d, want %d (youngest)", info.Victim, t3.ID())
	}
	if len(info.Members) != 3 {
		t.Fatalf("cycle members %v, want 3", info.Members)
	}
	if info.Conversion {
		t.Fatal("plain lock cycle misclassified as conversion deadlock")
	}
	parts := make(map[int]bool)
	for _, res := range info.Resources {
		parts[m.PartitionOf(res)] = true
	}
	if len(parts) != 3 {
		t.Fatalf("cycle resources %v span %d partitions, want 3", info.Resources, len(parts))
	}

	// The victim keeps its locks until released; unwinding it lets the
	// survivors drain in dependency order.
	m.ReleaseAll(t3)
	if err := <-ch2; err != nil {
		t.Fatalf("t2 after victim release: %v", err)
	}
	m.ReleaseAll(t2)
	if err := <-ch1; err != nil {
		t.Fatalf("t1 after t2 release: %v", err)
	}
	m.ReleaseAll(t1)
}

// TestCrossPartitionConversionDeadlock puts a conversion edge and a plain
// edge on different partitions and checks the cycle is still classified as
// a conversion deadlock (the paper's distinguishing metric).
func TestCrossPartitionConversionDeadlock(t *testing.T) {
	var mu sync.Mutex
	var infos []DeadlockInfo
	m := newMgr(t, Options{onDeadlock: func(info DeadlockInfo) {
		mu.Lock()
		infos = append(infos, info)
		mu.Unlock()
	}})
	rs := distinctPartitionResources(t, m, 2)
	a, b := rs[0], rs[1]

	t1, t2 := m.Begin(), m.Begin()
	if err := m.Lock(t2, a, tS, false); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(t2, b, tX, false); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(t1, a, tS, false); err != nil {
		t.Fatal(err)
	}

	ch1 := make(chan error, 1)
	go func() { ch1 <- m.Lock(t1, b, tX, false) }()
	waitBlocked(t, m, t1)

	// t2 upgrades S→X on a, blocked by t1's S: a conversion wait that closes
	// the cycle. t2 is younger, so it is the victim.
	if err := m.Lock(t2, a, tX, false); err != ErrDeadlockVictim {
		t.Fatalf("t2 got %v, want ErrDeadlockVictim", err)
	}

	st := m.Stats()
	if st.Deadlocks != 1 || st.ConversionDeadlocks != 1 || st.SubtreeDeadlocks != 0 {
		t.Fatalf("stats %+v: want exactly one conversion deadlock", st)
	}
	mu.Lock()
	if len(infos) != 1 || !infos[0].Conversion || infos[0].Victim != t2.ID() {
		t.Fatalf("deadlock report %+v: want conversion cycle with victim %d", infos, t2.ID())
	}
	mu.Unlock()

	m.ReleaseAll(t2)
	if err := <-ch1; err != nil {
		t.Fatalf("t1 after victim release: %v", err)
	}
	m.ReleaseAll(t1)
}

// TestCacheLifecycle pins down when the per-transaction cache answers a
// request and — more importantly — when it must not: doomed and finished
// transactions, and short-duration locks.
func TestCacheLifecycle(t *testing.T) {
	m := newMgr(t, Options{})
	t1 := m.Begin()
	a, b := Resource("cl-a"), Resource("cl-b")

	if err := m.Lock(t1, a, tIX, false); err != nil {
		t.Fatal(err)
	}
	if hits := m.Stats().CacheHits; hits != 0 {
		t.Fatalf("fresh grant counted as cache hit (%d)", hits)
	}
	// Re-request at equal and at weaker strength: both covered by the cache.
	if err := m.Lock(t1, a, tIX, false); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(t1, a, tIS, false); err != nil {
		t.Fatal(err)
	}
	if hits := m.Stats().CacheHits; hits != 2 {
		t.Fatalf("CacheHits = %d, want 2", hits)
	}
	// A strengthening request must bypass the cache and convert.
	if err := m.Lock(t1, a, tX, false); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.CacheHits != 2 || st.Conversions != 1 {
		t.Fatalf("conversion went through the cache: %+v", st)
	}
	if got := m.HeldMode(t1, a); got != tX {
		t.Fatalf("held %v, want %v", got, tX)
	}

	// Short locks are never cached: re-requesting one touches the table.
	if err := m.Lock(t1, b, tS, true); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(t1, b, tS, true); err != nil {
		t.Fatal(err)
	}
	if hits := m.Stats().CacheHits; hits != 2 {
		t.Fatalf("short lock re-request hit the cache (CacheHits=%d)", hits)
	}
	m.ReleaseShort(t1)
	if got := m.HeldMode(t1, b); got != ModeNone {
		t.Fatalf("short lock survived ReleaseShort: %v", got)
	}

	// After ReleaseAll, a cached resource must yield ErrTxDone, not a stale
	// grant.
	m.ReleaseAll(t1)
	if err := m.Lock(t1, a, tIS, false); err != ErrTxDone {
		t.Fatalf("finished tx got %v, want ErrTxDone", err)
	}
}

// TestCacheDoomedTx checks that dooming a transaction takes priority over
// its cache: a deadlock victim re-requesting a resource it still holds (and
// had cached) must see ErrDeadlockVictim, not a stale cache hit.
func TestCacheDoomedTx(t *testing.T) {
	m := newMgr(t, Options{})
	rs := distinctPartitionResources(t, m, 2)
	c1, c2 := rs[0], rs[1]

	t2, t3 := m.Begin(), m.Begin()
	if err := m.Lock(t2, c1, tX, false); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(t3, c2, tX, false); err != nil {
		t.Fatal(err)
	}
	// Warm t3's cache on c2 and remember the hit count.
	if err := m.Lock(t3, c2, tIS, false); err != nil {
		t.Fatal(err)
	}
	hitsBefore := m.Stats().CacheHits

	ch2 := make(chan error, 1)
	go func() { ch2 <- m.Lock(t2, c2, tX, false) }()
	waitBlocked(t, m, t2)
	if err := m.Lock(t3, c1, tX, false); err != ErrDeadlockVictim {
		t.Fatalf("t3 got %v, want ErrDeadlockVictim", err)
	}

	// t3 still holds c2 and has it cached, but it is doomed now.
	if err := m.Lock(t3, c2, tIS, false); err != ErrDeadlockVictim {
		t.Fatalf("doomed tx got %v from a cached resource, want ErrDeadlockVictim", err)
	}
	if hits := m.Stats().CacheHits; hits != hitsBefore {
		t.Fatalf("doomed tx produced a cache hit (%d -> %d)", hitsBefore, hits)
	}

	// Release the victim; the survivor's blocked request completes, and a
	// restarted transaction can take over the resources.
	m.ReleaseAll(t3)
	if err := <-ch2; err != nil {
		t.Fatalf("t2 after victim release: %v", err)
	}
	m.ReleaseAll(t2)
	t4 := m.Begin()
	if err := m.Lock(t4, c2, tX, false); err != nil {
		t.Fatalf("restarted tx: %v", err)
	}
	m.ReleaseAll(t4)
}

// TestDumpDeterministic renders the same lock-table state twice and demands
// byte-identical output — the partition maps underneath iterate in random
// order, so any difference means the dump forgot to sort.
func TestDumpDeterministic(t *testing.T) {
	m := newMgr(t, Options{})
	t1, t2 := m.Begin(), m.Begin()
	for i := 0; i < 12; i++ {
		res := Resource(fmt.Sprintf("dump-%d", i))
		if err := m.Lock(t1, res, tIS, false); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			if err := m.Lock(t2, res, tIS, i%4 == 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	render := func() string {
		var buf bytes.Buffer
		m.Snapshot().Render(&buf)
		return buf.String()
	}
	first := render()
	for i := 0; i < 10; i++ {
		if got := render(); got != first {
			t.Fatalf("render %d differs:\n%s\n--- vs ---\n%s", i, got, first)
		}
	}
	snap := m.Snapshot()
	if snap.Partitions != m.NumPartitions() {
		t.Fatalf("snapshot reports %d partitions, manager has %d", snap.Partitions, m.NumPartitions())
	}
	m.ReleaseAll(t1)
	m.ReleaseAll(t2)
}
