//go:build !race

// Allocation-regression guards for the lock-acquire fast path. The race
// detector instruments allocations and disables pooling heuristics, so these
// run only in the non-race suite (make verify runs both).

package lock

import (
	"fmt"
	"testing"
)

// allocWalk issues one ancestor-path-plus-leaf batch, reusing the caller's
// request buffer — the protocol layer's hot-path calling convention.
func allocWalk(m *Manager, tx *Tx, reqs []Req, ancestors []Resource, leaf Resource) []Req {
	reqs = reqs[:0]
	for _, res := range ancestors {
		reqs = append(reqs, Req{Res: res, Mode: tIS})
	}
	reqs = append(reqs, Req{Res: leaf, Mode: tS})
	if err := m.LockBatch(tx, reqs); err != nil {
		panic(err)
	}
	return reqs
}

func allocFixture() (ancestors []Resource, leaves []Resource) {
	ancestors = []Resource{"a/r", "a/r/b", "a/r/b/c", "a/r/b/c/d", "a/r/b/c/d/e"}
	for j := 0; j < 32; j++ {
		leaves = append(leaves, Resource(fmt.Sprintf("a/r/b/c/d/e/leaf-%d", j)))
	}
	return
}

// TestAllocWarmPathZero pins the warm re-traversal path — every request a
// cache hit — at zero allocations per walk.
func TestAllocWarmPathZero(t *testing.T) {
	m := NewManager(testTable(), Options{})
	defer m.Close()
	ancestors, leaves := allocFixture()
	tx := m.Begin()
	defer m.ReleaseAll(tx)
	reqs := make([]Req, 0, 8)
	reqs = allocWalk(m, tx, reqs, ancestors, leaves[0])

	avg := testing.AllocsPerRun(100, func() {
		reqs = allocWalk(m, tx, reqs, ancestors, leaves[0])
	})
	if avg != 0 {
		t.Fatalf("warm path walk allocated %.2f times, want 0", avg)
	}
}

// TestAllocUncontendedTurnover pins the full uncontended transaction cycle —
// Begin, 64 path walks over 32 leaves, ReleaseAll — at no more than 3
// allocations (measured 2). With warm pools the Tx itself is the only one on
// the turnover path: its held map and ReleaseAll's snapshot of it are the
// manager's, borrowed and handed back. A held map made per transaction (it
// alone is 3 allocations) fails here, as does anything per grant or per walk.
func TestAllocUncontendedTurnover(t *testing.T) {
	m := NewManager(testTable(), Options{})
	defer m.Close()
	ancestors, leaves := allocFixture()
	reqs := make([]Req, 0, 8)
	cycle := func() {
		tx := m.Begin()
		for i := 0; i < 64; i++ {
			reqs = allocWalk(m, tx, reqs, ancestors, leaves[i%len(leaves)])
		}
		m.ReleaseAll(tx)
	}
	cycle() // warm the entry/request pools

	avg := testing.AllocsPerRun(10, cycle)
	const walks, budget = 64, 3
	if avg > budget {
		t.Fatalf("uncontended turnover cycle allocated %.1f times (%.3f per walk), want <= %d per %d-walk cycle",
			avg, avg/walks, budget, walks)
	}
}
