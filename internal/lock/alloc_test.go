//go:build !race

// Allocation-regression guards for lock acquisition and release: the warm
// path of cache hits and the uncontended turnover cycle. The race
// detector instruments allocations and disables pooling heuristics, so these
// run only in the non-race suite (make verify runs both).

package lock

import (
	"fmt"
	"testing"
)

// mustWalk locks one ancestor path root first and then a leaf, one Lock
// call per request — the protocol layer's calling convention.
func mustWalk(m *Manager, tx *Tx, ancestors []Resource, leaf Resource) {
	if err := seqWalk(m.Lock, tx, ancestors, leaf); err != nil {
		panic(err)
	}
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
	mustWalk(m, tx, ancestors, leaves[0])

	avg := testing.AllocsPerRun(100, func() {
		mustWalk(m, tx, ancestors, leaves[0])
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
	cycle := func() {
		tx := m.Begin()
		for i := 0; i < 64; i++ {
			mustWalk(m, tx, ancestors, leaves[i%len(leaves)])
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
