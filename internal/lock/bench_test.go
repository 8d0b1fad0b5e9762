package lock

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/splid"
)

// benchSystem abstracts one lock-manager configuration so the contention
// benchmark drives each through the same workload: a transaction "walks" a
// five-level ancestor path in intention mode and then locks its own leaf —
// the navigation pattern the XML protocols issue on every operation.
type benchSystem[T any] struct {
	begin   func() T
	walk    func(tx T, ancestors []Resource, leaf Resource) error
	release func(tx T)
}

// benchScenario shapes the walk stream. turnover is how many walks a
// transaction performs before committing (its cache dies with it); leavesPer
// is how many distinct leaves each goroutine cycles through, so smaller
// values revisit leaves sooner. splidKeys names the resources by SPLID key,
// as protocol.nodeRes does, instead of by slash-joined path.
type benchScenario struct {
	turnover  int
	leavesPer int
	splidKeys bool
}

var benchScenarios = []struct {
	name string
	benchScenario
}{
	// turnover: transactions commit every 64 walks and caches are rebuilt
	// from scratch — a mixed stream of fresh grants, cache hits, and full
	// release cycles.
	{"turnover", benchScenario{turnover: 64, leavesPer: 32}},
	// warm: one long transaction re-traversing its working set — the
	// repeat-traversal hot path. Real protocol streams are dominated by it:
	// every operation re-locks the target's full ancestor path, so ancestor
	// re-requests outnumber first requests (50-60% cache-hit rates in the
	// tamix contest runs).
	{"warm", benchScenario{turnover: 1 << 30, leavesPer: 4}},
	// turnover-splid: turnover over the keys the engine locks. Every leaf is
	// a sibling under one parent, and sibling keys differ only in their last
	// bytes — the distribution the stripe hash and the stripe's map must
	// spread.
	{"turnover-splid", benchScenario{turnover: 64, leavesPer: 32, splidKeys: true}},
}

// benchContention measures path-walks per second under the given scenario.
func benchContention[T any](b *testing.B, goroutines int, sc benchScenario, sys benchSystem[T]) {
	ancestors := []Resource{
		"bench/r",
		"bench/r/a",
		"bench/r/a/b",
		"bench/r/a/b/c",
		"bench/r/a/b/c/d",
	}
	leaf := func(g, j int) Resource { return Resource(fmt.Sprintf("bench/r/a/b/c/d/leaf-%d-%d", g, j)) }
	if sc.splidKeys {
		parent := splid.MustParse("1.3.5.7.9")
		ancestors = ancestors[:0]
		for _, id := range append(parent.Ancestors(), parent) {
			ancestors = append(ancestors, Resource(id.Key()))
		}
		leaf = func(g, j int) Resource {
			return Resource(parent.Child(uint32(2*(g*sc.leavesPer+j) + 3)).Key())
		}
	}
	leaves := make([][]Resource, goroutines)
	for g := range leaves {
		leaves[g] = make([]Resource, sc.leavesPer)
		for j := range leaves[g] {
			leaves[g][j] = leaf(g, j)
		}
	}
	b.ResetTimer()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			n := b.N / goroutines
			if g < b.N%goroutines {
				n++
			}
			tx := sys.begin()
			for i := 0; i < n; i++ {
				if i%sc.turnover == sc.turnover-1 {
					sys.release(tx)
					tx = sys.begin()
				}
				if err := sys.walk(tx, ancestors, leaves[g][i%sc.leavesPer]); err != nil {
					b.Errorf("walk: %v", err)
					return
				}
			}
			sys.release(tx)
		}(g)
	}
	wg.Wait()
}

// BenchmarkLockTableContention compares the locking hot path of the striped
// table with the seed design under increasing goroutine counts:
//
//   - striped-lock: the lock table, one Lock per node — what the protocol
//     layer issues, answered mostly by the per-transaction cache
//   - singlemutex: the seed design, kept verbatim as the equivalence
//     oracle — one global mutex, one Lock call per node
//
// One benchmark op is one path-walk: five intention locks plus a leaf lock.
func BenchmarkLockTableContention(b *testing.B) {
	for _, sc := range benchScenarios {
		for _, g := range []int{1, 4, 16, 64} {
			b.Run(fmt.Sprintf("%s/striped-lock/goroutines=%d", sc.name, g), func(b *testing.B) {
				m := NewManager(testTable(), Options{})
				defer m.Close()
				benchContention(b, g, sc.benchScenario, benchSystem[*Tx]{
					begin:   m.Begin,
					walk:    func(tx *Tx, ancestors []Resource, leaf Resource) error { return seqWalk(m.Lock, tx, ancestors, leaf) },
					release: m.ReleaseAll,
				})
			})
			b.Run(fmt.Sprintf("%s/singlemutex/goroutines=%d", sc.name, g), func(b *testing.B) {
				m := newOracleManager(testTable(), Options{})
				benchContention(b, g, sc.benchScenario, benchSystem[*oracleTx]{
					begin: m.Begin,
					walk: func(tx *oracleTx, ancestors []Resource, leaf Resource) error {
						return seqWalk(m.Lock, tx, ancestors, leaf)
					},
					release: m.ReleaseAll,
				})
			})
		}
	}
}

func seqWalk[T any](lock func(T, Resource, Mode, bool) error, tx T, ancestors []Resource, leaf Resource) error {
	for _, res := range ancestors {
		if err := lock(tx, res, tIS, false); err != nil {
			return err
		}
	}
	return lock(tx, leaf, tS, false)
}
