package tamix

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/node"
	"repro/internal/protocol"
	"repro/internal/tx"
)

// Cluster1Mix is the CLUSTER1 per-client mix: 9 TAqueryBook, 5 TAchapter,
// 2 TArenameTopic, 8 TAlendAndReturn (24 per client; with 3 clients the
// coordinator keeps 72 transactions active).
func Cluster1Mix() map[TxType]int {
	return map[TxType]int{
		TAqueryBook:     9,
		TAchapter:       5,
		TArenameTopic:   2,
		TAlendAndReturn: 8,
	}
}

// Cluster1Config assembles the CLUSTER1 workload for one protocol,
// isolation level, and lock depth, scaled by docScale (document size) and
// timeScale (run-control intervals). At timeScale 1 the intervals are the
// paper's (Section 4.3): 5-minute runs, 2500 ms after commit, 100 ms after
// each operation, 0-5000 ms start delay. Scaling keeps the ratio of think
// time to work time, and every interval at least 1 ms.
func Cluster1Config(protocolName string, iso tx.Level, depth int, docScale, timeScale float64) Config {
	scale := func(d time.Duration) time.Duration {
		return max(time.Duration(float64(d)*timeScale), time.Millisecond)
	}
	return Config{
		Protocol:           protocolName,
		Isolation:          iso,
		Depth:              depth,
		Clients:            3,
		Mix:                Cluster1Mix(),
		Duration:           scale(5 * time.Minute),
		WaitAfterCommit:    scale(2500 * time.Millisecond),
		WaitAfterOperation: scale(100 * time.Millisecond),
		MaxStartDelay:      scale(5000 * time.Millisecond),
		// The lock timeout shrinks more cautiously, so scaled runs still
		// separate blocking from deadlock.
		LockTimeout: scale(3*time.Second) + 2*time.Second,
		Bib:         Scaled(docScale),
		Seed:        42,
	}
}

// Serial is Run's deterministic counterpart: txns transactions on mgr, one
// after the other on one worker with no think time, each of a type drawn
// uniformly from mix's slots by a generator seeded with seed. With nothing
// running beside it no transaction waits or aborts, so what it counts — lock
// requests per protocol and lock depth, subtree scans — repeats exactly. The
// snapshot contestant's readers run at tx.LevelSnapshot, as in Run. Every
// transaction commits, or Serial stops at the first that does not.
func Serial(mgr *node.Manager, cat *Catalog, mix map[TxType]int, iso tx.Level, seed int64, txns int) error {
	var slots []TxType
	for _, t := range TxTypes {
		for i := 0; i < mix[t]; i++ {
			slots = append(slots, t)
		}
	}
	r := newRunner(&localEngine{m: mgr}, cat, rand.New(rand.NewSource(seed)))
	for i := 0; i < txns; i++ {
		typ := slots[r.rng.Intn(len(slots))]
		level := iso
		if protocol.UsesSnapshotReads(mgr.Protocol()) && typ.ReadOnly() {
			level = tx.LevelSnapshot
		}
		txn := mgr.Begin(level)
		if err := r.run(typ, txn); err != nil {
			txn.Abort()
			return fmt.Errorf("tamix: %s: %w", typ, err)
		}
		if err := txn.Commit(); err != nil {
			return fmt.Errorf("tamix: %s: commit: %w", typ, err)
		}
	}
	return nil
}
