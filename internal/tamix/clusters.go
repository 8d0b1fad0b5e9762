package tamix

import (
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/pagestore"
	"repro/internal/tx"
)

// Timing bundles the paper's run-control parameters (Section 4.3). Scale
// shrinks them proportionally so full parameter sweeps fit in tests and CI
// while preserving the ratio of think time to work time.
type Timing struct {
	Duration           time.Duration
	WaitAfterCommit    time.Duration
	WaitAfterOperation time.Duration
	MaxStartDelay      time.Duration
	LockTimeout        time.Duration
}

// PaperTiming is the original setting: 5-minute runs, 2500 ms after commit,
// 100 ms after each operation, 0-5000 ms start delay.
func PaperTiming() Timing {
	return Timing{
		Duration:           5 * time.Minute,
		WaitAfterCommit:    2500 * time.Millisecond,
		WaitAfterOperation: 100 * time.Millisecond,
		MaxStartDelay:      5000 * time.Millisecond,
		LockTimeout:        30 * time.Second,
	}
}

// ScaledTiming multiplies every paper interval by s (0 < s <= 1). The lock
// timeout shrinks more cautiously so scaled runs still separate blocking
// from deadlock.
func ScaledTiming(s float64) Timing {
	p := PaperTiming()
	scale := func(d time.Duration) time.Duration {
		v := time.Duration(float64(d) * s)
		if v < time.Millisecond {
			v = time.Millisecond
		}
		return v
	}
	return Timing{
		Duration:           scale(p.Duration),
		WaitAfterCommit:    scale(p.WaitAfterCommit),
		WaitAfterOperation: scale(p.WaitAfterOperation),
		MaxStartDelay:      scale(p.MaxStartDelay),
		LockTimeout:        scale(p.LockTimeout/10) + 2*time.Second,
	}
}

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
// timeScale (run-control intervals).
func Cluster1Config(protocolName string, iso tx.Level, depth int, docScale, timeScale float64) Config {
	t := ScaledTiming(timeScale)
	return Config{
		Protocol:           protocolName,
		Isolation:          iso,
		Depth:              depth,
		Clients:            3,
		Mix:                Cluster1Mix(),
		Duration:           t.Duration,
		WaitAfterCommit:    t.WaitAfterCommit,
		WaitAfterOperation: t.WaitAfterOperation,
		MaxStartDelay:      t.MaxStartDelay,
		LockTimeout:        t.LockTimeout,
		Bib:                Scaled(docScale),
		Seed:               42,
	}
}

// Cluster2Result reports the CLUSTER2 metric for one protocol: the
// execution time of TAdelBook in single-user mode at isolation level
// repeatable (Section 5.3). LockRequests exposes the locking overhead that
// produces the time difference.
type Cluster2Result struct {
	Protocol     string
	Runs         int
	TotalTime    time.Duration
	AvgTime      time.Duration
	LockRequests uint64
}

// RunCluster2 executes TAdelBook `runs` times single-user under the given
// protocol (each run deletes a different book) and reports the average
// execution time. The *-2PL protocols pay for the subtree search that
// IDX-locks every element owning an ID attribute; the intention-lock
// protocols do not.
func RunCluster2(protocolName string, docScale float64, runs int) (*Cluster2Result, error) {
	doc, cat, err := GenerateBib(pagestore.NewMemBackend(), Scaled(docScale))
	if err != nil {
		return nil, err
	}
	depth := 4
	eng, err := core.Wrap(doc, nil, core.Config{Protocol: protocolName, LockDepth: &depth})
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	mgr := eng.Manager()
	if runs > len(cat.TopicIDs) {
		runs = len(cat.TopicIDs)
	}
	res := &Cluster2Result{Protocol: protocolName, Runs: runs}
	for i := 0; i < runs; i++ {
		// Deterministic topic choice so every protocol deletes comparable
		// subtrees.
		r := newRunner(&localEngine{m: mgr}, &Catalog{
			TopicIDs: []string{cat.TopicIDs[i]},
			BookIDs:  cat.BookIDs,
		}, newSeededRand(int64(i)))
		txn := mgr.Begin(tx.LevelRepeatable)
		t0 := time.Now()
		if err := r.run(TAdelBook, txn); err != nil {
			txn.Abort()
			return nil, err
		}
		if err := txn.Commit(); err != nil {
			return nil, err
		}
		res.TotalTime += time.Since(t0)
	}
	if res.Runs > 0 {
		res.AvgTime = res.TotalTime / time.Duration(res.Runs)
	}
	res.LockRequests = mgr.LockManager().Stats().Requests
	return res, nil
}

func newSeededRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
