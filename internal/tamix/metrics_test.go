package tamix

import (
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/wal"
)

// TestResultMetricsEqualLayerStats: a run's statistics are its registry
// snapshot, so after a quiesced local run — here the chaos mix over a seeded
// fault injector, which makes every compared counter non-zero — the snapshot
// and the counters the owning layers keep for themselves agree to the digit.
func TestResultMetricsEqualLayerStats(t *testing.T) {
	cfg := chaosConfig(11)
	cfg.Duration = 400 * time.Millisecond
	// On a loaded machine the 400 ms run makes about 30 backend reads and
	// writes, retried at most 5 times each (the buffer manager's retryMax).
	// Plan seed 40 at 10 % faults the first or second read and write, so
	// buffer.retries cannot stay at zero, and never faults 4 occurrences in a
	// row in the first 3000, so no retry budget runs out.
	cfg.Faults = &fault.Plan{Seed: 40}
	cfg.Faults.Prob[fault.PageRead], cfg.Faults.Prob[fault.PageWrite] = 0.1, 0.1
	p, err := protocol.Parse(cfg.Protocol)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	eng, cat, err := newLocalEngine(cfg, reg, wal.NewMemSegmentStore(), wal.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	res, err := runLocal(cfg, newResult(cfg, p), reg, eng, cat)
	if err != nil {
		t.Fatal(err)
	}
	mgr := eng.Manager()
	ls, bs := mgr.LockManager().Stats(), mgr.Document().Store().Stats()
	for name, want := range map[string]uint64{
		"lock.requests":             ls.Requests,
		"lock.waits":                ls.Waits,
		"lock.deadlocks":            ls.Deadlocks,
		"lock.conversion_deadlocks": ls.ConversionDeadlocks,
		"lock.timeouts":             ls.Timeouts,
		"lock.cache_hits":           ls.CacheHits,
		"buffer.retries":            bs.Retries,
		"buffer.retry_failures":     bs.RetryFailures,
		"fault.injected":            cfg.Faults.Injected(),
		"tx.committed":              uint64(res.Committed),
	} {
		if got := res.Metrics.CounterValue(name); got != want {
			t.Errorf("%s: snapshot says %d, the layer says %d", name, got, want)
		}
	}
	if ls.Requests == 0 || ls.Waits == 0 || ls.Deadlocks+ls.Timeouts == 0 || bs.Retries == 0 {
		t.Errorf("the run left a compared counter at zero (lock %+v, buffer retries %d): nothing was compared", ls, bs.Retries)
	}
}

// TestCountersSince: a remote run's share of the server's counters is the
// difference of two OpStats answers, name by name; after a server bounce the
// counters restart below the baseline and the post-restart value is reported.
func TestCountersSince(t *testing.T) {
	before := &metrics.Snapshot{Counters: map[string]uint64{"lock.requests": 1000, "lock.waits": 40, "tx.committed": 7}}
	after := &metrics.Snapshot{Counters: map[string]uint64{"lock.requests": 1500, "lock.waits": 40, "tx.committed": 3, "lock.deadlocks": 2}}
	got := countersSince(after, before).Counters
	want := map[string]uint64{
		"lock.requests":  500, // plain difference
		"lock.waits":     0,
		"tx.committed":   3, // after < before: the server restarted mid-run
		"lock.deadlocks": 2, // no baseline: counted from zero
	}
	if len(got) != len(want) {
		t.Fatalf("countersSince = %v, want %v", got, want)
	}
	for name, v := range want {
		if got[name] != v {
			t.Errorf("%s = %d, want %d", name, got[name], v)
		}
	}
	// No baseline at all (the engine did not exist yet): after, unchanged.
	if d := countersSince(after, nil).Counters; d["lock.requests"] != 1500 || len(d) != len(after.Counters) {
		t.Errorf("countersSince(after, nil) = %v", d)
	}
}
