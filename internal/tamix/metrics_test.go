package tamix

import (
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/pagestore"
	"repro/internal/protocol"
)

// TestResultMetricsEqualLayerStats: a run's statistics are its registry
// snapshot, so after a quiesced local run — here the chaos mix over a seeded
// fault injector, which makes every compared counter non-zero — the snapshot
// and the counters the owning layers keep for themselves agree to the digit.
func TestResultMetricsEqualLayerStats(t *testing.T) {
	cfg := chaosConfig(11)
	cfg.Duration = 400 * time.Millisecond
	// On a loaded machine the 400 ms run makes about 30 backend reads and
	// writes: at 5 % the seeded injector drew no fault in them and
	// buffer.retries stayed at zero; at 25 % that takes 0.75^30 ≈ 0.02 %.
	cfg.Faults = &pagestore.FaultConfig{Seed: 11, ReadProb: 0.25, WriteProb: 0.25}
	p, err := protocol.Parse(cfg.Protocol)
	if err != nil {
		t.Fatal(err)
	}
	cfg.WAL = true
	cfg.Retry = &pagestore.RetryPolicy{
		MaxRetries: 8, BaseBackoff: 20 * time.Microsecond, MaxBackoff: 500 * time.Microsecond,
	}
	reg := metrics.NewRegistry()
	eng, cat, err := newLocalEngine(cfg, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	res, err := runLocal(cfg, newResult(cfg, p), reg, eng, cat, nil)
	if err != nil {
		t.Fatal(err)
	}
	mgr := eng.Manager()
	ls, bs, fs := mgr.LockManager().Stats(), mgr.Document().Store().Stats(), eng.Faults().Stats()
	for name, want := range map[string]uint64{
		"lock.requests":             ls.Requests,
		"lock.waits":                ls.Waits,
		"lock.deadlocks":            ls.Deadlocks,
		"lock.conversion_deadlocks": ls.ConversionDeadlocks,
		"lock.timeouts":             ls.Timeouts,
		"lock.cache_hits":           ls.CacheHits,
		"buffer.retries":            bs.Retries,
		"buffer.retry_failures":     bs.RetryFailures,
		"fault.injected":            fs.TotalInjected(),
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
