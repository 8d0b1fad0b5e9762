package tamix

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/tx"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestTypeStatsMinDurRegression pins the 0-as-unset fix: a legitimate
// zero-duration commit must survive as the minimum, and an unset MinDur must
// not leak into comparisons. Under the old sentinel, record(0) left MinDur
// looking unset, so the next observation overwrote the true minimum.
func TestTypeStatsMinDurRegression(t *testing.T) {
	s := NewTypeStats()
	if s.MinDur != -1 {
		t.Fatalf("fresh MinDur = %v, want -1 (unset)", s.MinDur)
	}
	s.record(0)
	s.record(10 * time.Millisecond)
	if s.MinDur != 0 {
		t.Fatalf("MinDur = %v after a zero-duration commit, want 0", s.MinDur)
	}
	if s.MaxDur != 10*time.Millisecond || s.Committed != 2 {
		t.Fatalf("stats off: %+v", s)
	}

	s2 := NewTypeStats()
	s2.record(7 * time.Millisecond)
	s2.record(3 * time.Millisecond)
	s2.record(9 * time.Millisecond)
	if s2.MinDur != 3*time.Millisecond {
		t.Fatalf("MinDur = %v, want 3ms", s2.MinDur)
	}
}

// TestResultMerge: Merge adds two runs' totals and per-type statistics, the
// merged totals equal the sum of the merged per-type statistics, an unset
// MinDur never wins, and a zero-duration minimum survives.
func TestResultMerge(t *testing.T) {
	run := func(elapsed time.Duration, durs ...time.Duration) *Result {
		res := newResult(Config{}, protocol.All()[0])
		res.Elapsed = elapsed
		for _, d := range durs {
			res.PerType[TAqueryBook].record(d)
		}
		res.PerType[TAchapter].Aborted = 2
		res.PerType[TAchapter].Restarts = 1
		for _, typ := range TxTypes {
			res.add(res.PerType[typ])
		}
		return res
	}
	agg := run(time.Second, 0, 5*time.Millisecond)
	agg.Merge(run(2*time.Second, 3*time.Millisecond, 9*time.Millisecond))
	agg.Merge(run(time.Second))

	sum := *NewTypeStats()
	for _, typ := range TxTypes {
		sum.add(agg.PerType[typ])
	}
	if agg.TypeStats != sum {
		t.Errorf("totals %+v, want the per-type sum %+v", agg.TypeStats, sum)
	}
	q := agg.PerType[TAqueryBook]
	if q.Committed != 4 || q.TotalDur != 17*time.Millisecond || q.MinDur != 0 || q.MaxDur != 9*time.Millisecond {
		t.Errorf("TAqueryBook merged to %+v, want 4 commits in 17ms, min 0, max 9ms", q)
	}
	if d := agg.PerType[TAdelBook].MinDur; d != -1 {
		t.Errorf("TAdelBook never committed, MinDur = %v, want -1 (unset)", d)
	}
	if agg.Elapsed != 4*time.Second || agg.Aborted != 6 || agg.Restarts != 3 {
		t.Errorf("merged elapsed %v, aborted %d, restarts %d; want 4s, 6, 3", agg.Elapsed, agg.Aborted, agg.Restarts)
	}
	if want := 4.0 * 300 / 4; agg.TypeThroughput(TAqueryBook) != want {
		t.Errorf("TAqueryBook throughput %v, want %v", agg.TypeThroughput(TAqueryBook), want)
	}
}

// goldenResult is a fully deterministic Result for the schema test.
func goldenResult() *Result {
	reg := metrics.NewRegistry()
	for name, v := range map[string]uint64{
		"lock.deadlocks": 7, "lock.conversion_deadlocks": 6, "lock.subtree_deadlocks": 1, "lock.timeouts": 1,
		"lock.requests": 1200, "lock.cache_hits": 300, "lock.waits": 80,
		"fault.injected": 0, "fault.torn_writes": 0, "buffer.retries": 0, "buffer.retry_failures": 0,
	} {
		reg.Counter(name).Add(v)
	}
	for i := 1; i <= 100; i++ {
		reg.Histogram("lock.wait").Record(uint64(i) * 1000)
		reg.Histogram("buffer.fix_miss").Record(uint64(i) * 500)
		reg.Histogram("wal.force").Record(uint64(i) * 2000)
		reg.Histogram("tx.commit").Record(uint64(i) * 3000)
	}
	res := &Result{
		Protocol:  "taDOM3+",
		Isolation: tx.LevelRepeatable,
		Depth:     5,
		Elapsed:   600 * time.Millisecond,
		TypeStats: TypeStats{
			Committed:   150,
			Aborted:     12,
			Restarts:    10,
			RestartWait: 40 * time.Millisecond,
			Dropped:     2,
		},
		PerType: map[TxType]*TypeStats{},
		Metrics: reg.Snapshot(),
	}
	for _, typ := range TxTypes {
		st := NewTypeStats()
		res.PerType[typ] = st
	}
	qs := res.PerType[TAqueryBook]
	qs.record(4 * time.Millisecond)
	qs.record(2 * time.Millisecond)
	qs.Aborted = 3
	return res
}

// TestReportGoldenSchema locks the JSON layout of the run report against a
// golden file: scripts parse these field names, so any drift must be a
// conscious decision (re-bless with -update). The eleven engine statistics
// that were top-level keys through PR 17 (deadlocks, lock_requests,
// faults_injected, …) are entries of "counters" under their registry names.
func TestReportGoldenSchema(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenResult().Report().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "report_golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create the golden file)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("report JSON drifted from golden file.\ngot:\n%s\nwant:\n%s\n(re-bless with go test -run TestReportGoldenSchema -update if intended)",
			buf.Bytes(), want)
	}
}

// TestReportFields spot-checks the Result -> Report mapping, including the
// conservative-percentile digests the report surfaces.
func TestReportFields(t *testing.T) {
	rep := goldenResult().Report()
	if rep.Protocol != "taDOM3+" || rep.Isolation != "repeatable" || rep.Depth != 5 {
		t.Errorf("identity fields: %+v", rep)
	}
	if rep.ElapsedMS != 600 {
		t.Errorf("elapsed_ms = %v", rep.ElapsedMS)
	}
	// 150 commits in 0.6s, normalized to 5 minutes.
	if want := 150.0 * 300 / 0.6; rep.Throughput != want {
		t.Errorf("throughput = %v, want %v", rep.Throughput, want)
	}
	q := rep.PerType[TAqueryBook.String()]
	if q.MinMS != 2 || q.MaxMS != 4 || q.AvgMS != 3 || q.Committed != 2 {
		t.Errorf("per-type digest: %+v", q)
	}
	idle := rep.PerType[TAdelBook.String()]
	if idle.MinMS != 0 || idle.MaxMS != 0 {
		t.Errorf("unset min/max must render as 0: %+v", idle)
	}
	for _, name := range []string{"lock.wait", "buffer.fix_miss", "wal.force", "tx.commit"} {
		d, ok := rep.Latencies[name]
		if !ok || d.Count != 100 {
			t.Errorf("latency digest %s missing or wrong: %+v", name, d)
			continue
		}
		if d.P50 > d.P95 || d.P95 > d.P99 || d.P99 > d.Max {
			t.Errorf("%s percentiles not monotone: %+v", name, d)
		}
	}
	if rep.Counters["lock.requests"] != 1200 {
		t.Errorf("counters not carried: %+v", rep.Counters)
	}
	// A Result without a snapshot still reports a counters object, not null.
	var buf bytes.Buffer
	if err := (&Result{}).Report().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"counters": {}`)) {
		t.Errorf("counters missing from an empty report:\n%s", buf.Bytes())
	}
}

// TestContestReportRanking pins rank assignment order.
func TestContestReportRanking(t *testing.T) {
	c := &ContestReport{Results: []RankedReport{
		{Group: "g", Report: &Report{Protocol: "slow", Throughput: 10}},
		{Group: "g", Report: &Report{Protocol: "fast", Throughput: 30}},
		{Group: "g", Report: &Report{Protocol: "mid", Throughput: 20}},
	}}
	c.Rank()
	order := []string{c.Results[0].Protocol, c.Results[1].Protocol, c.Results[2].Protocol}
	if order[0] != "fast" || order[1] != "mid" || order[2] != "slow" {
		t.Errorf("ranking order %v", order)
	}
	if c.Results[0].Rank != 1 || c.Results[2].Rank != 3 {
		t.Errorf("ranks not assigned: %+v", c.Results)
	}
}

// TestRunCapturesMetrics is the end-to-end check of the observability layer:
// a real (tiny) TaMix run with a registry and an in-memory WAL must come
// back with populated distributions for lock waits, buffer activity, WAL
// forces, and commits — the quantities the contest report publishes.
func TestRunCapturesMetrics(t *testing.T) {
	cfg := Cluster1Config("taDOM2", tx.LevelRepeatable, 5, 0.02, 0.002)
	cfg.Duration = 400 * time.Millisecond
	cfg.MaxStartDelay = 10 * time.Millisecond
	cfg.LockTimeout = 2 * time.Second
	cfg.WAL = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics == nil {
		t.Fatal("Result.Metrics not captured")
	}
	if res.Metrics.Hist("lock.acquire").Count == 0 {
		t.Error("no lock.acquire samples")
	}
	if res.Metrics.Hist("tx.commit").Count == 0 {
		t.Error("no tx.commit samples")
	}
	if res.Metrics.Hist("wal.append").Count == 0 || res.Metrics.Hist("wal.force").Count == 0 {
		t.Error("WAL histograms empty despite cfg.WAL")
	}
	if got, want := res.Metrics.CounterValue("tx.committed"), uint64(res.Committed); got < want {
		t.Errorf("tx.committed counter %d below Result.Committed %d", got, want)
	}
	if res.Metrics.CounterValue("buffer.hits") == 0 {
		t.Error("buffer.hits counter empty")
	}
	rep := res.Report()
	if len(rep.Latencies) == 0 || rep.Latencies["lock.acquire"].Count == 0 {
		t.Error("report carries no latency digests")
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed map[string]any
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("report JSON unparsable: %v", err)
	}
	for _, key := range []string{"protocol", "throughput_tx_per_5min", "per_type", "latencies", "counters"} {
		if _, ok := parsed[key]; !ok {
			t.Errorf("report missing %q", key)
		}
	}
}
