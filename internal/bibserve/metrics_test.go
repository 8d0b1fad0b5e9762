package bibserve

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/tamix"
	"repro/internal/tx"
)

// nameReads finds the instrument names a source file reads from a snapshot
// or a report: the string literal in CounterValue("…"), Summary("…"),
// Hist("…"), Counters["…"] and Latencies["…"] — the only shapes the
// consumers below use.
var nameReads = regexp.MustCompile(`\b(CounterValue|Summary|Hist)\("([^"]+)"\)|\b(Counters|Latencies)\["([^"]+)"\]`)

// TestCounterNamesExist: statistics are read by name, so a typo in a string
// would print 0 for ever. Every name read by the report, the figures and the
// tamix CLI must be an instrument of a seeded local run's snapshot, and every
// counter among them one an xtcd engine ships over OpStats.
func TestCounterNamesExist(t *testing.T) {
	var files []string
	for _, pattern := range []string{
		"../tamix/report.go", "../figures/*.go", "../../cmd/tamix/*.go",
	} {
		m, err := filepath.Glob(pattern)
		if err != nil || len(m) == 0 {
			t.Fatalf("no sources match %s (%v)", pattern, err)
		}
		files = append(files, m...)
	}
	counters, hists := map[string]string{}, map[string]string{} // name -> a file reading it
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range nameReads.FindAllStringSubmatch(string(src), -1) {
			switch {
			case m[1] == "CounterValue":
				counters[m[2]] = f
			case m[1] != "":
				hists[m[2]] = f
			case m[3] == "Counters":
				counters[m[4]] = f
			default:
				hists[m[4]] = f
			}
		}
	}
	// The readers this test exists for; if the scan loses them it is blind.
	for _, name := range []string{"lock.deadlocks", "lock.timeouts", "lock.requests", "fault.injected"} {
		if counters[name] == "" {
			t.Errorf("the scan found no reader of %s: nameReads no longer matches how consumers read counters", name)
		}
	}
	if hists["lock.wait"] == "" {
		t.Error("the scan found no reader of the lock.wait histogram")
	}

	cfg := tamix.Cluster1Config("taDOM3+", tx.LevelRepeatable, 5, 0.02, 0.002)
	cfg.Duration = 200 * time.Millisecond
	cfg.MaxStartDelay = 5 * time.Millisecond
	cfg.WAL = true
	local, err := tamix.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := startServer(t, server.Config{})
	cfg.Remote = srv.Addr()
	remote, err := tamix.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for name, f := range counters {
		if _, ok := local.Metrics.Counters[name]; !ok {
			t.Errorf("%s reads counter %q, which a local run's snapshot does not have", f, name)
		}
		if _, ok := remote.Metrics.Counters[name]; !ok {
			t.Errorf("%s reads counter %q, which a remote run's snapshot does not have", f, name)
		}
	}
	for name, f := range hists {
		if _, ok := local.Metrics.Histograms[name]; !ok {
			t.Errorf("%s reads histogram %q, which a local run's snapshot does not have", f, name)
		}
	}
}

// TestPoolStatsEqualEngineSnapshot: OpStats is the engine registry's counters
// and nothing else, so after a quiesced loopback run the client's answer and
// the server's own view of that engine (Server.Snapshot, what xtcd's debug
// endpoint serves) agree name by name, to the digit.
func TestPoolStatsEqualEngineSnapshot(t *testing.T) {
	srv := startServer(t, server.Config{})
	cfg := tamix.Cluster1Config("URIX", tx.LevelRepeatable, 5, 0.02, 0.002)
	cfg.Duration = 200 * time.Millisecond
	cfg.MaxStartDelay = 5 * time.Millisecond
	cfg.Remote = srv.Addr()
	if _, err := tamix.Run(cfg); err != nil {
		t.Fatal(err)
	}
	pool, err := client.Dial(srv.Addr(), client.Options{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	got, err := pool.Stats("URIX")
	if err != nil {
		t.Fatal(err)
	}
	const prefix = "engine.URIX."
	want := &metrics.Snapshot{Counters: map[string]uint64{}}
	snap := srv.Snapshot()
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, prefix) {
			want.Counters[strings.TrimPrefix(name, prefix)] = v
		}
	}
	if len(want.Counters) == 0 || want.CounterValue("lock.requests") == 0 || want.CounterValue("tx.committed") == 0 {
		t.Fatalf("the server shows no %s* counters of a run that committed: %v", prefix, snap.Counters)
	}
	if len(got.Counters) != len(want.Counters) {
		t.Errorf("OpStats ships %d counters, the engine has %d", len(got.Counters), len(want.Counters))
	}
	for name, v := range want.Counters {
		if g, ok := got.Counters[name]; !ok || g != v {
			t.Errorf("%s: OpStats says %d (present %t), the engine says %d", name, g, ok, v)
		}
	}
	// The same endpoint carries what OpStats does not: the engine's latency
	// distributions, beside the server's own instruments.
	if snap.Hist(prefix+"lock.wait").Count == 0 && snap.Hist(prefix+"lock.acquire").Count == 0 {
		t.Errorf("no %slock.* distribution in the server snapshot", prefix)
	}
	if snap.CounterValue("server.requests") == 0 {
		t.Error("server.* instruments missing from the server snapshot")
	}
	if _, err := pool.Stats("no-such-protocol"); err == nil {
		t.Error("OpStats for an unknown protocol answered")
	}
}
