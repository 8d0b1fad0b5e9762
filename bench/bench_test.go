package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"sort"
	"testing"
	"time"
)

func TestMain(m *testing.M) {
	// Tests run in bench/, the command in the repository root.
	dir, err := os.MkdirTemp("", "bench-test-")
	if err != nil {
		panic(err)
	}
	scratchRoot = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestPercentileAgainstOracle checks the nearest-rank percentile and the
// median against definitions that only count.
func TestPercentileAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		xs := make([]int64, n)
		fs := make([]float64, n)
		for i := range xs {
			xs[i] = int64(rng.Intn(50)) // many ties
			fs[i] = float64(xs[i])
		}
		sorted := append([]int64(nil), xs...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for _, q := range []float64{0.5, 0.95, 0.99, 1} {
			got := percentile(sorted, q)
			// Oracle: the smallest sample with at least q*n samples at or below it.
			want := int64(math.MaxInt64)
			for _, v := range xs {
				atOrBelow := 0
				for _, u := range xs {
					if u <= v {
						atOrBelow++
					}
				}
				if float64(atOrBelow) >= q*float64(n)-1e-9 && v < want {
					want = v
				}
			}
			if got != want {
				t.Fatalf("n=%d q=%v: percentile %d, oracle %d", n, q, got, want)
			}
		}
		// Oracle for the median: as many samples at or below it as at or above it.
		m := median(fs)
		below, above := 0, 0
		for _, f := range fs {
			if f <= m {
				below++
			}
			if f >= m {
				above++
			}
		}
		if below < (n+1)/2 || above < (n+1)/2 {
			t.Fatalf("n=%d: median %v has %d at or below and %d at or above", n, m, below, above)
		}
	}
	if percentile(nil, 0.5) != 0 || median(nil) != 0 {
		t.Fatal("empty input must give 0")
	}
}

func TestNormalisation(t *testing.T) {
	if got := normRate(1234.5, RefNominalMS); got != 1234.5 {
		t.Fatalf("rate at nominal speed changed: %v", got)
	}
	if got := normDur(77.25, RefNominalMS); got != 77.25 {
		t.Fatalf("duration at nominal speed changed: %v", got)
	}
	// A machine running 25 % slow (refLoop takes 1.25 times its nominal time)
	// did 1/1.25 of the work in 1.25 times the time.
	slow := 1.25 * RefNominalMS
	if got := normRate(800, slow); math.Abs(got-1000) > 1e-9 {
		t.Fatalf("normRate(800, slow) = %v, want 1000", got)
	}
	if got := normDur(125, slow); math.Abs(got-100) > 1e-9 {
		t.Fatalf("normDur(125, slow) = %v, want 100", got)
	}
	// Work is rate times duration and must not depend on the machine's speed.
	for _, ref := range []float64{0.6 * RefNominalMS, RefNominalMS, 1.4 * RefNominalMS} {
		if got := normRate(500, ref) * normDur(3, ref); math.Abs(got-1500) > 1e-9 {
			t.Fatalf("ref %v: rate*duration = %v, want 1500", ref, got)
		}
	}
	if got := spread([]float64{90, 100, 110}); math.Abs(got-0.2) > 1e-9 {
		t.Fatalf("spread = %v, want 0.2", got)
	}
	if got := cv([]float64{5, 5, 5}); got != 0 {
		t.Fatalf("cv of a constant = %v", got)
	}
}

// replay runs txns transactions of the local mix on worker 0 of a fresh
// traced engine and returns the op stream (transaction ids and call kinds, no
// times), the document afterwards and the next draw of the worker's generator.
func replay(t *testing.T, seed int64, txns int) (stream, doc []byte, next int64) {
	t.Helper()
	sp := specByName("local_mix")
	e := &env{sp: sp, seed: seed, scale: sp.scale, traced: true}
	defer e.tearDown()
	if err := e.open(protocolName); err != nil {
		t.Fatal(err)
	}
	w := e.workers[0]
	for i := 0; i < txns; i++ {
		if !w.runTxn() {
			t.Fatal(w.fatal)
		}
	}
	var ops bytes.Buffer
	for _, s := range w.rec.spans {
		ops.WriteString(spanNames[s.Kind])
		ops.WriteByte(byte(s.Txn))
		ops.WriteByte(byte(s.Txn >> 8))
	}
	var xml bytes.Buffer
	if err := e.doc.ExportXML(&xml, e.doc.Root()); err != nil {
		t.Fatal(err)
	}
	if err := e.audit(); err != nil {
		t.Fatal(err)
	}
	return ops.Bytes(), xml.Bytes(), w.rng.Int63()
}

// TestSeedDeterminism: the same seed gives a byte-identical op stream and
// document, another seed gives other inputs.
func TestSeedDeterminism(t *testing.T) {
	s1, d1, n1 := replay(t, 11, 300)
	s2, d2, n2 := replay(t, 11, 300)
	if !bytes.Equal(s1, s2) {
		t.Error("same seed, different op streams")
	}
	if !bytes.Equal(d1, d2) {
		t.Error("same seed, different documents")
	}
	if n1 != n2 {
		t.Error("same seed, generators consumed differently")
	}
	s3, d3, _ := replay(t, 12, 300)
	if bytes.Equal(s1, s3) || bytes.Equal(d1, d3) {
		t.Error("different seeds gave the same inputs")
	}
}

// TestSmoke is `go run ./bench -smoke`, one short window with all audits on:
// every workload end to end, and the traced run of the two mix workloads
// (between them they reach every probe, the protocol sweep and the durability
// check; tracing all four would take the test past ten seconds).
func TestSmoke(t *testing.T) {
	start := time.Now()
	for _, trace := range []int{0, 1} {
		for _, sp := range specs {
			if trace == 1 && len(sp.mix) == 1 {
				continue
			}
			rep, err := runAll([]*spec{sp}, 3, smokeShape, trace)
			if err != nil {
				t.Fatalf("%s trace=%d: %v", sp.name, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d", sp.name, trace, rep.Correct, rep.Attempted, rep.Failed)
			}
			want := endToEndMetrics
			if trace == 1 {
				want = layerMetrics
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics, want %d", sp.name, trace, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := rep.Metrics[m.name]
				if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit != m.unit {
					t.Errorf("%s trace=%d: metric %s = %+v (present %v)", sp.name, trace, m.name, v, ok)
				}
				if trace == 0 && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", sp.name, m.name, v.Value)
				}
			}
		}
	}
	t.Logf("smoke took %v", time.Since(start))
}

// TestBenchmarkJSON keeps BENCHMARK.json and the tables in the code in step.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var b struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("paths = %v", b.Paths)
	}
	if float64(b.RunSeconds) != fullShape.seconds {
		t.Errorf("run_seconds = %d, the benchmark's shape measures %v s", b.RunSeconds, fullShape.seconds)
	}
	if len(b.Workloads) != len(specs) {
		t.Fatalf("%d workloads, the code has %d", len(b.Workloads), len(specs))
	}
	for i, w := range b.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: %q / %q, the code has %q / %q", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, the code has %d", kind, len(got), len(want))
		}
		for i, g := range got {
			better := "lower"
			if want[i].higher {
				better = "higher"
			}
			if g.Name != want[i].name || g.Unit != want[i].unit || g.Better != better {
				t.Errorf("%s %d: %+v, the code has %+v", kind, i, g, want[i])
			}
			if bounded != (g.Bound != nil) || bounded && *g.Bound != want[i].bound {
				t.Errorf("%s %s: bound %v, the code has %v", kind, g.Name, g.Bound, want[i].bound)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEndMetrics, true)
	check("per_layer", b.PerLayer, layerMetrics, false)
}
