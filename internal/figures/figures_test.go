package figures

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/tamix"
)

// quick makes every figure affordable in unit tests: one depth, tiny doc,
// sub-second runs.
func quick() Options {
	return Options{DocScale: 0.01, TimeScale: 0.001, Depths: []int{3}}
}

func TestFigure7Shape(t *testing.T) {
	tp, err := Figure7(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tp) != 4 {
		t.Fatalf("series = %d, want 4 isolation levels", len(tp))
	}
	labels := map[string]bool{}
	for _, s := range tp {
		labels[s.Label] = true
		if len(s.Points) != 1 {
			t.Errorf("%s: %d points", s.Label, len(s.Points))
		}
		if s.Points[0].Throughput <= 0 {
			t.Errorf("%s: zero throughput", s.Label)
		}
	}
	for _, want := range []string{"NONE", "UNCOMMITTED", "COMMITTED", "REPEATABLE"} {
		if !labels[want] {
			t.Errorf("missing series %s", want)
		}
	}
}

func TestFigure8Rows(t *testing.T) {
	rows, err := Figure8(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Total.Committed == 0 {
			t.Errorf("%s committed nothing", r.Protocol)
		}
		if len(r.PerType) != len(tamix.TxTypes) {
			t.Errorf("%s: per-type entries = %d", r.Protocol, len(r.PerType))
		}
	}
	var buf bytes.Buffer
	RenderFigure8(&buf, rows)
	if !strings.Contains(buf.String(), "Node2PL") {
		t.Error("render missing protocol")
	}
}

func TestSweepAndFigures9And10(t *testing.T) {
	o := quick()
	sweep, err := Cluster1Sweep([]string{"taDOM3+", "URIX"}, o)
	if err != nil {
		t.Fatal(err)
	}
	tp := Figure9(sweep, o)
	if len(tp) != 2 {
		t.Fatalf("figure 9 series = %d", len(tp))
	}
	panels := Figure10(sweep, o)
	if len(panels) != 4 {
		t.Fatalf("figure 10 panels = %d", len(panels))
	}
	for typ, series := range panels {
		if len(series) != 2 {
			t.Errorf("%v: %d series", typ, len(series))
		}
	}
	var buf bytes.Buffer
	RenderSeries(&buf, "Figure 9", "throughput", tp)
	RenderSeries(&buf, "Figure 9", "deadlocks", tp)
	out := buf.String()
	if !strings.Contains(out, "URIX") || !strings.Contains(out, "taDOM3+") {
		t.Errorf("render output incomplete:\n%s", out)
	}
	buf.Reset()
	WriteSeriesCSV(&buf, tp)
	if !strings.HasPrefix(buf.String(), "label,depth,") {
		t.Error("CSV header missing")
	}
	if len(strings.Split(strings.TrimSpace(buf.String()), "\n")) != 3 {
		t.Errorf("CSV rows:\n%s", buf.String())
	}
}

func TestFigure11AllProtocols(t *testing.T) {
	rows, err := Figure11(Options{DocScale: 0.01, TimeScale: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("rows = %d, want 12 (11 paper contestants + snapshot)", len(rows))
	}
	for i, p := range protocol.All() {
		if rows[i].Protocol != p.Name() {
			t.Errorf("row %d is %s, want %s (the registry's order)", i, rows[i].Protocol, p.Name())
		}
	}
	byProto := map[string]Figure11Row{}
	for _, r := range rows {
		byProto[r.Protocol] = r
		if r.AvgTimeMs <= 0 {
			t.Errorf("%s: non-positive time", r.Protocol)
		}
	}
	// The group gap: every pure *-2PL protocol issues far more lock
	// requests than every intention-lock protocol.
	for _, heavy := range []string{"Node2PL", "NO2PL", "OO2PL"} {
		for _, light := range []string{"Node2PLa", "URIX", "taDOM3+"} {
			if byProto[heavy].LockRequests <= 2*byProto[light].LockRequests {
				t.Errorf("%s (%d requests) should far exceed %s (%d requests)",
					heavy, byProto[heavy].LockRequests, light, byProto[light].LockRequests)
			}
		}
	}
	// Node2PL pays for the IDX subtree scan the intention-lock protocols
	// skip: at least 4x taDOM3+'s lock requests.
	if n2pl, tadom := byProto["Node2PL"].LockRequests, byProto["taDOM3+"].LockRequests; n2pl < 4*tadom {
		t.Errorf("Node2PL requests %d not >= 4x taDOM3+ requests %d", n2pl, tadom)
	}
	var buf bytes.Buffer
	RenderFigure11(&buf, rows)
	if !strings.Contains(buf.String(), "taDOM3+") {
		t.Error("render missing protocol")
	}
}

// TestDeadlocksPerRun: a point of merged runs counts deadlocks per run, as
// EXPERIMENTS.md reports them, not their sum.
func TestDeadlocksPerRun(t *testing.T) {
	run := func(deadlocks uint64) *tamix.Result {
		reg := metrics.NewRegistry()
		reg.Counter("lock.deadlocks").Add(deadlocks)
		return &tamix.Result{Elapsed: time.Second, Metrics: reg.Snapshot()}
	}
	agg := run(10)
	agg.Merge(run(30))
	if p := point(3, agg, 2); p.Deadlocks != 20 {
		t.Errorf("deadlocks = %d over 2 runs of 10 and 30, want 20 per run", p.Deadlocks)
	}
}

func TestOptionsFill(t *testing.T) {
	o := Options{}.fill()
	if o.DocScale == 0 || o.TimeScale == 0 || len(o.Depths) != 8 {
		t.Errorf("fill: %+v", o)
	}
}
