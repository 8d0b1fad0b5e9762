package repro

// Benchmark harness: one benchmark per figure of the paper's evaluation
// (Section 5). Each benchmark executes the figure's full parameter sweep at
// a reduced scale and reports the headline quantities as custom metrics, so
// `go test -bench=.` regenerates the whole evaluation. For larger (or
// paper-scale) runs and readable tables, use:
//
//	go run ./cmd/tamix -fig all -doc 0.05 -time 0.01
//
// The custom metrics are committed transactions normalized to the paper's
// 5-minute interval (tx5min) and deadlock counts; the claims under test are
// the relative shapes across protocols and depths, not absolute numbers.

import (
	"fmt"
	"testing"

	"repro/internal/figures"
	"repro/internal/tamix"
)

// benchOpts keeps one full `go test -bench=.` run in the minutes range:
// a ~3k-node document, sub-second runs, three representative depths.
func benchOpts() figures.Options {
	return figures.Options{
		DocScale:  0.02,
		TimeScale: 0.0015,
		Depths:    []int{1, 4, 7},
	}
}

func last(points []figures.Point) figures.Point {
	if len(points) == 0 {
		return figures.Point{}
	}
	return points[len(points)-1]
}

// BenchmarkFigure7 regenerates Figure 7: CLUSTER1 under taDOM3+ across the
// four isolation levels and the depth range; reported metrics are the
// deepest-depth throughput per isolation level and the repeatable-read
// deadlock count.
func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := figures.Figure7(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range series {
			b.ReportMetric(last(s.Points).Throughput, s.Label+"_tx5min")
			if s.Label == "REPEATABLE" {
				b.ReportMetric(float64(last(s.Points).Deadlocks), "repeatable_deadlocks")
			}
		}
	}
}

// BenchmarkFigure8 regenerates Figure 8: CLUSTER1 under the pure *-2PL
// group (Node2PL, NO2PL, OO2PL), total and per transaction type.
func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := figures.Figure8(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.Total.Throughput, r.Protocol+"_tx5min")
			b.ReportMetric(float64(r.Total.Aborted), r.Protocol+"_aborts")
		}
	}
}

// BenchmarkFigure9And10 regenerates Figures 9 and 10 from one sweep of all
// depth-aware protocols: total throughput/deadlocks per protocol vs depth
// (Figure 9) and the per-transaction-type split (Figure 10).
func BenchmarkFigure9And10(b *testing.B) {
	opt := benchOpts()
	for i := 0; i < b.N; i++ {
		sweep, err := figures.Cluster1Sweep(figures.DepthProtocols(), opt)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range figures.Figure9(sweep, opt) {
			b.ReportMetric(last(s.Points).Throughput, s.Label+"_tx5min")
		}
		panels := figures.Figure10(sweep, opt)
		for _, s := range panels[tamix.TArenameTopic] {
			// The panel the paper highlights: Node2PLa collapses on
			// TArenameTopic while taDOM3+ gains ~200%.
			if s.Label == "Node2PLa" || s.Label == "taDOM3+" {
				b.ReportMetric(last(s.Points).Throughput,
					fmt.Sprintf("rename_%s_tx5min", s.Label))
			}
		}
	}
}

// BenchmarkFigure11 regenerates Figure 11: single-user TAdelBook execution
// time under all 11 protocols (CLUSTER2). The reported metrics are the
// mean execution times; the paper's claim is that the *-2PL group takes
// roughly twice as long as everyone else.
func BenchmarkFigure11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := figures.Figure11(figures.Options{DocScale: 0.02})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.AvgTimeMs, r.Protocol+"_ms")
		}
	}
}

// BenchmarkContestHeadline runs the headline comparison once per iteration:
// taDOM3+ vs URIX vs Node2PLa at depth 5 (the groups' representatives),
// reporting their throughput ratio — the paper's ~100%/~50% gains.
func BenchmarkContestHeadline(b *testing.B) {
	opt := benchOpts()
	opt.Depths = []int{5}
	for i := 0; i < b.N; i++ {
		sweep, err := figures.Cluster1Sweep([]string{"taDOM3+", "URIX", "Node2PLa"}, opt)
		if err != nil {
			b.Fatal(err)
		}
		td := sweep["taDOM3+"][5].Throughput()
		ur := sweep["URIX"][5].Throughput()
		na := sweep["Node2PLa"][5].Throughput()
		b.ReportMetric(td, "taDOM3+_tx5min")
		b.ReportMetric(ur, "URIX_tx5min")
		b.ReportMetric(na, "Node2PLa_tx5min")
		if na > 0 {
			b.ReportMetric(td/na, "taDOM_vs_2PL_ratio")
			b.ReportMetric(ur/na, "MGL_vs_2PL_ratio")
		}
	}
}
