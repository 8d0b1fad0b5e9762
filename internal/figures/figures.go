// Package figures regenerates every figure of the paper's evaluation
// (Section 5): the parameter sweeps, the series extraction, and plain-text/
// CSV rendering. cmd/tamix is a thin wrapper around this package.
//
// Scaling: runs are shrunk by two independent factors. DocScale shrinks the
// bib document (1.0 = the paper's 2000 books), TimeScale shrinks every
// run-control interval (1.0 = 5-minute runs with 2500/100 ms think times).
// Throughput numbers are normalized back to the 5-minute interval by
// tamix.Result.Throughput, so series remain comparable across scales; the
// claims under test are the *relative* shapes (who wins, by what factor,
// where the knees lie), as absolute values depend on the host.
package figures

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/pagestore"
	"repro/internal/protocol"
	"repro/internal/tamix"
	"repro/internal/tx"
)

// Options control a figure regeneration run.
type Options struct {
	// DocScale shrinks the bib document (default 0.02).
	DocScale float64
	// TimeScale shrinks the run-control intervals (default 0.002).
	TimeScale float64
	// Depths are the lock depths swept (default 0..7, the paper's range).
	Depths []int
	// Runs averages each configuration over this many repetitions with
	// distinct seeds (the paper used 4 runs per isolation level and lock
	// depth). Default 1.
	Runs int
	// Seed offsets the workload randomness.
	Seed int64
}

func (o Options) fill() Options {
	if o.DocScale == 0 {
		o.DocScale = 0.02
	}
	if o.TimeScale == 0 {
		o.TimeScale = 0.002
	}
	if len(o.Depths) == 0 {
		o.Depths = []int{0, 1, 2, 3, 4, 5, 6, 7}
	}
	if o.Runs <= 0 {
		o.Runs = 1
	}
	return o
}

// Point is one measurement of a series.
type Point struct {
	// Depth is the lock depth of the run.
	Depth int
	// Throughput is committed transactions normalized to the paper's
	// 5-minute interval.
	Throughput float64
	// Deadlocks counts detected cycles (including those surfacing as lock
	// timeouts, which the paper's lock manager also aborts).
	Deadlocks uint64
	// Committed and Aborted are raw transaction counts.
	Committed, Aborted int
}

// Series is one labeled curve of a figure.
type Series struct {
	// Label names the curve (protocol or isolation level).
	Label string
	// Points are ordered by Depth.
	Points []Point
}

// runCluster1 executes one CLUSTER1 configuration o.Runs times with distinct
// seeds and returns the runs merged.
func runCluster1(proto string, iso tx.Level, depth int, o Options) (*tamix.Result, error) {
	var agg *tamix.Result
	for run := 0; run < o.Runs; run++ {
		cfg := tamix.Cluster1Config(proto, iso, depth, o.DocScale, o.TimeScale)
		cfg.Seed += o.Seed + int64(run)*104729
		r, err := tamix.Run(cfg)
		if err != nil {
			return nil, err
		}
		if agg == nil {
			agg = r
		} else {
			agg.Merge(r)
		}
	}
	return agg, nil
}

// point reads one measurement from r, the merge of runs runs. Throughput is
// normalized by the summed elapsed time and deadlocks are counted per run, so
// both stay comparable across Runs settings.
func point(depth int, r *tamix.Result, runs int) Point {
	return Point{
		Depth:      depth,
		Throughput: r.Throughput(),
		Deadlocks:  perRun(r.Metrics.CounterValue("lock.deadlocks")+r.Metrics.CounterValue("lock.timeouts"), runs),
		Committed:  r.Committed,
		Aborted:    r.Aborted,
	}
}

// perRun divides a count summed over runs runs, rounded to the nearest.
func perRun(n uint64, runs int) uint64 {
	return (n + uint64(runs)/2) / uint64(runs)
}

// Figure7 reproduces Figure 7: CLUSTER1 under taDOM3+, throughput (left)
// and deadlocks (right) against lock depth for the four isolation levels.
// Both panels render the same series.
func Figure7(o Options) ([]Series, error) {
	o = o.fill()
	var out []Series
	for _, iso := range []tx.Level{tx.LevelNone, tx.LevelUncommitted, tx.LevelCommitted, tx.LevelRepeatable} {
		s := Series{Label: strings.ToUpper(iso.String())}
		for _, depth := range o.Depths {
			r, err := runCluster1("taDOM3+", iso, depth, o)
			if err != nil {
				return nil, err
			}
			s.Points = append(s.Points, point(depth, r, o.Runs))
		}
		out = append(out, s)
	}
	return out, nil
}

// Figure8Row is one bar group of Figure 8: a *-2PL protocol's committed and
// aborted counts, total and per transaction type.
type Figure8Row struct {
	Protocol string
	Total    Point
	PerType  map[tamix.TxType]Point
}

// Figure8 reproduces Figure 8: CLUSTER1 under the protocols that have no
// lock depth, the pure *-2PL group Node2PL, NO2PL, and OO2PL (throughput
// left, deadlocks right, split by transaction type).
func Figure8(o Options) ([]Figure8Row, error) {
	o = o.fill()
	var rows []Figure8Row
	for _, p := range protocol.All() {
		if p.DepthAware() {
			continue
		}
		r, err := runCluster1(p.Name(), tx.LevelRepeatable, -1, o)
		if err != nil {
			return nil, err
		}
		row := Figure8Row{
			Protocol: p.Name(),
			Total:    point(-1, r, o.Runs),
			PerType:  make(map[tamix.TxType]Point),
		}
		for _, typ := range tamix.TxTypes {
			row.PerType[typ] = typePoint(-1, r, typ)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Cluster1Sweep runs CLUSTER1 at isolation repeatable for every given
// protocol across the depth range, returning proto -> depth -> result. It
// is the shared data source of Figures 9 and 10.
func Cluster1Sweep(protocols []string, o Options) (map[string]map[int]*tamix.Result, error) {
	o = o.fill()
	out := make(map[string]map[int]*tamix.Result, len(protocols))
	for _, proto := range protocols {
		out[proto] = make(map[int]*tamix.Result, len(o.Depths))
		for _, depth := range o.Depths {
			r, err := runCluster1(proto, tx.LevelRepeatable, depth, o)
			if err != nil {
				return nil, err
			}
			out[proto][depth] = r
		}
	}
	return out, nil
}

// DepthProtocols are the protocols that honor the lock-depth parameter —
// the contestants of Figures 9 and 10 (the paper's eight plus the snapshot
// contestant, whose writers are taDOM3+ and so depth-aware).
func DepthProtocols() []string {
	var out []string
	for _, p := range protocol.All() {
		if p.DepthAware() {
			out = append(out, p.Name())
		}
	}
	return out
}

// Figure9 extracts Figure 9 from a sweep: total throughput (left) and
// deadlocks (right) per protocol against lock depth. Both panels render the
// same series.
func Figure9(sweep map[string]map[int]*tamix.Result, o Options) []Series {
	o = o.fill()
	return sweepSeries(sweep, o, func(depth int, r *tamix.Result) Point { return point(depth, r, o.Runs) })
}

// Figure10 extracts Figure 10 from the same sweep: throughput per
// transaction type (panels a-d: TAqueryBook, TAchapter, TAlendAndReturn,
// TArenameTopic) per protocol against lock depth.
func Figure10(sweep map[string]map[int]*tamix.Result, o Options) map[tamix.TxType][]Series {
	o = o.fill()
	panels := []tamix.TxType{tamix.TAqueryBook, tamix.TAchapter, tamix.TAlendAndReturn, tamix.TArenameTopic}
	out := make(map[tamix.TxType][]Series, len(panels))
	for _, typ := range panels {
		out[typ] = sweepSeries(sweep, o, func(depth int, r *tamix.Result) Point { return typePoint(depth, r, typ) })
	}
	return out
}

// sweepSeries reads one series per depth-aware protocol of the sweep, one
// point per swept depth.
func sweepSeries(sweep map[string]map[int]*tamix.Result, o Options, at func(int, *tamix.Result) Point) []Series {
	var out []Series
	for _, proto := range DepthProtocols() {
		byDepth, ok := sweep[proto]
		if !ok {
			continue
		}
		s := Series{Label: proto}
		for _, depth := range o.Depths {
			if r, ok := byDepth[depth]; ok {
				s.Points = append(s.Points, at(depth, r))
			}
		}
		out = append(out, s)
	}
	return out
}

// typePoint is one transaction type's share of r.
func typePoint(depth int, r *tamix.Result, typ tamix.TxType) Point {
	st := r.PerType[typ]
	return Point{Depth: depth, Throughput: r.TypeThroughput(typ), Committed: st.Committed, Aborted: st.Aborted}
}

// cluster2Books is how many books TAdelBook deletes per protocol in Figure 11.
const cluster2Books = 3

// Figure11Row is one bar of Figure 11.
type Figure11Row struct {
	Protocol string
	// AvgTimeMs is the mean TAdelBook execution time in milliseconds.
	AvgTimeMs float64
	// LockRequests is the locking work behind one TAdelBook execution.
	LockRequests uint64
}

// Figure11 reproduces Figure 11 (CLUSTER2): the execution time of TAdelBook
// in single-user mode at isolation level repeatable (Section 5.3), under
// every protocol. The pure *-2PL protocols pay for the subtree search that
// IDX-locks every element owning an ID attribute; the intention-lock
// protocols do not.
func Figure11(o Options) ([]Figure11Row, error) {
	o = o.fill()
	var rows []Figure11Row
	for _, p := range protocol.All() {
		row, err := cluster2(p.Name(), o.DocScale)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// cluster2 runs TAdelBook cluster2Books times under one protocol at lock
// depth 4 (fewer when the document has fewer topics), run i in topic i with
// seed i, so every protocol deletes the same subtrees. Only the transactions
// are timed.
func cluster2(proto string, docScale float64) (Figure11Row, error) {
	doc, cat, err := tamix.GenerateBib(pagestore.NewMemBackend(), tamix.Scaled(docScale))
	if err != nil {
		return Figure11Row{}, err
	}
	depth := 4
	eng, err := core.Wrap(doc, nil, core.Config{Protocol: proto, LockDepth: &depth})
	if err != nil {
		return Figure11Row{}, err
	}
	defer eng.Close()
	mgr := eng.Manager()
	runs := min(cluster2Books, len(cat.TopicIDs))
	var total time.Duration
	for i := 0; i < runs; i++ {
		topic := &tamix.Catalog{TopicIDs: []string{cat.TopicIDs[i]}, BookIDs: cat.BookIDs}
		t0 := time.Now()
		if err := tamix.Serial(mgr, topic, map[tamix.TxType]int{tamix.TAdelBook: 1}, tx.LevelRepeatable, int64(i), 1); err != nil {
			return Figure11Row{}, err
		}
		total += time.Since(t0)
	}
	return Figure11Row{
		Protocol:     proto,
		AvgTimeMs:    float64((total / time.Duration(runs)).Microseconds()) / 1000,
		LockRequests: perRun(mgr.LockManager().Stats().Requests, runs),
	}, nil
}

// --- rendering ---------------------------------------------------------------

// RenderSeries prints labeled depth series as an aligned text table.
func RenderSeries(w io.Writer, title, metric string, series []Series) {
	fmt.Fprintf(w, "%s — %s\n", title, metric)
	if len(series) == 0 {
		fmt.Fprintln(w, "  (no data)")
		return
	}
	fmt.Fprintf(w, "%-14s", "depth")
	for _, p := range series[0].Points {
		fmt.Fprintf(w, "%10d", p.Depth)
	}
	fmt.Fprintln(w)
	for _, s := range series {
		fmt.Fprintf(w, "%-14s", s.Label)
		for _, p := range s.Points {
			switch metric {
			case "deadlocks":
				fmt.Fprintf(w, "%10d", p.Deadlocks)
			case "aborted":
				fmt.Fprintf(w, "%10d", p.Aborted)
			default:
				fmt.Fprintf(w, "%10.1f", p.Throughput)
			}
		}
		fmt.Fprintln(w)
	}
}

// WriteSeriesCSV emits depth series as CSV: label,depth,throughput,
// deadlocks,committed,aborted.
func WriteSeriesCSV(w io.Writer, series []Series) {
	fmt.Fprintln(w, "label,depth,throughput,deadlocks,committed,aborted")
	for _, s := range series {
		for _, p := range s.Points {
			fmt.Fprintf(w, "%s,%d,%.2f,%d,%d,%d\n",
				s.Label, p.Depth, p.Throughput, p.Deadlocks, p.Committed, p.Aborted)
		}
	}
}

// RenderFigure8 prints the Figure 8 bar groups.
func RenderFigure8(w io.Writer, rows []Figure8Row) {
	fmt.Fprintln(w, "Figure 8 — CLUSTER1 under the *-2PL group")
	fmt.Fprintf(w, "%-10s %12s %10s %10s", "protocol", "throughput", "committed", "aborted")
	for _, typ := range tamix.TxTypes {
		if typ == tamix.TAdelBook {
			continue
		}
		fmt.Fprintf(w, " %16s", typ)
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %12.1f %10d %10d", r.Protocol, r.Total.Throughput, r.Total.Committed, r.Total.Aborted)
		for _, typ := range tamix.TxTypes {
			if typ == tamix.TAdelBook {
				continue
			}
			p := r.PerType[typ]
			fmt.Fprintf(w, " %9d/%6d", p.Committed, p.Aborted)
		}
		fmt.Fprintln(w)
	}
}

// RenderFigure11 prints the Figure 11 bars.
func RenderFigure11(w io.Writer, rows []Figure11Row) {
	fmt.Fprintln(w, "Figure 11 — CLUSTER2: TAdelBook execution time")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %10.2f ms  (%d lock requests)\n", r.Protocol, r.AvgTimeMs, r.LockRequests)
	}
}
