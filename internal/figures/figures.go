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

// runCluster1 executes one CLUSTER1 configuration, averaging over o.Runs
// repetitions with distinct seeds.
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
			continue
		}
		agg.Elapsed += r.Elapsed
		agg.Committed += r.Committed
		agg.Aborted += r.Aborted
		agg.Restarts += r.Restarts
		agg.RestartWait += r.RestartWait
		agg.Dropped += r.Dropped
		agg.Metrics.Merge(r.Metrics)
		for typ, st := range r.PerType {
			dst := agg.PerType[typ]
			dst.Committed += st.Committed
			dst.Aborted += st.Aborted
			dst.Restarts += st.Restarts
			dst.RestartWait += st.RestartWait
			dst.Dropped += st.Dropped
			dst.TotalDur += st.TotalDur
			// MinDur uses -1 as "unset": take any set value over unset,
			// including a legitimate zero-duration minimum.
			if st.MinDur >= 0 && (dst.MinDur < 0 || st.MinDur < dst.MinDur) {
				dst.MinDur = st.MinDur
			}
			if st.MaxDur > dst.MaxDur {
				dst.MaxDur = st.MaxDur
			}
		}
	}
	return agg, nil
}

func point(depth int, r *tamix.Result) Point {
	return Point{
		Depth:      depth,
		Throughput: r.Throughput(),
		Deadlocks:  r.Metrics.CounterValue("lock.deadlocks") + r.Metrics.CounterValue("lock.timeouts"),
		Committed:  r.Committed,
		Aborted:    r.Aborted,
	}
}

// Note: aggregated results sum deadlocks over o.Runs repetitions while
// Throughput is normalized by the summed elapsed time, so both stay
// comparable across different Runs settings per unit of run time.

// Figure7 reproduces Figure 7: CLUSTER1 under taDOM3+, throughput (left)
// and deadlocks (right) against lock depth for the four isolation levels.
func Figure7(o Options) (throughput, deadlocks []Series, err error) {
	o = o.fill()
	levels := []tx.Level{tx.LevelNone, tx.LevelUncommitted, tx.LevelCommitted, tx.LevelRepeatable}
	for _, iso := range levels {
		tp := Series{Label: strings.ToUpper(iso.String())}
		dl := Series{Label: strings.ToUpper(iso.String())}
		for _, depth := range o.Depths {
			r, err := runCluster1("taDOM3+", iso, depth, o)
			if err != nil {
				return nil, nil, err
			}
			p := point(depth, r)
			tp.Points = append(tp.Points, p)
			dl.Points = append(dl.Points, p)
		}
		throughput = append(throughput, tp)
		deadlocks = append(deadlocks, dl)
	}
	return throughput, deadlocks, nil
}

// Figure8Row is one bar group of Figure 8: a *-2PL protocol's committed and
// aborted counts, total and per transaction type.
type Figure8Row struct {
	Protocol string
	Total    Point
	PerType  map[tamix.TxType]Point
}

// Figure8 reproduces Figure 8: CLUSTER1 under Node2PL, NO2PL, and OO2PL
// (throughput left, deadlocks right, split by transaction type). The pure
// *-2PL protocols have no lock depth; the depth parameter is ignored.
func Figure8(o Options) ([]Figure8Row, error) {
	o = o.fill()
	var rows []Figure8Row
	for _, proto := range []string{"Node2PL", "NO2PL", "OO2PL"} {
		r, err := runCluster1(proto, tx.LevelRepeatable, -1, o)
		if err != nil {
			return nil, err
		}
		row := Figure8Row{
			Protocol: proto,
			Total:    point(-1, r),
			PerType:  make(map[tamix.TxType]Point),
		}
		for _, typ := range tamix.TxTypes {
			st := r.PerType[typ]
			row.PerType[typ] = Point{
				Throughput: float64(st.Committed) * 300 / r.Elapsed.Seconds(),
				Committed:  st.Committed,
				Aborted:    st.Aborted,
			}
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
	return []string{"Node2PLa", "IRX", "IRIX", "URIX", "taDOM2", "taDOM2+", "taDOM3", "taDOM3+", "snapshot"}
}

// Figure9 extracts Figure 9 from a sweep: total throughput (left) and
// deadlocks (right) per protocol against lock depth.
func Figure9(sweep map[string]map[int]*tamix.Result, o Options) (throughput, deadlocks []Series) {
	o = o.fill()
	for _, proto := range DepthProtocols() {
		byDepth, ok := sweep[proto]
		if !ok {
			continue
		}
		tp := Series{Label: proto}
		for _, depth := range o.Depths {
			if r, ok := byDepth[depth]; ok {
				tp.Points = append(tp.Points, point(depth, r))
			}
		}
		throughput = append(throughput, tp)
		deadlocks = append(deadlocks, tp)
	}
	return throughput, deadlocks
}

// Figure10 extracts Figure 10 from the same sweep: throughput per
// transaction type (panels a-d: TAqueryBook, TAchapter, TAlendAndReturn,
// TArenameTopic) per protocol against lock depth.
func Figure10(sweep map[string]map[int]*tamix.Result, o Options) map[tamix.TxType][]Series {
	o = o.fill()
	panels := []tamix.TxType{tamix.TAqueryBook, tamix.TAchapter, tamix.TAlendAndReturn, tamix.TArenameTopic}
	out := make(map[tamix.TxType][]Series, len(panels))
	for _, typ := range panels {
		for _, proto := range DepthProtocols() {
			byDepth, ok := sweep[proto]
			if !ok {
				continue
			}
			s := Series{Label: proto}
			for _, depth := range o.Depths {
				r, ok := byDepth[depth]
				if !ok {
					continue
				}
				st := r.PerType[typ]
				s.Points = append(s.Points, Point{
					Depth:      depth,
					Throughput: float64(st.Committed) * 300 / r.Elapsed.Seconds(),
					Committed:  st.Committed,
					Aborted:    st.Aborted,
				})
			}
			out[typ] = append(out[typ], s)
		}
	}
	return out
}

// Figure11Row is one bar of Figure 11.
type Figure11Row struct {
	Protocol string
	// AvgTimeMs is the mean TAdelBook execution time in milliseconds.
	AvgTimeMs float64
	// LockRequests is the total locking work behind the time.
	LockRequests uint64
}

// Figure11 reproduces Figure 11: single-user TAdelBook execution time under
// all 11 protocols (CLUSTER2).
func Figure11(o Options, runs int) ([]Figure11Row, error) {
	o = o.fill()
	if runs <= 0 {
		runs = 3
	}
	protos := []string{
		"Node2PL", "NO2PL", "OO2PL",
		"IRX", "IRIX", "URIX", "Node2PLa",
		"taDOM2", "taDOM2+", "taDOM3", "taDOM3+",
		"snapshot",
	}
	var rows []Figure11Row
	for _, proto := range protos {
		r, err := tamix.RunCluster2(proto, o.DocScale, runs)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Figure11Row{
			Protocol:     proto,
			AvgTimeMs:    float64(r.AvgTime.Microseconds()) / 1000,
			LockRequests: r.LockRequests,
		})
	}
	return rows, nil
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
