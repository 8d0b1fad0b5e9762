// Command tamix regenerates the figures of "Contest of XML Lock Protocols"
// (VLDB 2006) by running the TaMix benchmark framework against the embedded
// XTC-style engine, and runs the contest itself.
//
// Usage:
//
//	tamix -fig 9                     # quick, scaled-down run of Figure 9
//	tamix -fig 7 -doc 0.05 -time 0.01
//	tamix -fig all -csv out/         # everything, CSV files per figure
//	tamix -fig 9 -doc 1 -time 1      # the paper's full setting (hours!)
//
//	tamix -fig contest               # CLUSTER1 under all protocols, ranked
//	tamix -fig contest -depths 7 -doc 0.05 -time 0.005
//	tamix -fig contest -json report.json   # machine-readable run report
//	tamix -fig contest -json -             # report to stdout, table to stderr
//	tamix -fig contest -remote self        # the same over a loopback xtcd
//	tamix -fig contest -remote localhost:4410 -protocols taDOM*
//
// Scaling: -doc scales the bib document (1.0 = 2000 books), -time scales
// the run-control intervals (1.0 = 5-minute runs). Throughput is always
// normalized to the paper's 5-minute interval.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/bibserve"
	"repro/internal/figures"
	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/server"
	"repro/internal/tamix"
	"repro/internal/tx"
)

func main() {
	var (
		fig      = flag.String("fig", "all", "figure to regenerate: 7, 8, 9, 10, 11, all — or contest: CLUSTER1 under every protocol, ranked")
		docScale = flag.Float64("doc", 0.02, "document scale (1.0 = the paper's 2000 books)")
		timeSc   = flag.Float64("time", 0.002, "timing scale (1.0 = 5-minute runs)")
		depths   = flag.String("depths", "", "comma-separated lock depths (default 0..7; the contest ranks at one depth, default 5)")
		avg      = flag.Int("avg", 1, "repetitions averaged per CLUSTER1 configuration (the paper used 4)")
		csvDir   = flag.String("csv", "", "also write CSV files into this directory")
		seed     = flag.Int64("seed", 0, "workload seed offset")

		protoList = flag.String("protocols", "all", "contest: protocols to rank ("+protocol.NamesHelp()+")")
		remote    = flag.String("remote", "", "contest: run against an xtcd server at this address instead of in-process engines (\"self\" = an in-process loopback daemon)")
		jsonOut   = flag.String("json", "", "contest: write the JSON run report to this file (\"-\" = stdout, table moves to stderr)")
	)
	flag.Parse()

	var ds []int // empty: each mode's default
	if *depths != "" {
		var err error
		if ds, err = parseDepths(*depths); err != nil {
			fatal(err)
		}
	}
	if *fig == "contest" {
		depth := 5
		if len(ds) == 1 {
			depth = ds[0]
		} else if len(ds) > 1 {
			fatal(fmt.Errorf("the contest ranks at one lock depth, -depths names %d", len(ds)))
		}
		if err := contest(*protoList, *remote, *jsonOut, depth, *docScale, *timeSc, *seed); err != nil {
			fatal(err)
		}
		return
	}
	opt := figures.Options{DocScale: *docScale, TimeScale: *timeSc, Depths: ds, Runs: *avg, Seed: *seed}

	want := map[string]bool{}
	if *fig == "all" {
		for _, f := range []string{"7", "8", "9", "10", "11"} {
			want[f] = true
		}
	} else {
		for _, f := range strings.Split(*fig, ",") {
			want[strings.TrimSpace(f)] = true
		}
	}

	if want["7"] {
		fmt.Println("== Figure 7: CLUSTER1 under taDOM3+ — influence of isolation level ==")
		series, err := figures.Figure7(opt)
		if err != nil {
			fatal(err)
		}
		figures.RenderSeries(os.Stdout, "Figure 7 (left)", "throughput", series)
		figures.RenderSeries(os.Stdout, "Figure 7 (right)", "deadlocks", series)
		writeCSV(*csvDir, "figure7.csv", series)
		fmt.Println()
	}
	if want["8"] {
		fmt.Println("== Figure 8: CLUSTER1 under the *-2PL group ==")
		rows, err := figures.Figure8(opt)
		if err != nil {
			fatal(err)
		}
		figures.RenderFigure8(os.Stdout, rows)
		fmt.Println()
	}
	if want["9"] || want["10"] {
		fmt.Println("== Sweeping CLUSTER1 over all depth-aware protocols (figures 9 and 10) ==")
		sweep, err := figures.Cluster1Sweep(figures.DepthProtocols(), opt)
		if err != nil {
			fatal(err)
		}
		if want["9"] {
			series := figures.Figure9(sweep, opt)
			figures.RenderSeries(os.Stdout, "Figure 9 (left)", "throughput", series)
			figures.RenderSeries(os.Stdout, "Figure 9 (right)", "deadlocks", series)
			writeCSV(*csvDir, "figure9.csv", series)
			fmt.Println()
		}
		if want["10"] {
			panels := figures.Figure10(sweep, opt)
			for i, typ := range []tamix.TxType{tamix.TAqueryBook, tamix.TAchapter, tamix.TAlendAndReturn, tamix.TArenameTopic} {
				title := fmt.Sprintf("Figure 10%c: %v", 'a'+i, typ)
				figures.RenderSeries(os.Stdout, title, "throughput", panels[typ])
				writeCSV(*csvDir, fmt.Sprintf("figure10%c.csv", 'a'+i), panels[typ])
			}
			fmt.Println()
		}
	}
	if want["11"] {
		fmt.Println("== Figure 11: CLUSTER2 — TAdelBook execution times ==")
		rows, err := figures.Figure11(opt)
		if err != nil {
			fatal(err)
		}
		figures.RenderFigure11(os.Stdout, rows)
	}
}

func parseDepths(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		d, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad depth %q: %w", part, err)
		}
		out = append(out, d)
	}
	return out, nil
}

func writeCSV(dir, name string, series []figures.Series) {
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	figures.WriteSeriesCSV(f, series)
}

// contest runs the headline experiment — CLUSTER1 at isolation level
// repeatable under every listed protocol, an in-memory WAL attached so commits
// pay a durability force — and prints the ranking table, the "contest" of the
// paper's title. With remote set the same workload runs through the wire
// protocol against an xtcd server ("self" starts a loopback daemon with the
// same document and lock timeout); the server owns its engines then, audits
// them itself, and ships their counters, not their latency distributions.
// Every statistic is read from the run's snapshot by the name its layer
// registered.
func contest(protoList, remote, jsonOut string, depth int, docScale, timeSc float64, seed int64) error {
	contestants, err := protocol.ParseList(protoList)
	if err != nil {
		return err
	}
	config := func(p protocol.Protocol) tamix.Config {
		cfg := tamix.Cluster1Config(p.Name(), tx.LevelRepeatable, depth, docScale, timeSc)
		cfg.Seed += seed
		cfg.WAL = true
		cfg.Remote = remote // read at call time: "self" is the loopback's address by then
		return cfg
	}
	if remote == "self" {
		cfg := config(contestants[0])
		srv, err := bibserve.Start(bibserve.Options{Bib: cfg.Bib, LockTimeout: cfg.LockTimeout}, server.Config{})
		if err != nil {
			return fmt.Errorf("start loopback server: %w", err)
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				fmt.Fprintln(os.Stderr, "tamix: loopback shutdown:", err)
			}
		}()
		remote = srv.Addr()
	}

	report := &tamix.ContestReport{DocScale: docScale, TimeScale: timeSc, Depth: depth, Seed: seed}
	for _, p := range contestants {
		fmt.Fprintf(os.Stderr, "running %-10s ...", p.Name())
		start := time.Now()
		res, err := tamix.Run(config(p))
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, " %6.1f tx/5min, %d deadlocks, %d restarts (%s)\n",
			res.Throughput(), res.Metrics.CounterValue("lock.deadlocks"), res.Restarts, time.Since(start).Round(time.Millisecond))
		report.Results = append(report.Results, tamix.RankedReport{Group: p.Group(), Report: res.Report()})
	}
	report.Rank()

	tableOut := io.Writer(os.Stdout)
	if jsonOut == "-" {
		tableOut = os.Stderr
	}
	w := tabwriter.NewWriter(tableOut, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "rank\tprotocol\tgroup\tthroughput\tcommitted\taborted\trestarts\tdropped\tdeadlocks\tconv-deadlocks\tlock requests\tcache hits\tlock waits\twait p95\tfix-miss p95\twal-force p95\tfaults\tretries")
	for _, rr := range report.Results {
		fmt.Fprintf(w, "%d\t%s\t%s\t%.1f\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%s\t%s\t%s\t%d\t%d\n",
			rr.Rank, rr.Protocol, rr.Group, rr.Throughput,
			rr.Committed, rr.Aborted, rr.Restarts, rr.Dropped,
			rr.Counters["lock.deadlocks"], rr.Counters["lock.conversion_deadlocks"], rr.Counters["lock.requests"],
			rr.Counters["lock.cache_hits"], rr.Counters["lock.waits"],
			p95(rr.Latencies["lock.wait"]), p95(rr.Latencies["buffer.fix_miss"]), p95(rr.Latencies["wal.force"]),
			rr.Counters["fault.injected"], rr.Counters["buffer.retries"])
	}
	if err := w.Flush(); err != nil {
		return err
	}

	switch jsonOut {
	case "":
		return nil
	case "-":
		return report.WriteJSON(os.Stdout)
	}
	f, err := os.Create(jsonOut)
	if err != nil {
		return err
	}
	if err := report.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// p95 formats a latency digest's p95 for the table ("-" when empty).
func p95(s metrics.LatencySummary) string {
	if s.Count == 0 {
		return "-"
	}
	return time.Duration(s.P95).Round(time.Microsecond).String()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tamix:", err)
	os.Exit(1)
}
