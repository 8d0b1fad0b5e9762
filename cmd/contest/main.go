// Command contest runs the headline experiment in one shot: CLUSTER1 at
// isolation level repeatable under all 11 lock protocols, printed as a
// ranking table — the "contest" of the paper's title.
//
// Usage:
//
//	contest                  # quick, scaled-down run
//	contest -depth 5 -doc 0.05 -time 0.005
//	contest -json report.json            # machine-readable run report
//	contest -json -                      # report to stdout, table to stderr
//	contest -debug-addr localhost:6060   # live /metrics + pprof while running
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sync/atomic"
	"text/tabwriter"
	"time"

	"repro/internal/metrics"
	"repro/internal/pagestore"
	"repro/internal/protocol"
	"repro/internal/tamix"
	"repro/internal/tx"
)

func main() {
	var (
		depth       = flag.Int("depth", 5, "lock depth for depth-aware protocols")
		docScale    = flag.Float64("doc", 0.02, "document scale (1.0 = 2000 books)")
		timeSc      = flag.Float64("time", 0.002, "timing scale (1.0 = 5-minute runs)")
		seed        = flag.Int64("seed", 0, "workload seed offset")
		lockTimeout = flag.Duration("lock-timeout", 0, "lock-wait timeout (0 = scaled default)")
		maxRestarts = flag.Int("max-restarts", 0, "restart cap per aborted transaction (0 = default, negative = no restarts)")
		faultProb   = flag.Float64("fault", 0, "transient storage-fault probability per page read/write (0 = off)")
		tornWrites  = flag.Bool("torn-writes", false, "injected write faults also tear the page image")
		frames      = flag.Int("frames", 0, "page-buffer frames (0 = default; shrink below the working set so -fault reaches the backend)")
		flusher     = flag.Duration("flusher", 0, "background flusher interval for dirty pages (0 = disabled)")
		useWAL      = flag.Bool("wal", true, "attach an in-memory WAL so commits pay a durability force (wal.* latencies)")
		jsonOut     = flag.String("json", "", "write the JSON run report to this file (\"-\" = stdout, table moves to stderr)")
		debugAddr   = flag.String("debug-addr", "", "serve /metrics and /debug/pprof on this address while running")
		protoList   = flag.String("protocols", "all", "protocols to contest ("+protocol.NamesHelp()+")")
	)
	flag.Parse()

	contestants, err := protocol.ParseList(*protoList)
	if err != nil {
		fmt.Fprintln(os.Stderr, "contest:", err)
		os.Exit(1)
	}

	// The debug endpoint follows the protocol currently under test: each run
	// gets a fresh registry (distributions must not mix protocols) and the
	// endpoint reads whichever one is live.
	var liveReg atomic.Pointer[metrics.Registry]
	if *debugAddr != "" {
		addr, stop, err := metrics.ServeDebug(*debugAddr, func() *metrics.Snapshot {
			return liveReg.Load().Snapshot() // nil-safe: empty snapshot between runs
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "contest: debug endpoint:", err)
			os.Exit(1)
		}
		defer stop()
		fmt.Fprintf(os.Stderr, "debug endpoint on http://%s/ (metrics, pprof)\n", addr)
	}

	report := &tamix.ContestReport{
		DocScale:  *docScale,
		TimeScale: *timeSc,
		Depth:     *depth,
		Seed:      *seed,
	}
	type row struct {
		group  string
		result *tamix.Result
	}
	rows := map[string]row{}
	for _, p := range contestants {
		cfg := tamix.Cluster1Config(p.Name(), tx.LevelRepeatable, *depth, *docScale, *timeSc)
		cfg.Seed += *seed
		if *lockTimeout > 0 {
			cfg.LockTimeout = *lockTimeout
		}
		cfg.MaxRestarts = *maxRestarts
		cfg.Bib.BufferFrames = *frames
		cfg.Bib.FlusherInterval = *flusher
		cfg.WAL = *useWAL
		if *faultProb > 0 {
			cfg.Faults = &pagestore.FaultConfig{
				Seed:       cfg.Seed,
				ReadProb:   *faultProb,
				WriteProb:  *faultProb,
				TornWrites: *tornWrites,
			}
		}
		reg := metrics.NewRegistry()
		cfg.Metrics = reg
		liveReg.Store(reg)
		fmt.Fprintf(os.Stderr, "running %-10s ...", p.Name())
		start := time.Now()
		res, err := tamix.Run(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, " %6.1f tx/5min, %d deadlocks, %d restarts (%s)\n",
			res.Throughput(), res.Deadlocks, res.Restarts, time.Since(start).Round(time.Millisecond))
		rows[p.Name()] = row{p.Group(), res}
		report.Results = append(report.Results, tamix.RankedReport{
			Group:  p.Group(),
			Report: res.Report(),
		})
	}
	report.Rank()

	tableOut := io.Writer(os.Stdout)
	if *jsonOut == "-" {
		tableOut = os.Stderr
	}
	w := tabwriter.NewWriter(tableOut, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "rank\tprotocol\tgroup\tthroughput\tcommitted\taborted\trestarts\tdropped\tdeadlocks\tconv-deadlocks\tlock requests\tcache hits\tlock waits\twait p95\tfix-miss p95\twal-force p95\tfaults\tretries")
	for _, rr := range report.Results {
		r := rows[rr.Protocol]
		fmt.Fprintf(w, "%d\t%s\t%s\t%.1f\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%s\t%s\t%s\t%d\t%d\n",
			rr.Rank, rr.Protocol, r.group, rr.Throughput,
			rr.Committed, rr.Aborted, rr.Restarts, rr.Dropped,
			rr.Deadlocks, rr.ConversionDeadlocks, rr.LockRequests,
			rr.LockCacheHits, rr.LockWaits,
			p95(rr.Latencies["lock.wait"]), p95(rr.Latencies["buffer.fix_miss"]), p95(rr.Latencies["wal.force"]),
			rr.FaultsInjected, rr.BufferRetries)
	}
	w.Flush()

	if *jsonOut != "" {
		out := io.Writer(os.Stdout)
		if *jsonOut != "-" {
			f, err := os.Create(*jsonOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, "contest:", err)
				os.Exit(1)
			}
			defer f.Close()
			out = f
		}
		if err := report.WriteJSON(out); err != nil {
			fmt.Fprintln(os.Stderr, "contest:", err)
			os.Exit(1)
		}
	}
}

// p95 formats a latency digest's p95 for the table ("-" when empty).
func p95(s metrics.LatencySummary) string {
	if s.Count == 0 {
		return "-"
	}
	return time.Duration(s.P95).Round(time.Microsecond).String()
}
