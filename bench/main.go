// Command bench is the repository's benchmark: four closed-loop workloads on
// the xtcd stack, five end-to-end metrics per workload normalised by the
// machine's measured speed, and a per-layer ledger from a separate traced
// run. See README.md in this directory and BENCHMARK.json at the repository
// root.
//
//	go run ./bench -workload local_mix -seed 1 -seconds 20 -trace 0
//
// The last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
)

// metricDef names one metric the benchmark prints; BENCHMARK.json lists the
// same names (bench_test.go checks that they agree). An end-to-end bound is
// about three times the spread between ten runs on different seeds on the
// calibration machine (bench/CALIBRATION.md), at most 0.25.
type metricDef struct {
	name, unit string
	higher     bool    // larger is better
	bound      float64 // end-to-end only: share by which it may worsen
}

var endToEndMetrics = []metricDef{
	{"txn_per_s", "1/s", true, 0.15},
	{"txn_p50_us", "us", false, 0.25},
	{"txn_p95_us", "us", false, 0.25},
	{"setup_s", "s", false, 0.25},
	{"mem_live_mb", "MiB", false, 0.15},
}

// report is the last line of standard output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+" (default: all)")
	seed := flag.Int64("seed", 1, "seed of the document, the op stream and the backoff jitter")
	seconds := flag.Float64("seconds", fullShape.seconds, "measured time per workload, cut into equal windows")
	trace := flag.Int("trace", -1, "0: end-to-end run, 1: traced per-layer run, -1: both")
	smoke := flag.Bool("smoke", false, "one 200 ms window per workload, audits on")
	selfcheck := flag.Int("selfcheck", 0, "run every workload N times and report the spread of each end-to-end metric")
	flag.Parse()

	if runtime.NumCPU() < workers {
		fatal(fmt.Errorf("the load shape needs %d CPUs, this machine has %d", workers, runtime.NumCPU()))
	}
	runtime.GOMAXPROCS(workers)

	run := specs
	if *workload != "" {
		sp := specByName(*workload)
		if sp == nil {
			fatal(fmt.Errorf("unknown workload %q (known: %s)", *workload, strings.Join(workloadNames(), ", ")))
		}
		run = []*spec{sp}
	}
	sh := fullShape
	sh.seconds = *seconds
	if *smoke {
		sh = smokeShape
	}
	if *selfcheck > 0 {
		if err := selfCheck(run, *seed, sh, *selfcheck); err != nil {
			fatal(err)
		}
		return
	}

	rep, err := runAll(run, *seed, sh, *trace)
	if err != nil {
		fatal(err)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
	if !rep.Correct || rep.Failed > 0 {
		os.Exit(1)
	}
}

// runAll measures the workloads end to end (trace 0), traced (trace 1) or
// both, prints every metric and returns the report. With one workload the
// report's metrics carry their plain names, otherwise "<workload>.<metric>".
func runAll(run []*spec, seed int64, sh shape, trace int) (*report, error) {
	rep := &report{Correct: true, Metrics: map[string]metricValue{}}
	key := func(sp *spec, name string) string {
		if len(run) == 1 {
			return name
		}
		return sp.name + "." + name
	}
	for _, sp := range run {
		if trace != 1 {
			res, err := measure(sp, seed, sh)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", sp.name, err)
			}
			printEndToEnd(res)
			norm, _ := res.metrics()
			for _, m := range endToEndMetrics {
				rep.Metrics[key(sp, m.name)] = metricValue{norm[m.name], m.unit}
			}
			rep.add(res.attempted, res.failed, res.auditErr)
		}
		if trace != 0 {
			res, err := measureTraced(sp, seed, sh)
			if err != nil {
				return nil, fmt.Errorf("%s traced: %w", sp.name, err)
			}
			printLayered(res)
			for _, m := range layerMetrics {
				rep.Metrics[key(sp, m.name)] = metricValue{res.values[m.name], m.unit}
			}
			rep.add(res.attempted, res.failed, res.auditErr)
		}
	}
	return rep, nil
}

func (r *report) add(attempted, failed int, auditErr error) {
	r.Attempted += attempted
	r.Failed += failed
	if auditErr != nil {
		r.Correct = false
		fmt.Fprintln(os.Stderr, "bench: AUDIT FAILED:", auditErr)
	}
}

func workloadNames() []string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return names
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// printEndToEnd prints every end-to-end metric by name with its unit and
// sample count, the raw value beside the normalised one, and what the harness
// knows about the run's own quality.
func printEndToEnd(r *endToEnd) {
	norm, raw := r.metrics()
	samples := 0
	for _, w := range r.windows {
		samples += w.committed
	}
	fmt.Printf("== %s seed=%d end-to-end: %d windows, %d transactions, %d failed\n",
		r.workload, r.seed, len(r.windows), r.attempted, r.failed)
	for _, m := range endToEndMetrics {
		n := samples
		switch m.name {
		case "setup_s":
			n = len(r.setupS)
		case "mem_live_mb":
			n = 1
		}
		fmt.Printf("%-28s %14.4f %-5s raw %14.4f  n=%d\n", m.name, norm[m.name], m.unit, raw[m.name], n)
	}
	minBeyond := 0
	for i, w := range r.windows {
		if i == 0 || w.beyondP95 < minBeyond {
			minBeyond = w.beyondP95
		}
	}
	fmt.Printf("%-28s %14.4f %-5s (refLoop, nominal %.0f)\n", "bench.ref_ms", median(refs(r.windows)), "ms", RefNominalMS)
	fmt.Printf("%-28s %14.4f %-5s (of the windows' normalised txn_per_s)\n", "bench.window_cv", cv(normRates(r.windows)), "ratio")
	fmt.Printf("%-28s %14.4f %-5s (ungated)\n", "bench.txn_p99_us", median(normLatUS(r.windows, func(w window) int64 { return w.p99 })), "us")
	fmt.Printf("%-28s %14d %-5s (fewest samples beyond p95 in a window)\n", "bench.p95_tail_samples", minBeyond, "count")
}

// printLayered prints every per-layer metric of a traced run with its unit and
// sample count.
func printLayered(l *layered) {
	fmt.Printf("== %s seed=%d traced: %d transactions, %d failed, trace in %s\n",
		l.workload, l.seed, l.attempted, l.failed, l.tracePath)
	for _, m := range layerMetrics {
		fmt.Printf("%-36s %16.4f %-5s n=%d\n", m.name, l.values[m.name], m.unit, l.samples[m.name])
	}
}
