package main

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"
)

// shape sizes one run. The measured time is cut into equal windows with a
// timing of refLoop between them, and the run's value is the median over the
// windows, so a window the machine disturbed does not move the result. Many
// short windows beat few long ones: the machine's speed changes within
// tenths of a second, and a calibration only describes the window right beside
// it (bench/CALIBRATION.md).
type shape struct {
	seconds float64 // measured time per workload
	windows int
	setUps  int // complete timed set-ups; setup_s is their median, the last is kept
	warmDiv int // divisor of the workload's warm-up count and document scale
	replay  int // transactions of the single-worker replays of a traced run
}

// fullShape is the benchmark; smokeShape only proves that every workload
// still builds, runs and passes its audits.
var (
	fullShape  = shape{seconds: 20, windows: 100, setUps: 3, warmDiv: 1, replay: 2000}
	smokeShape = shape{seconds: 0.2, windows: 1, setUps: 1, warmDiv: 10, replay: 100}
)

// window returns the length of one window.
func (sh shape) window() time.Duration {
	return time.Duration(sh.seconds * float64(time.Second) / float64(sh.windows))
}

// setUpRefs is how many timings of refLoop are averaged before and after a
// set-up.
const setUpRefs = 5

// window is one measurement window of the closed loop.
type window struct {
	committed     int
	elapsed       time.Duration
	p50, p95, p99 int64   // exact percentiles of the window's latencies, ns
	beyondP95     int     // samples above the p95 rank
	refMS         float64 // mean of the calibrations before and after
}

func (w window) rate() float64 { return float64(w.committed) / w.elapsed.Seconds() }

// runWindow lets every worker run transactions back to back for d. A
// transaction in flight at the deadline is finished and counted, and the
// window lasts until the last worker is done.
func (e *env) runWindow(d time.Duration) (window, error) {
	for _, w := range e.workers {
		w.lat = w.lat[:0]
	}
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for _, w := range e.workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			for time.Now().Before(deadline) && w.runTxn() {
			}
		}(w)
	}
	wg.Wait()
	win := window{elapsed: time.Since(start)}
	lat := e.lat[:0]
	for _, w := range e.workers {
		if w.fatal != nil {
			return win, w.fatal
		}
		lat = append(lat, w.lat...)
	}
	slices.Sort(lat)
	e.lat = lat
	win.committed = len(lat)
	win.p50, win.p95, win.p99 = percentile(lat, 0.50), percentile(lat, 0.95), percentile(lat, 0.99)
	win.beyondP95 = len(lat) - rank(0.95, len(lat))
	return win, nil
}

// runWindows measures n windows of d each, timing refLoop between them. ref is
// the calibration taken just before.
func (e *env) runWindows(n int, d time.Duration, ref float64) ([]window, error) {
	wins := make([]window, 0, n)
	for i := 0; i < n; i++ {
		win, err := e.runWindow(d)
		if err != nil {
			return wins, err
		}
		next := refLoop()
		win.refMS = (ref + next) / 2
		ref = next
		wins = append(wins, win)
	}
	return wins, nil
}

// totals sums the workers' counters since the warm-up.
func (e *env) totals() (committed, failed, restarts, vanished int, backoffNS int64) {
	for _, w := range e.workers {
		committed += w.committed
		failed += w.failed
		restarts += w.restarts
		vanished += w.vanished
		backoffNS += w.backoffNS
	}
	return
}

// endToEnd is what a run of one workload yields with tracing off.
type endToEnd struct {
	workload          string
	seed              int64
	windows           []window
	setupRaw, setupS  []float64 // each set-up in seconds, raw and normalised
	memLiveMB         float64
	attempted, failed int
	auditErr          error
}

// windowSeries returns one normalised value per window.
func windowSeries(wins []window, f func(window) float64) []float64 {
	out := make([]float64, len(wins))
	for i, w := range wins {
		out[i] = f(w)
	}
	return out
}

func normRates(wins []window) []float64 {
	return windowSeries(wins, func(w window) float64 { return normRate(w.rate(), w.refMS) })
}

func rawRates(wins []window) []float64 {
	return windowSeries(wins, func(w window) float64 { return w.rate() })
}

func refs(wins []window) []float64 {
	return windowSeries(wins, func(w window) float64 { return w.refMS })
}

// normLatUS returns one normalised latency in microseconds per window.
func normLatUS(wins []window, pick func(window) int64) []float64 {
	return windowSeries(wins, func(w window) float64 { return normDur(float64(pick(w))/1e3, w.refMS) })
}

// metrics returns the five end-to-end metrics, raw and normalised.
func (r *endToEnd) metrics() (norm, raw map[string]float64) {
	norm = map[string]float64{
		"txn_per_s":   median(normRates(r.windows)),
		"txn_p50_us":  median(normLatUS(r.windows, func(w window) int64 { return w.p50 })),
		"txn_p95_us":  median(normLatUS(r.windows, func(w window) int64 { return w.p95 })),
		"setup_s":     median(r.setupS),
		"mem_live_mb": r.memLiveMB,
	}
	raw = map[string]float64{
		"txn_per_s":   median(rawRates(r.windows)),
		"txn_p50_us":  median(windowSeries(r.windows, func(w window) float64 { return float64(w.p50) / 1e3 })),
		"txn_p95_us":  median(windowSeries(r.windows, func(w window) float64 { return float64(w.p95) / 1e3 })),
		"setup_s":     median(r.setupRaw),
		"mem_live_mb": r.memLiveMB,
	}
	return norm, raw
}

// measure runs one workload end to end with tracing off: the timed set-ups,
// the windows, the durability check where the workload has one, the live-heap
// reading, then the audits.
func measure(sp *spec, seed int64, sh shape) (*endToEnd, error) {
	res := &endToEnd{workload: sp.name, seed: seed}
	var e *env
	ref := refMean(setUpRefs)
	for i := 0; i < sh.setUps; i++ {
		if e != nil {
			if err := e.tearDown(); err != nil {
				return nil, fmt.Errorf("tear down set-up %d: %w", i, err)
			}
			runtime.GC() // every set-up starts from the same heap
			ref = refMean(setUpRefs)
		}
		t0 := time.Now()
		var err error
		if e, err = setUp(sp, seed, sh, false); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		d := time.Since(t0).Seconds()
		next := refMean(setUpRefs)
		res.setupRaw = append(res.setupRaw, d)
		res.setupS = append(res.setupS, normDur(d, (ref+next)/2))
		ref = next
	}
	defer e.tearDown()
	if err := e.armOracle(); err != nil {
		return nil, err
	}
	var err error
	res.windows, err = e.runWindows(sh.windows, sh.window(), ref)
	if err != nil {
		res.auditErr = err
	} else {
		if sp.durable() {
			_, res.auditErr = e.crashAndRecover()
		}
		res.memLiveMB, err = e.liveHeapMB()
		if err != nil {
			return nil, err
		}
		res.auditErr = errors.Join(res.auditErr, e.audit())
	}
	committed, failed, _, _, _ := e.totals()
	res.attempted, res.failed = committed+failed, failed
	if res.auditErr != nil {
		res.failed = res.attempted
	}
	return res, nil
}

// armOracle gives the workers TAqueryBook's expected node counts where the
// workload never writes.
func (e *env) armOracle() error {
	if e.sp.wal || !e.sp.runs(txQueryBook) {
		return nil
	}
	oracle, err := e.bookOracle()
	if err != nil {
		return err
	}
	for _, w := range e.workers {
		w.oracle = oracle
	}
	return nil
}

// liveHeapMB reads the live heap with the workers quiet and the engine still
// open: after a final flush and checkpoint (so the log is truncated to its
// retained segments) and two collections.
func (e *env) liveHeapMB() (float64, error) {
	if e.log != nil {
		e.doc.Store().FlushDirty()
		if _, err := e.doc.Checkpoint(); err != nil {
			return 0, fmt.Errorf("final checkpoint: %w", err)
		}
	}
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20), nil
}
