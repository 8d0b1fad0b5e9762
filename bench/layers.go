package main

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/btree"
	"repro/internal/lock"
	"repro/internal/metrics"
	"repro/internal/pagestore"
	"repro/internal/protocol"
	"repro/internal/wal"
	"repro/internal/wire"
	"repro/internal/xmlmodel"
)

// layerMetrics lists the per-layer metrics of the traced run; the layer names
// are the repository's packages. The protocol sweep's 22 metrics are appended
// by init.
var layerMetrics = []metricDef{
	{name: "client.rtt_us", unit: "us"},
	{name: "client.ops_per_txn", unit: "count"},
	{name: "wire.bytes_per_txn", unit: "B"},
	{name: "wire.codec_ns_per_msg", unit: "ns"},
	{name: "server.request_us", unit: "us"},
	{name: "server.transport_us", unit: "us"},
	{name: "server.queue_depth_max", unit: "count"},
	{name: "server.busy_rejects", unit: "count"},
	{name: "node.read_op_us", unit: "us"},
	{name: "node.write_op_us", unit: "us"},
	{name: "node.allocs_per_txn", unit: "count"},
	{name: "node.alloc_kb_per_txn", unit: "KiB"},
	{name: "node.vanished_ratio", unit: "ratio"},
	{name: "protocol.lock_req_per_txn", unit: "count"},
	{name: "lock.acquire_ns", unit: "ns"},
	{name: "lock.wait_us_per_txn", unit: "us"},
	{name: "lock.wait_ratio", unit: "ratio"},
	{name: "lock.cache_hit_ratio", unit: "ratio", higher: true},
	{name: "lock.fast_grant_ratio", unit: "ratio", higher: true},
	{name: "lock.deadlocks_per_ktxn", unit: "count"},
	{name: "lock.timeouts", unit: "count"},
	{name: "tx.begin_us", unit: "us"},
	{name: "tx.commit_us", unit: "us"},
	{name: "tx.restarts_per_ktxn", unit: "count"},
	{name: "tx.backoff_us_per_txn", unit: "us"},
	{name: "storage.space_amp", unit: "ratio"},
	{name: "storage.gen_nodes_per_s", unit: "1/s", higher: true},
	{name: "storage.recover_ms", unit: "ms"},
	{name: "btree.get_ns_warm", unit: "ns"},
	{name: "btree.get_ns_cold", unit: "ns"},
	{name: "btree.fix_per_get", unit: "count"},
	{name: "pagestore.fix_per_txn", unit: "count"},
	{name: "pagestore.miss_ratio", unit: "ratio"},
	{name: "pagestore.miss_per_txn", unit: "count"},
	{name: "pagestore.writebacks_per_txn", unit: "count"},
	{name: "pagestore.fix_hit_ns", unit: "ns"},
	{name: "pagestore.fix_miss_us", unit: "us"},
	{name: "wal.bytes_per_txn", unit: "B"},
	{name: "wal.appends_per_txn", unit: "count"},
	{name: "wal.appends_per_sync", unit: "count", higher: true},
	{name: "wal.force_us", unit: "us"},
	{name: "wal.checkpoints", unit: "count", higher: true},
	{name: "bench.ref_ms", unit: "ms"},
	{name: "bench.window_cv", unit: "ratio"},
	{name: "bench.raw_txn_per_s", unit: "1/s", higher: true},
	{name: "bench.txn_p99_us", unit: "us"},
	{name: "bench.ledger_gap_ratio", unit: "ratio"},
	{name: "bench.trace_overhead_ratio", unit: "ratio"},
}

// sweepProtocols are the paper's 11 lock protocols. The snapshot contestant
// is left out until its version-chain hole (ROADMAP item 0) is fixed.
var sweepProtocols = func() []protocol.Protocol {
	var ps []protocol.Protocol
	for _, p := range protocol.All() {
		if !protocol.UsesSnapshotReads(p) {
			ps = append(ps, p)
		}
	}
	return ps
}()

// sweepKey is a protocol's name as it appears in metric names ("+" is "p").
func sweepKey(p protocol.Protocol) string { return strings.ReplaceAll(p.Name(), "+", "p") }

func init() {
	for _, p := range sweepProtocols {
		layerMetrics = append(layerMetrics,
			metricDef{name: "protocol." + sweepKey(p) + ".lock_req_per_txn", unit: "count"},
			metricDef{name: "protocol." + sweepKey(p) + ".us_per_txn", unit: "us"})
	}
}

// Split of a traced run's measured time and sizes of its fixed-count parts.
const (
	untracedShare = 0.3 // of the windows run on an untraced engine first
	probeGets     = 100000
	probeFixes    = 200000
	probeMessages = 200000
	depthSampling = 10 * time.Millisecond
)

// layered is what a traced run of one workload yields.
type layered struct {
	workload          string
	seed              int64
	values            map[string]float64
	samples           map[string]int64
	attempted, failed int
	auditErr          error
	tracePath         string
}

func (l *layered) set(name string, v float64, n int64) {
	l.values[name] = v
	l.samples[name] = n
}

// counters is what the layers report at one instant, read from outside.
type counters struct {
	lock  lock.Stats
	pages pagestore.Stats
	log   wal.Stats
	reg   *metrics.Snapshot
	wire  int64 // bytes over the client connections, both directions
}

func (e *env) counters() counters {
	c := counters{
		lock:  e.mgr.LockManager().Stats(),
		pages: e.doc.Store().Stats(),
		reg:   e.reg.Snapshot(),
	}
	if e.log != nil {
		c.log = e.log.Stats()
	}
	for _, cc := range e.conns {
		c.wire += cc.in.Load() + cc.out.Load()
	}
	return c
}

// histDelta returns count and sum of a registry histogram between two
// snapshots.
func histDelta(before, after *metrics.Snapshot, name string) (n, sum float64) {
	b, a := before.Hist(name), after.Hist(name)
	return float64(a.Count - b.Count), float64(a.Sum - b.Sum)
}

// measureTraced runs one workload for its per-layer metrics: a share of the
// windows on an untraced engine (the base of bench.trace_overhead_ratio), the
// rest on an engine with a registry in every layer and a span around every
// harness call, then the fixed-count replay, the probes and the audits.
func measureTraced(sp *spec, seed int64, sh shape) (*layered, error) {
	res := &layered{workload: sp.name, seed: seed, values: map[string]float64{}, samples: map[string]int64{}}
	for _, m := range layerMetrics {
		res.values[m.name] = 0
	}
	nPlain := max(1, int(float64(sh.windows)*untracedShare+0.5))
	nTraced := max(1, sh.windows-nPlain)
	d := sh.window()

	plain, err := setUp(sp, seed, sh, false)
	if err != nil {
		return nil, fmt.Errorf("untraced set-up: %w", err)
	}
	if err := plain.armOracle(); err != nil {
		plain.tearDown()
		return nil, err
	}
	plainWins, runErr := plain.runWindows(nPlain, d, refLoop())
	pc, pf, _, _, _ := plain.totals()
	res.attempted, res.failed = pc+pf, pf
	if runErr == nil {
		runErr = plain.audit()
	}
	if err := plain.tearDown(); err != nil {
		return nil, fmt.Errorf("untraced tear-down: %w", err)
	}
	if runErr != nil {
		res.auditErr, res.failed = runErr, res.attempted
		return res, nil
	}
	runtime.GC()

	e, err := setUp(sp, seed, sh, true)
	if err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	defer e.tearDown()
	if err := e.armOracle(); err != nil {
		return nil, err
	}
	stopSampling := e.sampleQueueDepth(res)
	before := e.counters()
	wins, runErr := e.runWindows(nTraced, d, refLoop())
	after := e.counters()
	stopSampling()
	committed, failed, restarts, vanished, backoffNS := e.totals()
	res.attempted += committed + failed
	res.failed += failed
	if runErr != nil {
		res.auditErr, res.failed = runErr, res.attempted
		return res, nil
	}

	res.harnessMetrics(plainWins, wins)
	res.spanMetrics(e, float64(committed), restarts, vanished, backoffNS)
	res.counterMetrics(e, before, after, float64(committed))
	if err := res.replayMetrics(e, sh.replay); err != nil {
		res.auditErr = err
	}
	if err := res.storageMetrics(e); err != nil {
		return nil, err
	}
	if err := res.probes(e); err != nil {
		return nil, err
	}
	if sp.durable() {
		took, err := e.crashAndRecover()
		res.set("storage.recover_ms", float64(took.Nanoseconds())/1e6, 1)
		if err != nil {
			res.auditErr = errors.Join(res.auditErr, fmt.Errorf("durability: %w", err))
		}
	}
	if err := e.audit(); err != nil {
		res.auditErr = errors.Join(res.auditErr, err)
	}
	recs := make([]*recorder, len(e.workers))
	for i, w := range e.workers {
		recs[i] = w.rec
	}
	if res.tracePath, err = writeTrace(scratchRoot, sp.name, seed, recs); err != nil {
		return nil, err
	}
	if sp.durable() {
		if err := res.sweep(sp, seed, sh.replay); err != nil {
			res.auditErr = errors.Join(res.auditErr, fmt.Errorf("protocol sweep: %w", err))
		}
	}
	if res.auditErr != nil {
		res.failed = res.attempted
	}
	return res, nil
}

// sampleQueueDepth polls the server's queue-depth gauge while the traced
// windows run and records the largest value seen. The returned function stops
// the polling and waits for it.
func (e *env) sampleQueueDepth(res *layered) (stop func()) {
	if e.srv == nil {
		return func() {}
	}
	gauge := e.reg.Gauge("server.queue_depth")
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(depthSampling)
		defer t.Stop()
		var deepest, n int64
		for {
			select {
			case <-done:
				res.set("server.queue_depth_max", float64(deepest), n)
				return
			case <-t.C:
				n++
				if v := gauge.Load(); v > deepest {
					deepest = v
				}
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

// harnessMetrics are the bench.* metrics: they say whether the run can be
// trusted, not how the program did.
func (l *layered) harnessMetrics(plain, traced []window) {
	n := int64(len(plain))
	l.set("bench.ref_ms", median(refs(append(append([]window(nil), plain...), traced...))), n+int64(len(traced)))
	l.set("bench.window_cv", cv(normRates(plain)), n)
	l.set("bench.raw_txn_per_s", median(rawRates(plain)), n)
	l.set("bench.txn_p99_us", median(normLatUS(plain, func(w window) int64 { return w.p99 })), n)
	l.set("bench.trace_overhead_ratio", 1-ratio(median(normRates(traced)), median(normRates(plain))), int64(len(traced)))
}

// spanMetrics turns the workers' span sums into the client, node and tx
// metrics and the ledger gap.
func (l *layered) spanMetrics(e *env, committed float64, restarts, vanished int, backoffNS int64) {
	var agg [nSpanKinds]spanAgg
	var covered, latency int64
	for _, w := range e.workers {
		for k := range agg {
			agg[k].n += w.rec.agg[k].n
			agg[k].ns += w.rec.agg[k].ns
		}
		covered += w.rec.coveredNS
		latency += w.rec.latencyNS
	}
	var calls, read, write spanAgg
	for k := spBegin; k < nSpanKinds; k++ {
		if k == spBackoff {
			continue
		}
		calls.n += agg[k].n
		calls.ns += agg[k].ns
		if k.isRead() {
			read.n += agg[k].n
			read.ns += agg[k].ns
		}
		if k.isWrite() {
			write.n += agg[k].n
			write.ns += agg[k].ns
		}
	}
	us := func(a spanAgg) float64 { return ratio(float64(a.ns), float64(a.n)) / 1e3 }
	if e.sp.remote {
		l.set("client.rtt_us", us(calls), calls.n)
		l.set("client.ops_per_txn", ratio(float64(calls.n), committed), int64(committed))
	} else {
		l.set("node.read_op_us", us(read), read.n)
		l.set("node.write_op_us", us(write), write.n)
	}
	l.set("tx.begin_us", us(agg[spBegin]), agg[spBegin].n)
	l.set("tx.commit_us", us(agg[spCommit]), agg[spCommit].n)
	l.set("tx.restarts_per_ktxn", ratio(float64(restarts)*1000, committed), int64(committed))
	l.set("tx.backoff_us_per_txn", ratio(float64(backoffNS)/1e3, committed), int64(committed))
	l.set("node.vanished_ratio", ratio(float64(vanished), committed), int64(committed))
	l.set("bench.ledger_gap_ratio", 1-ratio(float64(covered), float64(latency)), agg[spTxn].n)
}

// counterMetrics diffs the layers' own counters over the traced windows.
func (l *layered) counterMetrics(e *env, before, after counters, committed float64) {
	n := int64(committed)
	if e.sp.remote {
		l.set("wire.bytes_per_txn", ratio(float64(after.wire-before.wire), committed), n)
		reqN, reqNS := histDelta(before.reg, after.reg, "server.request_ns")
		l.set("server.request_us", ratio(reqNS, reqN)/1e3, int64(reqN))
		l.set("server.transport_us", l.values["client.rtt_us"]-l.values["server.request_us"], int64(reqN))
		l.set("server.busy_rejects", float64(after.reg.CounterValue("server.busy_rejects")-before.reg.CounterValue("server.busy_rejects")), 1)
	}

	d := func(after, before uint64) float64 { return float64(after - before) }
	al, bl := after.lock, before.lock
	requests := d(al.Requests, bl.Requests)
	l.set("protocol.lock_req_per_txn", ratio(requests, committed), n)
	acqN, acqNS := histDelta(before.reg, after.reg, "lock.acquire")
	l.set("lock.acquire_ns", ratio(acqNS, acqN), int64(acqN))
	waitN, waitNS := histDelta(before.reg, after.reg, "lock.wait")
	l.set("lock.wait_us_per_txn", ratio(waitNS/1e3, committed), int64(waitN))
	l.set("lock.wait_ratio", ratio(d(al.Waits, bl.Waits), requests), int64(requests))
	l.set("lock.cache_hit_ratio", ratio(d(al.CacheHits, bl.CacheHits), requests), int64(requests))
	fast := d(after.reg.CounterValue("lock.fast_grants"), before.reg.CounterValue("lock.fast_grants"))
	l.set("lock.fast_grant_ratio", ratio(fast, requests), int64(requests))
	l.set("lock.deadlocks_per_ktxn", ratio(d(al.Deadlocks, bl.Deadlocks)*1000, committed), n)
	l.set("lock.timeouts", d(al.Timeouts, bl.Timeouts), 1)

	ap, bp := after.pages, before.pages
	hits, misses := d(ap.Hits, bp.Hits), d(ap.Misses, bp.Misses)
	l.set("pagestore.fix_per_txn", ratio(hits+misses, committed), n)
	l.set("pagestore.miss_ratio", ratio(misses, hits+misses), int64(hits+misses))
	l.set("pagestore.miss_per_txn", ratio(misses, committed), n)
	l.set("pagestore.writebacks_per_txn", ratio(d(ap.Writebacks, bp.Writebacks), committed), n)
	missN, missNS := histDelta(before.reg, after.reg, "buffer.fix_miss")
	l.set("pagestore.fix_miss_us", ratio(missNS, missN)/1e3, int64(missN))

	if e.log != nil {
		ag, bg := after.log, before.log
		appends := d(ag.Appends, bg.Appends)
		l.set("wal.bytes_per_txn", ratio(d(ag.Next, bg.Next), committed), n) // an LSN is a byte offset
		l.set("wal.appends_per_txn", ratio(appends, committed), n)
		l.set("wal.appends_per_sync", ratio(appends, d(ag.Syncs, bg.Syncs)), int64(appends))
		forceN, forceNS := histDelta(before.reg, after.reg, "wal.force")
		l.set("wal.force_us", ratio(forceNS, forceN)/1e3, int64(forceN))
		l.set("wal.checkpoints", d(ag.Checkpoints, bg.Checkpoints), 1)
	}
}

// replayMetrics runs txns transactions on worker 0 alone and charges
// the process's allocations to them.
func (l *layered) replayMetrics(e *env, txns int) error {
	w := e.workers[0]
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < txns; i++ {
		if !w.runTxn() {
			return w.fatal
		}
	}
	runtime.ReadMemStats(&after)
	l.set("node.allocs_per_txn", float64(after.Mallocs-before.Mallocs)/float64(txns), int64(txns))
	l.set("node.alloc_kb_per_txn", float64(after.TotalAlloc-before.TotalAlloc)/1024/float64(txns), int64(txns))
	return nil
}

type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) { c.n += int64(len(p)); return len(p), nil }

// storageMetrics relates the pages the document occupies to the XML it holds
// and reports how fast set-up generated it.
func (l *layered) storageMetrics(e *env) error {
	var xml countWriter
	if err := e.doc.ExportXML(&xml, e.doc.Root()); err != nil {
		return fmt.Errorf("export: %w", err)
	}
	pages := float64(e.backend.NumPages()) * pagestore.PageSize
	l.set("storage.space_amp", ratio(pages, float64(xml.n)), 1)
	l.set("storage.gen_nodes_per_s", ratio(float64(e.genNodes), e.genDur.Seconds()), int64(e.genNodes))
	return nil
}

// probes call btree, pagestore and wire directly, on inputs taken from the
// workload: the document's records, the node ids the workers touched and the
// frames their connections carried.
func (l *layered) probes(e *env) error {
	var touched [][]byte
	for _, w := range e.workers {
		for _, id := range w.touched {
			touched = append(touched, id.Encode())
		}
	}
	if len(touched) == 0 {
		return errors.New("probe: the workers touched no nodes")
	}
	backend := pagestore.NewMemBackend()
	warm := pagestore.Open(backend, e.doc.Size()/8+pagestore.DefaultFrames) // frames are allocated on use
	tree, err := btree.Create(warm)
	if err != nil {
		return err
	}
	var insertErr error
	if err := e.doc.ScanDocument(func(n xmlmodel.Node) bool {
		insertErr = tree.Insert(n.ID.Encode(), xmlmodel.EncodeRecord(n))
		return insertErr == nil
	}); err != nil || insertErr != nil {
		return fmt.Errorf("probe tree: %w", errors.Join(err, insertErr))
	}
	get := func(t *btree.Tree) (float64, error) {
		start := time.Now()
		for i := 0; i < probeGets; i++ {
			// A touched node may since have been deleted; a miss costs the
			// same descent.
			if _, err := t.Get(touched[i%len(touched)]); err != nil && err != btree.ErrNotFound {
				return 0, err
			}
		}
		return float64(time.Since(start).Nanoseconds()) / probeGets, nil
	}
	ns, err := get(tree)
	if err != nil {
		return err
	}
	l.set("btree.get_ns_warm", ns, probeGets)

	root, err := warm.Fix(tree.Root())
	if err != nil {
		return err
	}
	warm.Unfix(root)
	start := time.Now()
	for i := 0; i < probeFixes; i++ {
		f, err := warm.Fix(tree.Root())
		if err != nil {
			return err
		}
		warm.Unfix(f)
	}
	l.set("pagestore.fix_hit_ns", float64(time.Since(start).Nanoseconds())/probeFixes, probeFixes)

	if err := warm.Flush(); err != nil {
		return err
	}
	cold := pagestore.Open(backend, coldFrames)
	coldTree, err := btree.Open(cold, tree.Root())
	if err != nil {
		return err
	}
	s0 := cold.Stats()
	if ns, err = get(coldTree); err != nil {
		return err
	}
	s1 := cold.Stats()
	l.set("btree.get_ns_cold", ns, probeGets)
	l.set("btree.fix_per_get", float64(s1.Hits+s1.Misses-s0.Hits-s0.Misses)/probeGets, probeGets)

	if len(e.conns) > 0 {
		return l.codecProbe(e)
	}
	return nil
}

// codecProbe times wire's public codec on the frames the connections carried
// first: decode, re-encode, frame, read the frame back, decode.
func (l *layered) codecProbe(e *env) error {
	var payloads [][]byte
	for _, c := range e.conns {
		for _, stream := range [][]byte{c.headOut, c.headIn} {
			r := bytes.NewReader(stream)
			for {
				p, err := wire.ReadFrame(r)
				if err != nil {
					break // the kept head ends mid-frame
				}
				payloads = append(payloads, p)
			}
		}
	}
	if len(payloads) == 0 {
		return errors.New("codec probe: the connections carried no frames")
	}
	var frame bytes.Buffer
	var msg []byte
	start := time.Now()
	for i := 0; i < probeMessages; i++ {
		m, err := wire.DecodeMsg(payloads[i%len(payloads)])
		if err != nil {
			return fmt.Errorf("codec probe: %w", err)
		}
		msg = wire.AppendMsg(msg[:0], m)
		frame.Reset()
		if err := wire.WriteFrame(&frame, msg); err != nil {
			return fmt.Errorf("codec probe: %w", err)
		}
		back, err := wire.ReadFrame(&frame)
		if err != nil {
			return fmt.Errorf("codec probe: %w", err)
		}
		if _, err := wire.DecodeMsg(back); err != nil {
			return fmt.Errorf("codec probe: %w", err)
		}
	}
	l.set("wire.codec_ns_per_msg", float64(time.Since(start).Nanoseconds())/probeMessages, probeMessages)
	return nil
}

// sweep replays the workload's first txns transactions on one worker
// under each of the 11 lock protocols, twice, and requires the lock-request
// counts of the two passes to agree: a count is only worth reporting if it
// repeats exactly.
func (l *layered) sweep(sp *spec, seed int64, txns int) error {
	for _, p := range sweepProtocols {
		var requests [2]uint64
		var perTxnUS [2]float64
		for pass := range requests {
			e := &env{sp: sp, seed: seed, scale: sp.scale}
			if err := e.open(p.Name()); err != nil {
				e.tearDown()
				return fmt.Errorf("%s: %w", p.Name(), err)
			}
			w := e.workers[0]
			start := time.Now()
			for i := 0; i < txns; i++ {
				if !w.runTxn() {
					e.tearDown()
					return fmt.Errorf("%s: %w", p.Name(), w.fatal)
				}
			}
			perTxnUS[pass] = float64(time.Since(start).Microseconds()) / float64(txns)
			requests[pass] = e.mgr.LockManager().Stats().Requests
			err := e.audit()
			if terr := e.tearDown(); err == nil {
				err = terr
			}
			if err != nil {
				return fmt.Errorf("%s: %w", p.Name(), err)
			}
		}
		if requests[0] != requests[1] {
			return fmt.Errorf("%s: %d lock requests on the first pass, %d on the second, same seed", p.Name(), requests[0], requests[1])
		}
		l.set("protocol."+sweepKey(p)+".lock_req_per_txn", float64(requests[0])/float64(txns), int64(txns))
		l.set("protocol."+sweepKey(p)+".us_per_txn", (perTxnUS[0]+perTxnUS[1])/2, int64(2*txns))
	}
	return nil
}
