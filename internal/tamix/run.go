package tamix

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/node"
	"repro/internal/pagestore"
	"repro/internal/protocol"
	"repro/internal/spin"
	"repro/internal/tx"
	"repro/internal/wal"
)

// Config describes one TaMix benchmark run.
type Config struct {
	// Protocol names the lock protocol under test.
	Protocol string
	// Isolation is the isolation level of every transaction.
	Isolation tx.Level
	// Depth is the lock-depth parameter (ignored by depth-unaware
	// protocols; negative = unlimited).
	Depth int
	// Clients is the number of TaMix clients (paper: 3).
	Clients int
	// Mix is the per-client transaction mix: how many concurrent slots of
	// each type every client keeps active (paper CLUSTER1: 9 TAqueryBook,
	// 5 TAchapter, 2 TArenameTopic, 8 TAlendAndReturn = 24 per client, 72
	// total).
	Mix map[TxType]int
	// Duration is the measurement interval (paper: 5 minutes).
	Duration time.Duration
	// WaitAfterCommit is the client think time between transactions
	// (paper: 2500 ms).
	WaitAfterCommit time.Duration
	// WaitAfterOperation is the pause between operations inside a
	// transaction (paper: 100 ms).
	WaitAfterOperation time.Duration
	// MaxStartDelay staggers slot start-up (paper: 0-5000 ms random).
	MaxStartDelay time.Duration
	// LockTimeout bounds lock waits; it should comfortably exceed the
	// expected blocking times (a timeout aborts like a deadlock victim).
	LockTimeout time.Duration
	// MaxRestarts caps how often one logical transaction is restarted after
	// a deadlock or lock-timeout abort before the slot gives up on it
	// (DefaultMaxRestarts when zero; negative disables restarts). The
	// paper's contest counts committed work, which presumes victims are
	// retried until the mix completes — this is that retry loop.
	MaxRestarts int
	// Faults, when non-nil, is the fault plan the document's backend
	// consults (pagestore.FaultBackend). Run arms it for the measurement
	// interval only: document generation and the post-run verification run
	// fault-free.
	Faults *fault.Plan
	// UseUpdateLocks makes TAlendAndReturn declare its write intent with
	// update-mode locks (URIX's U, taDOM's SU) instead of converting read
	// locks — an ablation on the paper's conversion-deadlock observation.
	UseUpdateLocks bool
	// Bib sizes the document.
	Bib BibConfig
	// WAL attaches an in-memory write-ahead log to the run: operations
	// append redo/undo records and every commit forces the log, so commit
	// latency includes a durability wait and the wal.* instruments
	// (append/force latency, group-commit batch size) see the measured
	// workload. The log lives in memory — it exercises the logging path,
	// not the disk.
	WAL bool
	// Seed drives all randomness of the run.
	Seed int64
	// Remote, when non-empty, runs the workload against an xtcd server at
	// this address instead of an in-process engine: every slot opens its own
	// session (the server's one-transaction-per-session discipline), the
	// post-run audit runs server-side and the engine's counters are fetched
	// over the wire (OpStats) and merged into Result.Metrics. Fields
	// that configure the in-process engine (Faults, WAL, LockTimeout, Bib)
	// are ignored — the server owns its engine configuration.
	Remote string
	// RemoteClient tunes the xtcd client pool a remote run dials (zero value
	// = client defaults, except Conns: a remote run stripes its sessions
	// over 4 pooled connections unless Conns says otherwise): chaos
	// harnesses inject fault-wrapping dialers, faster heartbeats, or tighter
	// redial budgets here. Its Metrics field is overridden with the run's
	// registry.
	RemoteClient client.Options
}

// DefaultMaxRestarts caps restart attempts per logical transaction.
const DefaultMaxRestarts = 10

// DefaultRestartBackoff is the first step of the jittered backoff
// (spin.Backoff) slept before a restart; it doubles per restart up to
// DefaultRestartMaxBackoff.
const DefaultRestartBackoff = 2 * time.Millisecond

// DefaultRestartMaxBackoff caps the restart backoff doubling.
const DefaultRestartMaxBackoff = 100 * time.Millisecond

// TypeStats aggregates outcomes for one transaction type — the paper's
// per-type metrics (committed, aborted, min/max/avg duration) plus the
// restart accounting of the recovery layer.
type TypeStats struct {
	Committed int
	Aborted   int
	// Restarts counts abort-and-retry cycles: every deadlock or timeout
	// abort that was given another attempt.
	Restarts int
	// RestartWait is the total backoff slept before restarts.
	RestartWait time.Duration
	// Dropped counts logical transactions abandoned after MaxRestarts
	// consecutive aborts.
	Dropped  int
	TotalDur time.Duration
	// MinDur is the shortest committed duration, -1 while no transaction
	// of the type has committed (0 is a legitimate duration on coarse
	// clocks, so it cannot double as the "unset" sentinel).
	MinDur time.Duration
	MaxDur time.Duration
}

// NewTypeStats returns an empty TypeStats with MinDur at its -1 "unset"
// sentinel, which record and add keep.
func NewTypeStats() *TypeStats {
	return &TypeStats{MinDur: -1}
}

// AvgDur returns the mean duration of committed transactions.
func (s *TypeStats) AvgDur() time.Duration {
	if s.Committed == 0 {
		return 0
	}
	return s.TotalDur / time.Duration(s.Committed)
}

func (s *TypeStats) record(d time.Duration) {
	s.Committed++
	s.TotalDur += d
	if s.MinDur < 0 || d < s.MinDur {
		s.MinDur = d
	}
	if d > s.MaxDur {
		s.MaxDur = d
	}
}

// add folds o into s: counts and durations sum, the extremes keep the
// shorter minimum and the longer maximum, and an unset MinDur never wins.
func (s *TypeStats) add(o *TypeStats) {
	s.Committed += o.Committed
	s.Aborted += o.Aborted
	s.Restarts += o.Restarts
	s.RestartWait += o.RestartWait
	s.Dropped += o.Dropped
	s.TotalDur += o.TotalDur
	if o.MinDur >= 0 && (s.MinDur < 0 || o.MinDur < s.MinDur) {
		s.MinDur = o.MinDur
	}
	s.MaxDur = max(s.MaxDur, o.MaxDur)
}

// Result is the outcome of one TaMix run.
type Result struct {
	// Protocol, Isolation, and Depth echo the configuration.
	Protocol  string
	Isolation tx.Level
	Depth     int
	// Elapsed is the measured wall-clock interval.
	Elapsed time.Duration
	// TypeStats totals PerType across the transaction types.
	TypeStats
	// PerType holds the per-transaction-type statistics.
	PerType map[TxType]*TypeStats
	// Metrics is the end-of-run snapshot of the run's registry, and the only
	// place a statistic an engine layer counts is found: lock.deadlocks,
	// lock.requests, buffer.retries, fault.injected, tx.committed, … by the
	// name the owning layer registered, plus latency distributions for lock
	// waits, buffer fixes, WAL forces, commits. Captured after the
	// measurement interval but before the verification pass, so audit
	// traffic does not pollute the distributions. A remote run carries its
	// client.* instruments here and the server engine's counters (no
	// distributions) as the difference of two OpStats answers.
	Metrics *metrics.Snapshot
}

// Throughput returns committed transactions, normalized to the paper's
// 5-minute interval so numbers are comparable across scaled-down runs.
func (r *Result) Throughput() float64 { return r.per5Min(r.Committed) }

// TypeThroughput is Throughput for the transactions of one type.
func (r *Result) TypeThroughput(typ TxType) float64 { return r.per5Min(r.PerType[typ].Committed) }

func (r *Result) per5Min(committed int) float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(committed) * (5 * time.Minute).Seconds() / r.Elapsed.Seconds()
}

// Merge folds o, another run of the same configuration, into r: elapsed
// times and statistics add up, total and per type, and so do the metrics.
func (r *Result) Merge(o *Result) {
	r.Elapsed += o.Elapsed
	r.add(&o.TypeStats)
	for typ, st := range o.PerType {
		r.PerType[typ].add(st)
	}
	r.Metrics.Merge(o.Metrics)
}

// sleepCtx sleeps d unless ctx is canceled first; it reports whether the
// full sleep elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// Run executes one TaMix benchmark against an in-process engine (it
// generates the bib document) or, with Config.Remote set, an xtcd server: it
// starts Clients×Mix transaction slots, keeps each slot running transactions
// of its type until Duration elapses, and gathers the metrics.
//
// Failure semantics: transactions aborted as deadlock victims or by lock
// timeouts are restarted with randomized exponential backoff up to
// MaxRestarts. Any other engine error cancels the run via context — no
// worker panics — and Run returns the first such error, classified
// (transient/permanent/unclassified) in its message. A successful run ends
// with the engine's residue audit (node.Manager.Audit, run server-side for
// a remote engine): the document must verify, the lock table must be empty,
// and a snapshot engine must hold no snapshot or stale page version.
func Run(cfg Config) (*Result, error) {
	p, err := protocol.Parse(cfg.Protocol)
	if err != nil {
		return nil, err
	}
	reg := metrics.NewRegistry()
	res := newResult(cfg, p)
	if cfg.Remote != "" {
		return runRemote(cfg, p, res, reg)
	}
	eng, cat, err := newLocalEngine(cfg, reg)
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	return runLocal(cfg, res, reg, eng, cat)
}

// newLocalEngine generates the bib document in memory (behind cfg.Faults, if
// set) and wraps the engine a local run drives around it;
// reg receives every layer's instruments. With cfg.WAL every commit forces an
// in-memory log.
func newLocalEngine(cfg Config, reg *metrics.Registry) (*core.Engine, *Catalog, error) {
	cfg.Bib.Metrics = reg
	doc, cat, err := GenerateBib(memBackend(cfg.Faults), cfg.Bib)
	if err != nil {
		return nil, nil, err
	}
	var segs wal.SegmentStore
	if cfg.WAL {
		segs = wal.NewMemSegmentStore()
	}
	if cfg.LockTimeout <= 0 {
		cfg.LockTimeout = 5 * time.Second
	}
	eng, err := core.Wrap(doc, segs, core.Config{
		Protocol:    cfg.Protocol,
		LockDepth:   &cfg.Depth,
		LockTimeout: cfg.LockTimeout,
	})
	return eng, cat, err
}

func newResult(cfg Config, p protocol.Protocol) *Result {
	res := &Result{
		Protocol:  p.Name(),
		Isolation: cfg.Isolation,
		Depth:     cfg.Depth,
		TypeStats: *NewTypeStats(),
		PerType:   make(map[TxType]*TypeStats),
	}
	for _, t := range TxTypes {
		res.PerType[t] = NewTypeStats()
	}
	return res
}

// memBackend returns an empty in-memory page backend that consults plan, if
// set. The caller arms the plan once generation is done.
func memBackend(plan *fault.Plan) pagestore.Backend {
	if plan == nil {
		return pagestore.NewMemBackend()
	}
	return &pagestore.FaultBackend{Backend: pagestore.NewMemBackend(), Plan: plan}
}

// runLocal points the slot driver at an in-process engine, arming the fault
// plan (if any) for the measurement interval only: generation ran, and the
// audit and teardown run, fault-free.
func runLocal(cfg Config, res *Result, reg *metrics.Registry, eng *core.Engine, cat *Catalog) (*Result, error) {
	mgr := eng.Manager()
	cfg.Faults.Arm()
	defer cfg.Faults.Disarm()
	engine := func(iso tx.Level) (Engine, func(), error) {
		return &localEngine{m: mgr, iso: iso}, func() {}, nil
	}
	finish := func() error {
		cfg.Faults.Disarm()
		// Every run doubles as an integrity and residue check: a protocol
		// that let an interleaving corrupt the document, or a release path
		// that was skipped, must not produce a result.
		return mgr.Audit()
	}
	return drive(cfg, mgr.Protocol(), res, reg, cat, engine, finish)
}

// drive is the slot driver, the one place a run's shape lives. It is
// parameterised only by what differs between an in-process and a remote
// run: engine makes the engine one slot runs against, at the slot's
// isolation level (plus its release), and finish — called once
// every slot has stopped cleanly and res.Metrics holds reg's snapshot —
// audits the engine.
func drive(cfg Config, p protocol.Protocol, res *Result, reg *metrics.Registry, cat *Catalog,
	engine func(tx.Level) (Engine, func(), error), finish func() error) (*Result, error) {
	maxRestarts := cfg.MaxRestarts
	if maxRestarts == 0 {
		maxRestarts = DefaultMaxRestarts
	} else if maxRestarts < 0 {
		maxRestarts = 0
	}

	// Graceful degradation: the first engine error cancels every worker
	// through ctx and becomes Run's return value. Workers never panic.
	ctx, fail := context.WithCancelCause(context.Background())
	defer fail(nil)

	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(cfg.Duration)

	slot := 0
	for client := 0; client < cfg.Clients; client++ {
		for _, txType := range TxTypes {
			for i := 0; i < cfg.Mix[txType]; i++ {
				slot++
				wg.Add(1)
				go func(txType TxType, seed int64) {
					defer wg.Done()
					// The snapshot contestant runs its pure readers lock-free
					// on frozen views; an engine's isolation level is fixed, so
					// those slots get engines at tx.LevelSnapshot.
					iso := cfg.Isolation
					if protocol.UsesSnapshotReads(p) && txType.ReadOnly() {
						iso = tx.LevelSnapshot
					}
					eng, release, err := engine(iso)
					if err != nil {
						fail(fmt.Errorf("tamix: %s: %w", txType, err))
						return
					}
					defer release()
					rng := rand.New(rand.NewSource(seed))
					r := newRunner(eng, cat, rng)
					r.waitOp, r.updateLocks = cfg.WaitAfterOperation, cfg.UseUpdateLocks
					if cfg.MaxStartDelay > 0 {
						if !sleepCtx(ctx, time.Duration(rng.Int63n(int64(cfg.MaxStartDelay)))) {
							return
						}
					}
					for time.Now().Before(deadline) && ctx.Err() == nil {
						if !runOnce(ctx, r, res, &mu, txType, deadline, maxRestarts, fail) {
							return
						}
						if !sleepCtx(ctx, cfg.WaitAfterCommit) {
							return
						}
					}
				}(txType, cfg.Seed+int64(slot)*7919)
			}
		}
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	res.Metrics = reg.Snapshot()
	if runErr := context.Cause(ctx); runErr != nil {
		return nil, fmt.Errorf("tamix: run failed under %s (%s fault): %w",
			p.Name(), pagestore.Classify(runErr), runErr)
	}
	if err := finish(); err != nil {
		return nil, fmt.Errorf("tamix: audit after run under %s: %w", p.Name(), err)
	}
	for _, t := range TxTypes {
		res.add(res.PerType[t])
	}
	return res, nil
}

// runOnce drives one logical transaction to commit, restarting it with
// randomized exponential backoff after deadlock/timeout aborts. It reports
// false when the worker should exit (context canceled or engine failure).
func runOnce(ctx context.Context, r *runner, res *Result, mu *sync.Mutex, txType TxType,
	deadline time.Time, maxRestarts int, fail func(error)) bool {

	restarts := 0
	backoff := DefaultRestartBackoff
	for {
		txn, err := r.eng.Begin()
		if err != nil {
			fail(fmt.Errorf("tamix: %s: begin: %w", txType, err))
			return false
		}
		t0 := time.Now()
		err = r.run(txType, txn)
		if err == nil {
			err = txn.Commit()
			if err == nil {
				mu.Lock()
				res.PerType[txType].record(time.Since(t0))
				mu.Unlock()
				return true
			}
			if !node.IsAbortWorthy(err) {
				fail(fmt.Errorf("tamix: %s: commit: %w", txType, err))
				return false
			}
			// An abort-worthy commit failure (connection lost to a server
			// bounce, request canceled by a draining server) falls through to
			// the restart path: count it as an abort and rerun. The resume's
			// fate report resolves interrupted commits that actually landed
			// (those return nil above); only a commit whose fate was
			// unknowable — the server process itself died — still leaves the
			// committed count a lower bound across restarts.
		}
		if aerr := txn.Abort(); aerr != nil && !errors.Is(aerr, tx.ErrTxnDone) {
			// A failed rollback is unrecoverable: the document may hold
			// partial effects of an aborted transaction.
			fail(fmt.Errorf("tamix: %s: abort: %w", txType, aerr))
			return false
		}
		if !node.IsAbortWorthy(err) {
			// Unexpected failures (including permanent storage faults)
			// cancel the run instead of panicking the process.
			fail(fmt.Errorf("tamix: %s: %w", txType, err))
			return false
		}
		mu.Lock()
		res.PerType[txType].Aborted++
		mu.Unlock()
		if restarts >= maxRestarts {
			mu.Lock()
			res.PerType[txType].Dropped++
			mu.Unlock()
			return true
		}
		if !time.Now().Before(deadline) {
			// Out of measurement time: do not restart past the interval.
			return true
		}
		restarts++
		// Jittered exponential backoff, so colliding victims desynchronize.
		d, next := spin.Backoff(backoff, DefaultRestartMaxBackoff, r.rng.Int63n)
		backoff = next
		mu.Lock()
		res.PerType[txType].Restarts++
		res.PerType[txType].RestartWait += d
		mu.Unlock()
		if !sleepCtx(ctx, d) {
			return false
		}
	}
}
