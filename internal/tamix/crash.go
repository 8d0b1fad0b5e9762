package tamix

// Crash-burst harness for the WAL/recovery crash matrix: a short, violent
// TaMix-style burst of marker transactions that ends in a hard stop (the
// first scheduled fault of its plan: the log crashes at an append or inside
// a checkpoint, or a torn page write poisons a write-back), leaving behind
// exactly what a power failure would — a page backend with an arbitrary
// subset of write-backs applied and a log with a possibly torn tail.
//
// Every transaction manipulates one uniquely-identified marker element, and
// the harness records what each worker KNOWS: states whose commit returned
// success (durability is owed unconditionally) and in-flight states whose
// commit outcome the crash swallowed (owed if and only if recovery finds
// the commit record). AuditRecovered then checks the recovered document
// against that knowledge in both directions — expected markers present
// with the right name and value, and no marker present that isn't
// accounted for (no resurrected rollbacks, no lost commits).

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/node"
	"repro/internal/pagestore"
	"repro/internal/splid"
	"repro/internal/storage"
	"repro/internal/tx"
	"repro/internal/wal"
)

// CrashConfig describes one crash burst. A burst runs under core's default
// protocol (taDOM3+), waits at most crashLockTimeout for a lock, and keeps
// the log's default segment retention (wal.DefaultRetain).
type CrashConfig struct {
	// Workers is the number of concurrent marker writers (default 3).
	Workers int
	// OpsPerWorker bounds marker transactions per worker (default 40); the
	// burst usually ends earlier, at the crash.
	OpsPerWorker int
	// Faults is the burst's adversary, consulted by the page backend and the
	// log (nil: the burst runs to its op budget). CrashBurst arms it once the
	// document is generated and disarms it at the hard stop. The first of
	// its scheduled faults to fire is the crash: a log fault crashes the log
	// itself, and after a page fault the next worker to look hard-stops it.
	Faults *fault.Plan
	// SegmentSize is the WAL segment size (default 32 KiB, small enough
	// that bursts rotate segments).
	SegmentSize int
	// CheckpointEvery, when > 0, makes each worker take a fuzzy checkpoint
	// every Nth operation, so bursts crash with checkpoints (and possibly
	// truncated segments) on record.
	CheckpointEvery int
	// Bib sizes the base document (default Scaled(0.02) in a 48-frame
	// buffer pool).
	Bib BibConfig
	// Seed drives all randomness.
	Seed int64
}

// crashLockTimeout bounds a burst's lock waits.
const crashLockTimeout = 25 * time.Millisecond

// MarkerState is the expected post-recovery state of one marker element.
type MarkerState struct {
	// Name is the element name (markers toggle crashmark <-> cmark).
	Name string
	// Value is the "v" attribute's character data.
	Value string
	// Deleted markers must be absent.
	Deleted bool
}

// CrashOutcome is the persistent residue of a burst plus the workers'
// knowledge, everything needed to recover and audit.
type CrashOutcome struct {
	// Backend is the page store as the crash left it (its fault plan
	// disarmed).
	Backend pagestore.Backend
	// Segments is the log's segment store, already power-failed (unsynced
	// bytes dropped).
	Segments *wal.MemSegmentStore
	// Opts reopens the document.
	Opts storage.Options

	// Committed holds the latest marker states whose commit returned
	// success.
	Committed map[string]MarkerState
	// Pending holds, per in-flight transaction ID, the marker states that
	// transaction was committing when the crash swallowed the outcome.
	Pending map[uint64]map[string]MarkerState

	// CommittedTxns and AbortedTxns count definite outcomes; PendingTxns
	// counts crash-swallowed ones.
	CommittedTxns, AbortedTxns, PendingTxns int
	// LogStats is the log's state at the hard stop.
	LogStats wal.Stats
}

// Expected folds the recovery report's commit verdicts over the pending
// transactions: a pending state is owed exactly when its commit record
// survived.
func (o *CrashOutcome) Expected(rep *storage.RecoveryReport) map[string]MarkerState {
	exp := make(map[string]MarkerState, len(o.Committed))
	for id, st := range o.Committed {
		exp[id] = st
	}
	for txn, states := range o.Pending {
		if !rep.Committed[txn] {
			continue
		}
		for id, st := range states {
			exp[id] = st
		}
	}
	return exp
}

type crashPlan struct {
	kind   int // 0 create, 1 overwrite, 2 rename, 3 delete
	marker string
	next   MarkerState
}

type crashWorker struct {
	id   int
	rng  *rand.Rand
	mgr  *node.Manager
	log  *wal.Log
	doc  *storage.Document
	cfg  *CrashConfig
	root splid.ID

	committed map[string]MarkerState
	live      []string // own non-deleted committed markers
	pending   map[uint64]map[string]MarkerState
	commits   int
	aborts    int
	seq       int
}

func (w *crashWorker) plan() crashPlan {
	w.seq++
	if len(w.live) == 0 || w.rng.Float64() < 0.4 {
		id := fmt.Sprintf("cm-%d-%d", w.id, w.seq)
		return crashPlan{kind: 0, marker: id,
			next: MarkerState{Name: "crashmark", Value: fmt.Sprintf("v%d", w.seq)}}
	}
	m := w.live[w.rng.Intn(len(w.live))]
	st := w.committed[m]
	switch r := w.rng.Float64(); {
	case r < 0.5:
		st.Value = fmt.Sprintf("v%d", w.seq)
		return crashPlan{kind: 1, marker: m, next: st}
	case r < 0.75:
		if st.Name == "crashmark" {
			st.Name = "cmark"
		} else {
			st.Name = "crashmark"
		}
		return crashPlan{kind: 2, marker: m, next: st}
	default:
		return crashPlan{kind: 3, marker: m, next: MarkerState{Deleted: true}}
	}
}

func (w *crashWorker) exec(t *tx.Txn, p crashPlan) error {
	if p.kind == 0 {
		el, err := w.mgr.AppendElement(t, w.root, "crashmark")
		if err != nil {
			return err
		}
		if err := w.mgr.SetAttribute(t, el.ID, "id", []byte(p.marker)); err != nil {
			return err
		}
		return w.mgr.SetAttribute(t, el.ID, "v", []byte(p.next.Value))
	}
	n, err := w.mgr.JumpToID(t, p.marker)
	if err != nil {
		return err
	}
	switch p.kind {
	case 1:
		return w.mgr.SetAttribute(t, n.ID, "v", []byte(p.next.Value))
	case 2:
		return w.mgr.Rename(t, n.ID, p.next.Name)
	default:
		return w.mgr.DeleteSubtree(t, n.ID)
	}
}

// noteCommitted updates the worker's knowledge after a successful commit.
func (w *crashWorker) noteCommitted(p crashPlan) {
	w.commits++
	w.committed[p.marker] = p.next
	if p.next.Deleted {
		for i, m := range w.live {
			if m == p.marker {
				w.live = append(w.live[:i], w.live[i+1:]...)
				break
			}
		}
	} else if p.kind == 0 {
		w.live = append(w.live, p.marker)
	}
}

// crashed reports whether err means the log (or a poisoned write-back)
// ended the burst.
func crashed(err error) bool {
	return errors.Is(err, wal.ErrCrashed) || errors.Is(err, fault.ErrInjected)
}

// over reports whether the burst has reached its crash, hard-stopping the
// log if a scheduled fault fired where no worker saw it fail (a write-back
// of the trickle below).
func (w *crashWorker) over() bool {
	if p := w.cfg.Faults; p != nil {
		for _, f := range p.Schedule {
			if p.Seen(f.Site) >= f.N {
				w.log.CrashNow()
			}
		}
	}
	return w.log.Crashed()
}

func (w *crashWorker) run() {
	for i := 0; i < w.cfg.OpsPerWorker; i++ {
		// Check for the crash before the trickle below forces the log: a
		// commit acknowledged without being durable then dies with it.
		if w.over() {
			return
		}
		// Write the dirty pages back, as the pool's background flusher would:
		// write-backs give page-write faults something to strike and move
		// checkpoints' redo LSN forward, so GC has segments to remove.
		w.doc.Store().FlushDirty()
		if w.cfg.CheckpointEvery > 0 && i > 0 && i%w.cfg.CheckpointEvery == 0 {
			// Fuzzy checkpoint mid-burst; other workers keep mutating. A
			// scheduled checkpoint crash surfaces here as ErrCrashed.
			if _, err := w.doc.Checkpoint(); err != nil && crashed(err) {
				return
			}
		}
		p := w.plan()
		t := w.mgr.Begin(tx.LevelRepeatable)
		w.pending[t.ID()] = map[string]MarkerState{p.marker: p.next}
		err := w.exec(t, p)
		if err == nil {
			if err = t.Commit(); err == nil {
				delete(w.pending, t.ID())
				w.noteCommitted(p)
				continue
			}
			if crashed(err) {
				// Outcome unknown: the commit record may or may not have
				// reached the durable log. Leave it pending and stop.
				w.log.CrashNow()
				_ = t.Abort()
				return
			}
		}
		// Operation failed (lock timeout, deadlock victim, crash): roll
		// back. Runtime rollback — or recovery's, if the log is gone —
		// restores the prior committed state either way.
		_ = t.Abort()
		delete(w.pending, t.ID())
		w.aborts++
		if crashed(err) {
			w.log.CrashNow()
			return
		}
	}
}

// CrashBurst runs marker transactions until the configured crash (or the
// op budget) stops the burst, then power-fails the log's segment store and
// returns the residue. The document's buffer pool is deliberately
// abandoned un-flushed.
func CrashBurst(cfg CrashConfig) (*CrashOutcome, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 3
	}
	if cfg.OpsPerWorker <= 0 {
		cfg.OpsPerWorker = 40
	}
	if cfg.SegmentSize <= 0 {
		cfg.SegmentSize = 32 << 10
	}
	if cfg.Bib.Persons == 0 {
		cfg.Bib = Scaled(0.02)
		cfg.Bib.BufferFrames = 48
	}
	cfg.Bib.Seed = cfg.Seed

	backend := memBackend(cfg.Faults)
	doc, _, err := GenerateBib(backend, cfg.Bib)
	if err != nil {
		return nil, err
	}
	segs := wal.NewMemSegmentStore()
	depth := -1
	eng, err := core.Wrap(doc, segs, core.Config{
		LockDepth:   &depth,
		LockTimeout: crashLockTimeout,
		Log:         wal.Config{SegmentSize: cfg.SegmentSize, Faults: cfg.Faults},
	})
	if err != nil {
		return nil, err
	}
	// No eng.Close(), which would flush: the buffer pool and the log die with
	// the "process". Only the deadlock detector is stopped.
	mgr, log := eng.Manager(), doc.WAL()
	defer mgr.Close()
	cfg.Faults.Arm()

	workers := make([]*crashWorker, cfg.Workers)
	var wg sync.WaitGroup
	for i := range workers {
		workers[i] = &crashWorker{
			id:        i,
			rng:       rand.New(rand.NewSource(cfg.Seed + int64(i)*7919)),
			mgr:       mgr,
			log:       log,
			doc:       doc,
			cfg:       &cfg,
			root:      doc.Root(),
			committed: make(map[string]MarkerState),
			pending:   make(map[uint64]map[string]MarkerState),
		}
		wg.Add(1)
		go func(w *crashWorker) {
			defer wg.Done()
			w.run()
		}(workers[i])
	}
	wg.Wait()

	// Hard stop: even a burst that exhausted its op budget ends in a
	// simulated power failure, not a clean shutdown.
	log.CrashNow()
	cfg.Faults.Disarm()
	out := &CrashOutcome{
		Backend:   backend,
		Segments:  segs,
		Opts:      storage.Options{Config: pagestore.Config{BufferFrames: cfg.Bib.BufferFrames}},
		Committed: make(map[string]MarkerState),
		Pending:   make(map[uint64]map[string]MarkerState),
		LogStats:  log.Stats(),
	}
	for _, w := range workers {
		for id, st := range w.committed {
			out.Committed[id] = st
		}
		for txn, states := range w.pending {
			out.Pending[txn] = states
		}
		out.CommittedTxns += w.commits
		out.AbortedTxns += w.aborts
	}
	out.PendingTxns = len(out.Pending)
	segs.Crash()
	return out, nil
}

// AuditRecovered checks a recovered document against the folded
// expectations: every owed marker present with the right name and value,
// every deleted or rolled-back marker absent, no stray markers, and the
// document's physical invariants intact.
func AuditRecovered(d *storage.Document, exp map[string]MarkerState) error {
	var errs []error
	for id, st := range exp {
		el, err := d.ElementByID([]byte(id))
		if st.Deleted {
			if err == nil {
				errs = append(errs, fmt.Errorf("deleted marker %s resurrected", id))
			} else if !errors.Is(err, storage.ErrNodeNotFound) {
				errs = append(errs, err)
			}
			continue
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("marker %s: %w", id, err))
			continue
		}
		n, err := d.GetNode(el)
		if err != nil {
			errs = append(errs, fmt.Errorf("marker %s: %w", id, err))
			continue
		}
		if name := d.Vocabulary().Name(n.Name); name != st.Name {
			errs = append(errs, fmt.Errorf("marker %s named %q, want %q", id, name, st.Name))
		}
		a, err := d.AttributeByName(el, "v")
		if err != nil || a.ID.IsNull() {
			errs = append(errs, fmt.Errorf("marker %s lost its value attribute (%v)", id, err))
			continue
		}
		v, err := d.Value(a.ID)
		if err != nil {
			errs = append(errs, fmt.Errorf("marker %s value: %w", id, err))
			continue
		}
		if string(v) != st.Value {
			errs = append(errs, fmt.Errorf("marker %s = %q, want %q", id, v, st.Value))
		}
	}
	// Reverse direction: every marker element in the document must be owed.
	for _, name := range []string{"crashmark", "cmark"} {
		var scanErr error
		err := d.ElementsByName(name, func(el splid.ID) bool {
			a, err := d.AttributeByName(el, "id")
			if err != nil || a.ID.IsNull() {
				scanErr = fmt.Errorf("%s element %v has no id attribute (%v)", name, el, err)
				return false
			}
			v, err := d.Value(a.ID)
			if err != nil {
				scanErr = err
				return false
			}
			st, ok := exp[string(v)]
			if !ok || st.Deleted {
				scanErr = fmt.Errorf("stray marker %q (%s at %v): not owed to any committed transaction", v, name, el)
				return false
			}
			return true
		})
		if err != nil {
			errs = append(errs, err)
		}
		if scanErr != nil {
			errs = append(errs, scanErr)
		}
	}
	if err := d.Verify(); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}
