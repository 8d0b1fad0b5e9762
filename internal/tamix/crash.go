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

	"repro/internal/fault"
	"repro/internal/pagestore"
	"repro/internal/splid"
	"repro/internal/storage"
	"repro/internal/tx"
	"repro/internal/wal"
)

// CrashConfig describes one crash burst. A burst runs under core's default
// protocol (taDOM3+), waits at most crashLockTimeout for a lock, writes its
// log in crashSegmentSize segments, and keeps the log's default segment
// retention (wal.DefaultRetain).
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

// crashSegmentSize is a burst's WAL segment size, small enough that bursts
// rotate segments and checkpoints have segments to remove.
const crashSegmentSize = 8 << 10

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
	// Pending holds, per transaction ID, the marker states of every
	// transaction in flight at the crash. Only those whose commit record
	// survived are owed (Expected).
	Pending map[uint64]map[string]MarkerState

	// CommittedTxns and AbortedTxns count definite outcomes; Pending holds
	// the others.
	CommittedTxns, AbortedTxns int
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

// crashWorker runs one worker's marker transactions, on a runner over a
// localEngine at tx.LevelRepeatable.
type crashWorker struct {
	*runner
	id  int
	log *wal.Log
	doc *storage.Document
	cfg *CrashConfig

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

func (w *crashWorker) exec(t Txn, p crashPlan) error {
	if p.kind == 0 {
		el, err := w.m.AppendElement(t, splid.Root(), "crashmark")
		if err != nil {
			return err
		}
		if err := w.m.SetAttribute(t, el.ID, "id", []byte(p.marker)); err != nil {
			return err
		}
		return w.m.SetAttribute(t, el.ID, "v", []byte(p.next.Value))
	}
	n, err := w.m.JumpToID(t, p.marker)
	if err != nil {
		return err
	}
	switch p.kind {
	case 1:
		return w.m.SetAttribute(t, n.ID, "v", []byte(p.next.Value))
	case 2:
		return w.m.Rename(t, n.ID, p.next.Name)
	default:
		return w.m.DeleteSubtree(t, n.ID)
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

// burst drives the worker's marker transactions until the crash or the op
// budget stops it, and returns any failure that is neither an abort-worthy
// one nor the crash.
func (w *crashWorker) burst() error {
	for i := 0; i < w.cfg.OpsPerWorker; i++ {
		// Check for the crash before the trickle below forces the log: a
		// commit acknowledged without being durable then dies with it.
		if w.over() {
			return nil
		}
		// Write the dirty pages back, as the pool's background flusher would:
		// write-backs give page-write faults something to strike and move
		// checkpoints' redo LSN forward, so GC has segments to remove.
		w.doc.Store().FlushDirty()
		if w.cfg.CheckpointEvery > 0 && i > 0 && i%w.cfg.CheckpointEvery == 0 {
			// Fuzzy checkpoint mid-burst; other workers keep mutating. A
			// scheduled checkpoint crash surfaces here as ErrCrashed.
			if _, err := w.doc.Checkpoint(); err != nil {
				return w.stop(err)
			}
		}
		p := w.plan()
		var id uint64
		switch err := attempt(w.eng, func(t Txn) error {
			id = t.ID()
			w.pending[id] = map[string]MarkerState{p.marker: p.next}
			return w.exec(t, p)
		}); {
		case err == nil:
			delete(w.pending, id)
			w.noteCommitted(p)
		case retryable(err):
			// Deadlock victim or lock timeout, rolled back: an abort, not
			// restarted.
			delete(w.pending, id)
			w.aborts++
		default:
			// An interrupted transaction stays pending: its commit record
			// may or may not have reached the durable log.
			return w.stop(err)
		}
	}
	return nil
}

// stop ends the burst at err: the crash is the hard stop, and anything else
// the worker's failure.
func (w *crashWorker) stop(err error) error {
	if !crashed(err) {
		return err
	}
	w.log.CrashNow()
	return nil
}

// CrashBurst runs marker transactions until the configured crash (or the
// op budget) stops the burst, then power-fails the log's segment store and
// returns the residue. The document's buffer pool is deliberately
// abandoned un-flushed. A worker failure that is neither an abort-worthy one
// nor the crash ends the burst, and CrashBurst returns it.
func CrashBurst(cfg CrashConfig) (*CrashOutcome, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 3
	}
	if cfg.OpsPerWorker <= 0 {
		cfg.OpsPerWorker = 40
	}
	if cfg.Bib.Persons == 0 {
		cfg.Bib = Scaled(0.02)
		cfg.Bib.BufferFrames = 48
	}
	cfg.Bib.Seed = cfg.Seed

	segs := wal.NewMemSegmentStore()
	eng, _, err := newLocalEngine(Config{Depth: -1, LockTimeout: crashLockTimeout, Faults: cfg.Faults, Bib: cfg.Bib},
		nil, segs, wal.Config{SegmentSize: crashSegmentSize, Faults: cfg.Faults})
	if err != nil {
		return nil, err
	}
	// No eng.Close(), which would flush: the buffer pool and the log die with
	// the "process". Only the deadlock detector is stopped.
	mgr := eng.Manager()
	doc := mgr.Document()
	log := doc.WAL()
	defer mgr.Close()
	cfg.Faults.Arm()

	workers := make([]*crashWorker, cfg.Workers)
	errs := make([]error, cfg.Workers)
	var wg sync.WaitGroup
	for i := range workers {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(i)*7919))
		workers[i] = &crashWorker{
			runner:    newRunner(&localEngine{m: mgr, iso: tx.LevelRepeatable}, nil, rng),
			id:        i,
			log:       log,
			doc:       doc,
			cfg:       &cfg,
			committed: make(map[string]MarkerState),
			pending:   make(map[uint64]map[string]MarkerState),
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if errs[i] = workers[i].burst(); errs[i] != nil {
				log.CrashNow() // stops the other workers
			}
		}(i)
	}
	wg.Wait()

	// Hard stop: even a burst that exhausted its op budget ends in a
	// simulated power failure, not a clean shutdown.
	log.CrashNow()
	cfg.Faults.Disarm()
	if err := errors.Join(errs...); err != nil {
		return nil, fmt.Errorf("tamix: crash burst: %w", err)
	}
	out := &CrashOutcome{
		Backend:   doc.Store().Backend(),
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
