package lock

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

// Model-based equivalence test: the striped manager and the single-mutex
// oracle (oracle_test.go) execute the same randomized schedule of lock
// operations, issued to per-transaction worker goroutines in both systems.
// Operations are serialized — the driver issues the next one only after the
// previous one has either completed in both systems or blocked in both — so
// the interleaving is fully controlled and every grant, block, deadlock
// victim, and statistics counter must come out identical. Every operation
// is one request, so none has work left after the request it blocks on.

type eqOp struct {
	err  error
	done chan struct{}
}

func (op *eqOp) finished() bool {
	select {
	case <-op.done:
		return true
	default:
		return false
	}
}

type eqTask struct {
	run func() error
	op  *eqOp
}

type eqHarness struct {
	t   *testing.T
	rng *rand.Rand

	m  *Manager
	om *oracleManager

	txs  []*Tx
	otxs []*oracleTx

	sOps []chan eqTask // striped-side worker inboxes
	oOps []chan eqTask // oracle-side worker inboxes

	sPend []*eqOp
	oPend []*eqOp

	released []bool
	doomed   []bool

	resources []Resource

	dlMu   sync.Mutex
	sInfos []DeadlockInfo
	oInfos []DeadlockInfo
}

func newEqHarness(t *testing.T, seed int64, stripes, numTx, numRes int) *eqHarness {
	h := &eqHarness{t: t, rng: rand.New(rand.NewSource(seed))}
	// Timeout far beyond the stabilization deadline: a divergence must show
	// up as a state mismatch, never be papered over by a lock timeout.
	opts := Options{Timeout: time.Minute, stripes: stripes}
	sOpts, oOpts := opts, opts
	sOpts.onDeadlock = func(info DeadlockInfo) {
		h.dlMu.Lock()
		h.sInfos = append(h.sInfos, info)
		h.dlMu.Unlock()
	}
	oOpts.onDeadlock = func(info DeadlockInfo) {
		h.dlMu.Lock()
		h.oInfos = append(h.oInfos, info)
		h.dlMu.Unlock()
	}
	h.m = NewManager(testTable(), sOpts)
	t.Cleanup(h.m.Close)
	h.om = newOracleManager(testTable(), oOpts)

	for i := 0; i < numTx; i++ {
		// Same Begin order in both systems, so tx i has the same TxID in
		// both — victim selection (youngest = largest id) then agrees.
		h.txs = append(h.txs, h.m.Begin())
		h.otxs = append(h.otxs, h.om.Begin())
		sCh := make(chan eqTask, 1)
		oCh := make(chan eqTask, 1)
		h.sOps = append(h.sOps, sCh)
		h.oOps = append(h.oOps, oCh)
		for _, ch := range []chan eqTask{sCh, oCh} {
			go func(ch chan eqTask) {
				for task := range ch {
					task.op.err = task.run()
					close(task.op.done)
				}
			}(ch)
		}
	}
	h.sPend = make([]*eqOp, numTx)
	h.oPend = make([]*eqOp, numTx)
	h.released = make([]bool, numTx)
	h.doomed = make([]bool, numTx)
	for i := 0; i < numRes; i++ {
		h.resources = append(h.resources, Resource(fmt.Sprintf("res-%d", i)))
	}
	t.Cleanup(func() {
		for i := range h.sOps {
			close(h.sOps[i])
			close(h.oOps[i])
		}
	})
	return h
}

func (h *eqHarness) available(i int) bool { return h.sPend[i] == nil && h.oPend[i] == nil }

func (h *eqHarness) issue(i int, sRun, oRun func() error) {
	h.t.Helper()
	if !h.available(i) {
		h.t.Fatalf("issue to tx %d with an operation still pending", i)
	}
	so := &eqOp{done: make(chan struct{})}
	oo := &eqOp{done: make(chan struct{})}
	h.sPend[i] = so
	h.oPend[i] = oo
	h.sOps[i] <- eqTask{sRun, so}
	h.oOps[i] <- eqTask{oRun, oo}
}

func errsEqual(a, b error) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return a == nil || a.Error() == b.Error()
}

func normalizeDL(d DeadlockInfo) string {
	ms := append([]TxID(nil), d.Members...)
	sort.Slice(ms, func(a, b int) bool { return ms[a] < ms[b] })
	return fmt.Sprintf("victim=%d conversion=%t members=%v", d.Victim, d.Conversion, ms)
}

// stabilize polls until every pending operation has either completed in both
// systems (with identical errors) or blocked in both, and the lock tables,
// statistics (CacheHits aside — the oracle has no cache), and deadlock
// reports agree. The asynchronous striped deadlock detector is the reason
// this is a polling loop rather than a single check: the oracle resolves
// cycles inline, the striped manager a moment later on its detector
// goroutine.
func (h *eqHarness) stabilize() {
	h.t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		mismatch := ""
		for i := range h.txs {
			sp, op := h.sPend[i], h.oPend[i]
			if sp == nil {
				continue
			}
			sDone, oDone := sp.finished(), op.finished()
			if sDone && oDone {
				if !errsEqual(sp.err, op.err) {
					h.t.Fatalf("tx %d: striped returned %v, oracle returned %v", i, sp.err, op.err)
				}
				if sp.err == ErrDeadlockVictim {
					h.doomed[i] = true
				}
				h.sPend[i], h.oPend[i] = nil, nil
				continue
			}
			if sDone != oDone {
				mismatch = fmt.Sprintf("tx %d: striped done=%t oracle done=%t", i, sDone, oDone)
				break
			}
			if !h.m.Waiting(h.txs[i]) || !h.om.Waiting(h.otxs[i]) {
				mismatch = fmt.Sprintf("tx %d: pending but not blocked in both systems", i)
				break
			}
		}
		if mismatch == "" {
			mismatch = h.compareState()
			if mismatch == "" {
				return
			}
		}
		if time.Now().After(deadline) {
			h.t.Fatalf("systems failed to converge: %s", mismatch)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// compareState checks held modes, statistics, and deadlock reports; it
// returns a description of the first difference, or "" when equal.
func (h *eqHarness) compareState() string {
	for i := range h.txs {
		for _, res := range h.resources {
			sm := h.m.HeldMode(h.txs[i], res)
			om := h.om.HeldMode(h.otxs[i], res)
			if sm != om {
				return fmt.Sprintf("tx %d on %s: striped holds %v, oracle holds %v", i, res, sm, om)
			}
		}
	}
	ss, os := h.m.Stats(), h.om.Stats()
	ss.CacheHits = 0
	if ss != os {
		return fmt.Sprintf("stats: striped %+v, oracle %+v", ss, os)
	}
	h.dlMu.Lock()
	defer h.dlMu.Unlock()
	if len(h.sInfos) != len(h.oInfos) {
		return fmt.Sprintf("deadlock reports: striped %d, oracle %d", len(h.sInfos), len(h.oInfos))
	}
	for k := range h.sInfos {
		if s, o := normalizeDL(h.sInfos[k]), normalizeDL(h.oInfos[k]); s != o {
			return fmt.Sprintf("deadlock report %d: striped %s, oracle %s", k, s, o)
		}
	}
	return ""
}

func (h *eqHarness) issueLock(i int, res Resource, mode Mode, short bool) {
	tx, otx := h.txs[i], h.otxs[i]
	h.issue(i,
		func() error { return h.m.Lock(tx, res, mode, short) },
		func() error { return h.om.Lock(otx, res, mode, short) })
}

func (h *eqHarness) issueReleaseShort(i int) {
	tx, otx := h.txs[i], h.otxs[i]
	h.issue(i,
		func() error { h.m.ReleaseShort(tx); return nil },
		func() error { h.om.ReleaseShort(otx); return nil })
}

func (h *eqHarness) issueReleaseAll(i int) {
	tx, otx := h.txs[i], h.otxs[i]
	h.released[i] = true
	h.issue(i,
		func() error { h.m.ReleaseAll(tx); return nil },
		func() error { h.om.ReleaseAll(otx); return nil })
}

func (h *eqHarness) randMode() Mode {
	modes := []Mode{tIS, tIX, tS, tU, tX}
	return modes[h.rng.Intn(len(modes))]
}

func (h *eqHarness) randRes() Resource {
	return h.resources[h.rng.Intn(len(h.resources))]
}

func runEquivalenceRound(t *testing.T, seed int64, stripes, numTx, numRes, steps int) {
	h := newEqHarness(t, seed, stripes, numTx, numRes)

	for step := 0; step < steps; step++ {
		// Pick a transaction with no pending operation. One always exists:
		// if every transaction were blocked, the wait-for graph would hold a
		// cycle and the detectors would have broken it before stabilize
		// returned.
		var avail []int
		for i := range h.txs {
			if h.available(i) {
				avail = append(avail, i)
			}
		}
		if len(avail) == 0 {
			t.Fatalf("step %d: no transaction available", step)
		}
		i := avail[h.rng.Intn(len(avail))]
		if h.released[i] && h.rng.Float64() > 0.15 {
			// Mostly leave finished transactions alone, but occasionally
			// poke one to confirm ErrTxDone parity.
			for try := 0; try < 8 && h.released[i]; try++ {
				i = avail[h.rng.Intn(len(avail))]
			}
		}

		switch r := h.rng.Float64(); {
		case r < 0.72:
			h.issueLock(i, h.randRes(), h.randMode(), h.rng.Intn(4) == 0)
		case r < 0.82:
			h.issueReleaseShort(i)
		case r < 0.9:
			h.issueReleaseAll(i)
		default:
			// Re-request in a weak mode — the cache-hit path on the striped
			// side, a plain re-grant on the oracle side.
			h.issueLock(i, h.randRes(), tIS, false)
		}
		h.stabilize()
	}

	// Drain: release everything. Blocked transactions become available as
	// the releases unblock them.
	for pass := 0; pass < 8*numTx; pass++ {
		progress := false
		for i := range h.txs {
			if !h.released[i] && h.available(i) {
				h.issueReleaseAll(i)
				progress = true
			}
		}
		h.stabilize()
		done := true
		for i := range h.txs {
			if !h.released[i] || !h.available(i) {
				done = false
			}
		}
		if done {
			break
		}
		if !progress {
			time.Sleep(time.Millisecond)
		}
	}
	for i := range h.txs {
		if !h.released[i] {
			t.Fatalf("tx %d never drained", i)
		}
		for _, res := range h.resources {
			if m := h.m.HeldMode(h.txs[i], res); m != ModeNone {
				t.Fatalf("tx %d still holds %v on %s after drain", i, m, res)
			}
		}
	}
	h.stabilize()

	if s := h.m.Stats(); s.Timeouts != 0 {
		t.Fatalf("striped manager hit %d lock timeouts; schedule should resolve every wait", s.Timeouts)
	}
}

func TestEquivalenceRandomized(t *testing.T) {
	configs := []struct {
		stripes, numTx, numRes, steps int
	}{
		{1, 6, 5, 120},  // degenerate striping: one partition
		{4, 8, 6, 150},  // heavy cross-partition collisions
		{64, 8, 6, 150}, // default layout
	}
	for ci, c := range configs {
		for s := int64(1); s <= 4; s++ {
			seed := int64(ci)*1000 + s
			c := c
			t.Run(fmt.Sprintf("stripes=%d/seed=%d", c.stripes, seed), func(t *testing.T) {
				runEquivalenceRound(t, seed, c.stripes, c.numTx, c.numRes, c.steps)
			})
		}
	}
}
