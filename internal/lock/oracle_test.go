package lock

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// This file carries the ORACLE for the model-based equivalence test in
// equivalence_test.go: a faithful copy of the pre-striping lock manager (one
// global mutex, inline at-block-time deadlock detection). The striped
// manager must be observationally equivalent to it — same grants, same
// blocks, same deadlock victims, same statistics.
//
// The only deliberate change from the seed implementation: successorsLocked
// sorts its result by TxID. The seed iterated a Go map there, so its DFS
// order (and hence which of several simultaneously-closed cycles is found
// first) was nondeterministic run to run; fixing any order is consistent
// with seed semantics, and TxID order matches the striped detector's
// tie-break so both sides resolve multi-cycle situations identically.

type oracleTx struct {
	id  TxID
	mgr *oracleManager

	// All fields below are guarded by mgr.mu.
	held    map[Resource]*oracleEntry
	waiting *oracleRequest
	doomed  bool
	done    bool
}

func (tx *oracleTx) ID() TxID { return tx.id }

type oracleEntry struct {
	tx    *oracleTx
	mode  Mode
	short bool
}

type oracleRequest struct {
	tx         *oracleTx
	res        Resource
	target     Mode
	short      bool
	conversion bool
	result     chan error
}

type oracleHead struct {
	granted map[TxID]*oracleEntry
	queue   []*oracleRequest
}

type oracleManager struct {
	table   ModeTable
	timeout time.Duration
	onDL    func(DeadlockInfo)

	mu     sync.Mutex
	locks  map[Resource]*oracleHead
	nextTx uint64

	requests            atomic.Uint64
	immediateGrants     atomic.Uint64
	waits               atomic.Uint64
	conversions         atomic.Uint64
	deadlocks           atomic.Uint64
	conversionDeadlocks atomic.Uint64
	subtreeDeadlocks    atomic.Uint64
	timeouts            atomic.Uint64
}

func newOracleManager(table ModeTable, opts Options) *oracleManager {
	to := opts.Timeout
	if to <= 0 {
		to = DefaultTimeout
	}
	return &oracleManager{
		table:   table,
		timeout: to,
		onDL:    opts.onDeadlock,
		locks:   make(map[Resource]*oracleHead),
	}
}

func (m *oracleManager) Begin() *oracleTx {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.nextTx++
	return &oracleTx{id: TxID(m.nextTx), mgr: m, held: make(map[Resource]*oracleEntry)}
}

func (m *oracleManager) Stats() Stats {
	return Stats{
		Requests:            m.requests.Load(),
		ImmediateGrants:     m.immediateGrants.Load(),
		Waits:               m.waits.Load(),
		Conversions:         m.conversions.Load(),
		Deadlocks:           m.deadlocks.Load(),
		ConversionDeadlocks: m.conversionDeadlocks.Load(),
		SubtreeDeadlocks:    m.subtreeDeadlocks.Load(),
		Timeouts:            m.timeouts.Load(),
	}
}

func (m *oracleManager) head(res Resource) *oracleHead {
	h := m.locks[res]
	if h == nil {
		h = &oracleHead{granted: make(map[TxID]*oracleEntry)}
		m.locks[res] = h
	}
	return h
}

func (m *oracleManager) compatibleWithOthers(h *oracleHead, self TxID, mode Mode) bool {
	for id, e := range h.granted {
		if id == self {
			continue
		}
		if !m.table.Compatible(e.mode, mode) {
			return false
		}
	}
	return true
}

func (m *oracleManager) Lock(tx *oracleTx, res Resource, mode Mode, short bool) error {
	m.requests.Add(1)
	m.mu.Lock()
	if tx.done {
		m.mu.Unlock()
		return ErrTxDone
	}
	if tx.doomed {
		m.mu.Unlock()
		return ErrDeadlockVictim
	}
	h := m.head(res)
	var req *oracleRequest
	if entry := tx.held[res]; entry != nil {
		target := m.table.Convert(entry.mode, mode)
		if !short {
			entry.short = false
		}
		if target == entry.mode {
			m.mu.Unlock()
			m.immediateGrants.Add(1)
			return nil
		}
		m.conversions.Add(1)
		if m.compatibleWithOthers(h, tx.id, target) {
			entry.mode = target
			m.mu.Unlock()
			m.immediateGrants.Add(1)
			return nil
		}
		req = &oracleRequest{tx: tx, res: res, target: target, short: short, conversion: true, result: make(chan error, 1)}
		pos := 0
		for pos < len(h.queue) && h.queue[pos].conversion {
			pos++
		}
		h.queue = append(h.queue, nil)
		copy(h.queue[pos+1:], h.queue[pos:])
		h.queue[pos] = req
	} else {
		if len(h.queue) == 0 && m.compatibleWithOthers(h, tx.id, mode) {
			e := &oracleEntry{tx: tx, mode: mode, short: short}
			h.granted[tx.id] = e
			tx.held[res] = e
			m.mu.Unlock()
			m.immediateGrants.Add(1)
			return nil
		}
		req = &oracleRequest{tx: tx, res: res, target: mode, short: short, result: make(chan error, 1)}
		h.queue = append(h.queue, req)
	}

	tx.waiting = req
	m.waits.Add(1)
	victimIsMe := m.resolveDeadlocksLocked(tx)
	m.mu.Unlock()
	if victimIsMe {
		return <-req.result
	}

	timer := time.NewTimer(m.timeout)
	defer timer.Stop()
	select {
	case err := <-req.result:
		return err
	case <-timer.C:
		m.mu.Lock()
		select {
		case err := <-req.result:
			m.mu.Unlock()
			return err
		default:
		}
		m.removeRequestLocked(req)
		tx.waiting = nil
		m.mu.Unlock()
		m.timeouts.Add(1)
		return ErrLockTimeout
	}
}

func (m *oracleManager) removeRequestLocked(req *oracleRequest) {
	h := m.locks[req.res]
	if h == nil {
		return
	}
	for i, r := range h.queue {
		if r == req {
			h.queue = append(h.queue[:i], h.queue[i+1:]...)
			break
		}
	}
	m.sweepLocked(h)
}

func (m *oracleManager) sweepLocked(h *oracleHead) {
	for len(h.queue) > 0 {
		req := h.queue[0]
		if req.tx.doomed || req.tx.done {
			h.queue = h.queue[1:]
			req.tx.waiting = nil
			req.result <- ErrDeadlockVictim
			continue
		}
		if req.conversion {
			entry := h.granted[req.tx.id]
			if entry == nil {
				req.conversion = false
				continue
			}
			if !m.compatibleWithOthers(h, req.tx.id, req.target) {
				return
			}
			entry.mode = req.target
			if !req.short {
				entry.short = false
			}
		} else {
			if !m.compatibleWithOthers(h, req.tx.id, req.target) {
				return
			}
			e := &oracleEntry{tx: req.tx, mode: req.target, short: req.short}
			h.granted[req.tx.id] = e
			req.tx.held[req.res] = e
		}
		h.queue = h.queue[1:]
		req.tx.waiting = nil
		req.result <- nil
	}
}

func (m *oracleManager) ReleaseAll(tx *oracleTx) {
	m.mu.Lock()
	defer m.mu.Unlock()
	tx.done = true
	if tx.waiting != nil {
		m.removeRequestLocked(tx.waiting)
		tx.waiting = nil
	}
	for res := range tx.held {
		h := m.locks[res]
		delete(h.granted, tx.id)
		delete(tx.held, res)
		m.sweepLocked(h)
		m.maybeDropHeadLocked(res, h)
	}
}

func (m *oracleManager) ReleaseShort(tx *oracleTx) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for res, e := range tx.held {
		if !e.short {
			continue
		}
		h := m.locks[res]
		delete(h.granted, tx.id)
		delete(tx.held, res)
		m.sweepLocked(h)
		m.maybeDropHeadLocked(res, h)
	}
}

func (m *oracleManager) maybeDropHeadLocked(res Resource, h *oracleHead) {
	if len(h.granted) == 0 && len(h.queue) == 0 {
		delete(m.locks, res)
	}
}

func (m *oracleManager) HeldMode(tx *oracleTx, res Resource) Mode {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e := tx.held[res]; e != nil {
		return e.mode
	}
	return ModeNone
}

func (m *oracleManager) Waiting(tx *oracleTx) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return tx.waiting != nil
}

func (m *oracleManager) resolveDeadlocksLocked(tx *oracleTx) bool {
	for {
		cycle := m.findCycleLocked(tx)
		if cycle == nil {
			return false
		}
		victim := cycle[0]
		for _, member := range cycle {
			if member.id > victim.id {
				victim = member
			}
		}
		info := DeadlockInfo{Victim: victim.id}
		for _, member := range cycle {
			info.Members = append(info.Members, member.id)
			if member.waiting != nil {
				info.Resources = append(info.Resources, member.waiting.res)
				if member.waiting.conversion {
					info.Conversion = true
				}
			} else {
				info.Resources = append(info.Resources, "")
			}
		}
		m.deadlocks.Add(1)
		if info.Conversion {
			m.conversionDeadlocks.Add(1)
		} else {
			m.subtreeDeadlocks.Add(1)
		}
		if m.onDL != nil {
			m.onDL(info)
		}
		m.abortVictimLocked(victim)
		if victim == tx {
			return true
		}
	}
}

func (m *oracleManager) findCycleLocked(start *oracleTx) []*oracleTx {
	type frame struct {
		tx    *oracleTx
		succs []*oracleTx
		next  int
	}
	visited := map[TxID]bool{}
	stack := []frame{{tx: start, succs: m.successorsLocked(start)}}
	onPath := map[TxID]bool{start.id: true}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next >= len(f.succs) {
			onPath[f.tx.id] = false
			stack = stack[:len(stack)-1]
			continue
		}
		succ := f.succs[f.next]
		f.next++
		if succ == start {
			cycle := make([]*oracleTx, 0, len(stack))
			for i := range stack {
				cycle = append(cycle, stack[i].tx)
			}
			return cycle
		}
		if visited[succ.id] || onPath[succ.id] {
			continue
		}
		visited[succ.id] = true
		onPath[succ.id] = true
		stack = append(stack, frame{tx: succ, succs: m.successorsLocked(succ)})
	}
	return nil
}

func (m *oracleManager) successorsLocked(w *oracleTx) []*oracleTx {
	if w.waiting == nil {
		return nil
	}
	req := w.waiting
	h := m.locks[req.res]
	if h == nil {
		return nil
	}
	var out []*oracleTx
	seen := map[TxID]bool{w.id: true}
	for id, e := range h.granted {
		if id == w.id || seen[id] {
			continue
		}
		if !m.table.Compatible(e.mode, req.target) {
			seen[id] = true
			out = append(out, e.tx)
		}
	}
	for _, r := range h.queue {
		if r == req {
			break
		}
		if !seen[r.tx.id] {
			seen[r.tx.id] = true
			out = append(out, r.tx)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].id < out[b].id })
	return out
}

func (m *oracleManager) abortVictimLocked(victim *oracleTx) {
	victim.doomed = true
	if req := victim.waiting; req != nil {
		victim.waiting = nil
		m.removeRequestLocked(req)
		req.result <- ErrDeadlockVictim
	}
}
