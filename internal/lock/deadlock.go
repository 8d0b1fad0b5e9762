package lock

import "sort"

// Deadlock detection: the manager maintains no explicit wait-for graph;
// instead, a dedicated detector goroutine derives it on demand from a
// snapshot of the lock table and searches it for cycles. Every time a
// request blocks, the requester kicks the detector (a buffered signal, so
// kicks coalesce under load); a cycle can only come into existence when its
// last edge appears, and edges only appear when a transaction starts
// waiting, so running the detector after every block finds every deadlock.
//
// Detection is two-phase so the common no-deadlock pass never blocks the
// grant path:
//
//  1. An optimistic pass reads the wait-for edges through the per-partition
//     seqlocks — no mutex, grants and releases proceed underneath. A cycle
//     that existed when the detector was kicked consists entirely of
//     standing edges (its waiters stay blocked until the cycle is broken),
//     so the pass cannot miss it; what it *can* do is suspect a cycle from a
//     cross-partition view that was never simultaneous.
//  2. Only when the optimistic pass suspects a cycle does the detector lock
//     every partition (ascending index — the table-wide lock-order
//     discipline) and re-derive the graph exactly, confirming and resolving
//     cycles with the same algorithm and determinism as before the fast
//     path existed. No transaction is ever aborted on optimistic evidence.
//
// Edges of a waiting transaction w:
//   - to every holder of w's awaited resource whose granted mode is
//     incompatible with w's requested (converted) mode, and
//   - to every transaction queued ahead of w on that resource (the FIFO
//     queue makes w wait for them too).
//
// Waiters are scanned newest-first (by request sequence number): the most
// recent blocker is the one whose edge can have closed a new cycle, so the
// search starts where the old at-block-time detection started. The victim
// is the youngest member of the cycle (largest TxID), matching the usual
// "least work lost" heuristic. The victim's pending request fails with
// ErrDeadlockVictim; its held locks are freed when the transaction layer
// aborts it.

// detectorLoop runs until Close; each kick triggers one detection pass.
//
// Shutdown is a deterministic drain: when detStop closes, one final pass
// runs unconditionally before the loop exits. Without it, a kick enqueued
// after the last pass but before detStop wins the select would be dropped
// (the select picks randomly among ready cases), leaving a just-formed
// cycle undetected while its waiters still block. The final pass observes
// every edge published before Close — and Close waits on detDone, so by the
// time Close returns no pre-Close cycle can be outstanding.
func (m *Manager) detectorLoop() {
	defer close(m.detDone)
	for {
		select {
		case <-m.detStop:
			m.detectAndResolve()
			return
		case <-m.detKick:
			m.detectAndResolve()
		}
	}
}

// kickDetector schedules a detection pass. Non-blocking: the buffered
// channel coalesces concurrent kicks, and a kick sent while a pass runs
// triggers one more pass (which will see every edge published before the
// kick, because the pass reads the partitions afterwards).
func (m *Manager) kickDetector() {
	select {
	case m.detKick <- struct{}{}:
	default:
	}
}

// lockAllStripes acquires every partition mutex in ascending order (with
// the seqlock bumps — the combined section mutates the table when it aborts
// a victim).
func (m *Manager) lockAllStripes() {
	for i := range m.stripes {
		m.stripes[i].lock()
	}
}

func (m *Manager) unlockAllStripes() {
	for i := len(m.stripes) - 1; i >= 0; i-- {
		m.stripes[i].unlock()
	}
}

// detectAndResolve runs one detection pass: optimistic scan, then — only if
// a cycle is suspected — an exact confirm-and-resolve pass under every
// partition mutex, breaking cycles newest waiter first until none remain.
func (m *Manager) detectAndResolve() {
	t0 := m.hDetector.Start()
	defer m.hDetector.Since(t0)
	if !m.suspectCycle() {
		return
	}
	m.lockAllStripes()
	defer m.unlockAllStripes()
	for {
		waiting, order := m.waitingRequestsLocked()
		var cycle []*Tx
		for _, req := range order {
			if c := m.findCycleLocked(req.txp.Load(), waiting); c != nil {
				cycle = c
				break
			}
		}
		if cycle == nil {
			return
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
			if req := waiting[member.id]; req != nil {
				info.Resources = append(info.Resources, req.res)
				if req.conversion() {
					info.Conversion = true
				}
			} else {
				info.Resources = append(info.Resources, "")
			}
		}
		m.stats.deadlocks.Add(1)
		if info.Conversion {
			m.stats.conversionDeadlocks.Add(1)
		} else {
			m.stats.subtreeDeadlocks.Add(1)
		}
		if m.onDL != nil {
			m.onDL(info)
		}
		m.abortVictimLocked(victim, waiting[victim.id])
	}
}

// suspectCycle derives the wait-for graph from per-partition seqlock reads
// and reports whether it contains a cycle. Mutex-free: a pass over a busy
// table blocks no grant and no release. False positives are possible (the
// per-partition reads are not simultaneous); false negatives for standing
// cycles are not, because a standing cycle's edges persist until a victim
// is aborted — and aborting only happens in the confirm pass. A stripe
// without waiters has no edges and is skipped: a waiter counts in its stripe
// before its request kicks the detector.
func (m *Manager) suspectCycle() bool {
	succ := make(map[TxID][]TxID)
	edges := false
	for i := range m.stripes {
		s := &m.stripes[i]
		if s.waitingHeads.Load() == 0 {
			continue
		}
		var local [][2]TxID
		s.stableRead(func() bool {
			local = local[:0]
			ok := true
			s.index.walk(func(_ Resource, h *lockHead) {
				qp := h.waitq.Load()
				if qp == nil {
					return
				}
				q := *qp
				// A queued waiter keeps the head sealed, so the holder
				// chain is not being fast-pushed while we read it — but
				// this is a stale-tolerant read regardless.
				var holders []holderRef
				n := 0
				for e := h.holders.Load(); e != nil; e = e.next.Load() {
					if n++; n > observerWalkBound {
						ok = false
						return
					}
					if t := e.txp.Load(); t != nil {
						holders = append(holders, holderRef{t.id, e.mode()})
					}
				}
				for qi, r := range q {
					rt := r.txp.Load()
					if rt == nil {
						continue
					}
					w, target := rt.id, r.target()
					for _, hd := range holders {
						if hd.id != w && !m.table.Compatible(hd.mode, target) {
							local = append(local, [2]TxID{w, hd.id})
						}
					}
					for _, a := range q[:qi] {
						if at := a.txp.Load(); at != nil && at.id != w {
							local = append(local, [2]TxID{w, at.id})
						}
					}
				}
			})
			return ok
		})
		for _, e := range local {
			succ[e[0]] = append(succ[e[0]], e[1])
			edges = true
		}
	}
	return edges && hasCycle(succ)
}

type holderRef struct {
	id   TxID
	mode Mode
}

// hasCycle is a plain iterative three-color DFS over the suspected graph.
func hasCycle(succ map[TxID][]TxID) bool {
	const gray, black = 1, 2
	color := make(map[TxID]int, len(succ))
	type frame struct {
		id   TxID
		next int
	}
	for id := range succ {
		if color[id] != 0 {
			continue
		}
		color[id] = gray
		stack := []frame{{id: id}}
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			ss := succ[f.id]
			if f.next >= len(ss) {
				color[f.id] = black
				stack = stack[:len(stack)-1]
				continue
			}
			n := ss[f.next]
			f.next++
			switch color[n] {
			case gray:
				return true
			case 0:
				color[n] = gray
				stack = append(stack, frame{id: n})
			}
		}
	}
	return false
}

// waitingRequestsLocked collects every queued request across all partitions:
// a map keyed by transaction (each transaction waits on at most one
// resource) and a slice ordered newest block first. Caller holds all
// partition mutexes.
func (m *Manager) waitingRequestsLocked() (map[TxID]*request, []*request) {
	waiting := make(map[TxID]*request)
	var order []*request
	for i := range m.stripes {
		if m.stripes[i].waitingHeads.Load() == 0 {
			continue
		}
		m.stripes[i].index.walk(func(_ Resource, h *lockHead) {
			for _, req := range h.queueLocked() {
				if t := req.txp.Load(); t != nil {
					waiting[t.id] = req
					order = append(order, req)
				}
			}
		})
	}
	sort.Slice(order, func(a, b int) bool { return order[a].seq() > order[b].seq() })
	return waiting, order
}

// findCycleLocked searches for a wait-for cycle through start and returns
// its members (start first), or nil. Caller holds all partition mutexes.
func (m *Manager) findCycleLocked(start *Tx, waiting map[TxID]*request) []*Tx {
	// Iterative DFS keeping the current path for cycle reconstruction.
	type frame struct {
		tx    *Tx
		succs []*Tx
		next  int
	}
	visited := map[TxID]bool{}
	stack := []frame{{tx: start, succs: m.successorsLocked(start, waiting)}}
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
			cycle := make([]*Tx, 0, len(stack))
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
		stack = append(stack, frame{tx: succ, succs: m.successorsLocked(succ, waiting)})
	}
	return nil
}

// successorsLocked returns the transactions w is waiting for, sorted by
// TxID so detection is deterministic. Caller holds all partition mutexes
// (and the awaited head, having a queued waiter, is sealed — the holder
// chain is stable).
func (m *Manager) successorsLocked(w *Tx, waiting map[TxID]*request) []*Tx {
	req := waiting[w.id]
	if req == nil {
		return nil
	}
	h := m.headOf(req.res)
	if h == nil {
		return nil
	}
	var out []*Tx
	seen := map[TxID]bool{w.id: true}
	target := req.target()
	for e := h.holders.Load(); e != nil; e = e.next.Load() {
		t := e.txp.Load()
		if t == nil || seen[t.id] {
			continue
		}
		if !m.table.Compatible(e.mode(), target) {
			seen[t.id] = true
			out = append(out, t)
		}
	}
	for _, r := range h.queueLocked() {
		if r == req {
			break
		}
		if rt := r.txp.Load(); rt != nil && !seen[rt.id] {
			seen[rt.id] = true
			out = append(out, rt)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].id < out[b].id })
	return out
}

// abortVictimLocked dooms the victim and fails its pending request. Caller
// holds all partition mutexes and no Tx mutex.
func (m *Manager) abortVictimLocked(victim *Tx, req *request) {
	victim.doomed.Store(true)
	if req == nil {
		return
	}
	victim.mu.Lock()
	if victim.waiting == req {
		victim.waiting = nil
	}
	victim.mu.Unlock()
	hash := fnv1a(string(req.res))
	s := &m.stripes[hash&m.mask]
	if h := s.index.lookup(req.res, hash); h != nil {
		sealHeadLocked(h)
		m.removeRequestLocked(s, h, req)
		m.finishHeadLocked(s, h)
	}
	req.result <- ErrDeadlockVictim
}
