package lock

import (
	"slices"
	"sort"
)

// Deadlock detection: the manager maintains no explicit wait-for graph;
// instead, a dedicated detector goroutine derives it on demand and searches
// it for cycles. Every time a request blocks, the requester kicks the
// detector (a buffered signal, so kicks coalesce under load); a cycle can
// only come into existence when its last edge appears, and edges only
// appear when a transaction starts waiting, so running the detector after
// every block finds every deadlock.
//
// The graph has three pieces, shared with the lock-table dump: one walk
// over the live heads (walkHeads, dump.go), one rule that turns a head into
// its edges (waitEdges) and one cycle search (waitGraph.cycle). Detection
// is two-phase so the common no-deadlock pass holds one partition mutex
// at a time and never the whole table:
//
//  1. An optimistic pass walks the heads with waiters one partition at a
//     time — grants and releases in the other partitions proceed. A cycle
//     that existed when the detector was kicked consists entirely of
//     standing edges (its waiters stay blocked until the cycle is broken),
//     so the pass cannot miss it; what it *can* do is suspect a cycle from
//     a cross-partition view that was never simultaneous.
//  2. Only when the optimistic pass suspects a cycle does the detector lock
//     every partition (ascending index — the table-wide lock-order
//     discipline) and walks again exactly, confirming and resolving cycles
//     with the same search. No transaction is ever aborted on optimistic
//     evidence.
//
// Waiters are tried newest-first (by request sequence number): the most
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

// lockAllStripes acquires every partition mutex in ascending order.
func (m *Manager) lockAllStripes() {
	for i := range m.stripes {
		m.stripes[i].mu.Lock()
	}
}

func (m *Manager) unlockAllStripes() {
	for i := len(m.stripes) - 1; i >= 0; i-- {
		m.stripes[i].mu.Unlock()
	}
}

// detectAndResolve runs one detection pass: the wait-for graph read one
// partition at a time, then — only if it has a cycle — the exact graph
// under every partition mutex, breaking cycles newest waiter first until
// none remain.
func (m *Manager) detectAndResolve() {
	t0 := m.hDetector.Start()
	defer m.hDetector.Since(t0)
	if m.waitGraph(walkWaiters).cycle() == nil {
		return
	}
	m.lockAllStripes()
	defer m.unlockAllStripes()
	for {
		g := m.waitGraph(walkWaitersExact)
		cycle := g.cycle()
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
			w := g.waits[member]
			info.Members = append(info.Members, member.id)
			info.Resources = append(info.Resources, w.res)
			info.Conversion = info.Conversion || w.conv
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
		m.abortVictimLocked(victim, g.waits[victim].req)
	}
}

// waitEdges calls edge for every wait-for edge of one head: each waiter
// waits for every holder whose mode is incompatible with its target, and
// for every transaction queued ahead of it (the FIFO queue makes it wait
// for them too). It is the one statement of the rule: the detector's two
// passes and Snapshot all take their edges from here.
func (m *Manager) waitEdges(v *headView, edge func(w waitRef, on *Tx)) {
	for i, w := range v.queue {
		for _, h := range v.held {
			if h.tx != w.tx && !m.table.Compatible(h.mode, w.target) {
				edge(w, h.tx)
			}
		}
		for _, a := range v.queue[:i] {
			if a.tx != w.tx {
				edge(w, a.tx)
			}
		}
	}
}

// waitGraph is the wait-for graph of one walk over the heads with waiters.
type waitGraph struct {
	succ  map[*Tx][]*Tx   // whom each waiter waits for, in TxID order, once each
	waits map[*Tx]waitRef // the request each waiter is queued with
	order []waitRef       // every queued request, newest block first
}

// waitGraph derives the graph from one walk in the given mode. Read one
// partition at a time, a transaction that moved between two of them can
// show two requests: succ then holds the edges of both and waits the one
// walked last. Only the exact walk's caller
// reads waits, and there a transaction waits on at most one resource.
func (m *Manager) waitGraph(mode walkMode) *waitGraph {
	g := &waitGraph{succ: make(map[*Tx][]*Tx), waits: make(map[*Tx]waitRef)}
	m.walkHeads(mode, func(_ int, v *headView) {
		for _, w := range v.queue {
			g.waits[w.tx] = w
			g.order = append(g.order, w)
		}
		m.waitEdges(v, func(w waitRef, on *Tx) { g.succ[w.tx] = append(g.succ[w.tx], on) })
	})
	for w, ss := range g.succ {
		sort.Slice(ss, func(a, b int) bool { return ss[a].id < ss[b].id })
		g.succ[w] = slices.Compact(ss)
	}
	sort.Slice(g.order, func(a, b int) bool { return g.order[a].seq > g.order[b].seq })
	return g
}

// cycle searches the graph for a wait-for cycle and returns its members,
// starting with the waiter whose wait closed it, or nil. Waiters are tried
// newest block first, each with a depth-first search for a path back to
// it; successors are visited in TxID order, so one table state always
// yields the same cycle.
func (g *waitGraph) cycle() []*Tx {
	type frame struct {
		tx   *Tx
		next int
	}
	for _, w := range g.order {
		start := w.tx
		visited := map[*Tx]bool{}
		stack := []frame{{tx: start}}
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			succ := g.succ[f.tx]
			if f.next >= len(succ) {
				stack = stack[:len(stack)-1]
				continue
			}
			s := succ[f.next]
			f.next++
			if s == start {
				cycle := make([]*Tx, len(stack))
				for i := range stack {
					cycle[i] = stack[i].tx
				}
				return cycle
			}
			if !visited[s] {
				visited[s] = true
				stack = append(stack, frame{tx: s})
			}
		}
	}
	return nil
}

// abortVictimLocked dooms the victim and fails its pending request. Caller
// holds all partition mutexes and no Tx mutex.
func (m *Manager) abortVictimLocked(victim *Tx, req *request) {
	victim.mu.Lock()
	victim.doomed = true
	if victim.waiting == req {
		victim.waiting = nil
	}
	victim.mu.Unlock()
	s := m.stripeFor(req.res)
	if h := s.heads[req.res]; h != nil {
		m.removeRequestLocked(s, h, req)
	}
	req.result <- ErrDeadlockVictim
}
