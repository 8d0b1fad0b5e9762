package lock

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"
)

// Diagnostics: snapshot and render the live lock table — the kind of
// information the paper's XTCdeadlockDetector gathers when a deadlock
// strikes (active transactions, locks held, state of the wait-for graph).
// Observers read through the per-partition seqlocks, so a snapshot of a
// busy table never blocks a grant or a release. Snapshot, LeakCheck,
// ActiveResources and the deadlock detector all read the table with one
// walk (walkHeads), and Snapshot takes its wait-for edges from the
// detector's rule (waitEdges).

// observerWalkBound caps lock-free holder-chain walks. A chain read without
// the partition mutex can transiently appear cyclic when recycled entries
// are re-pushed elsewhere mid-walk; a walk that runs past the bound gives
// up and the attempt is retried (the seqlock recheck would have discarded
// it anyway). Real chains are tiny — one entry per holding transaction.
const observerWalkBound = 1 << 14

// stableRead runs read under the stripe's seqlock: a bounded number of
// optimistic attempts (read must only follow atomics, reset its own
// accumulation on entry, and return false to void an attempt), each
// validated by an unchanged even sequence; then a read-only fallback under
// the mutex, which observes an exact state. Fast-path grants do not bump
// the sequence — they only push fully initialized entries onto holder
// chains, which a reader sees entirely or not at all.
func (s *stripe) stableRead(read func() bool) {
	for attempt := 0; attempt < 4; attempt++ {
		v := s.seq.Load()
		if v&1 == 0 && read() && s.seq.Load() == v {
			return
		}
		runtime.Gosched()
	}
	s.mu.Lock() // read-only: no seqlock bump
	read()
	s.mu.Unlock()
}

// heldRef is one holder as a walk read it.
type heldRef struct {
	tx    *Tx
	mode  Mode
	short bool
}

// waitRef is one queued request as a walk read it.
type waitRef struct {
	req    *request
	tx     *Tx
	res    Resource
	target Mode
	conv   bool
	seq    uint64
}

// headView is one live head — one with a holder or a waiter — as a walk
// read it: its holders in chain order and its queue in FIFO order.
type headView struct {
	res   Resource
	held  []heldRef
	queue []waitRef
}

// walkMode says which heads walkHeads reads, and how.
type walkMode uint8

const (
	// walkAll reads every live head through the stripe seqlocks.
	walkAll walkMode = iota
	// walkWaiters reads the heads with waiters through the seqlocks and
	// skips stripes whose waitingHeads is 0 (a waiter counts in its stripe
	// before its request kicks the detector).
	walkWaiters
	// walkWaitersExact reads the same heads for a caller that holds every
	// stripe mutex: directly, not through stableRead, whose fallback takes
	// that mutex. A head with waiters is sealed, so its chain is stable.
	walkWaitersExact
)

// walkHeads calls f once for every live head the mode selects, with the
// head's partition. Each stripe is one stable read: f sees its views only
// after the read is validated, so a voided attempt reaches no caller.
func (m *Manager) walkHeads(mode walkMode, f func(part int, v *headView)) {
	var views []headView
	for i := range m.stripes {
		s := &m.stripes[i]
		if mode != walkAll && s.waitingHeads.Load() == 0 {
			continue
		}
		read := func() bool {
			views = views[:0]
			ok := true
			s.index.walk(func(res Resource, h *lockHead) {
				q := h.queueLocked() // an atomic load; "Locked" is about changing it
				if len(q) == 0 && mode != walkAll {
					return
				}
				v := headView{res: res}
				n := 0
				for e := h.holders.Load(); e != nil; e = e.next.Load() {
					if n++; n > observerWalkBound {
						ok = false
						return
					}
					if t := e.txp.Load(); t != nil {
						hm, short := e.loadState()
						v.held = append(v.held, heldRef{t, hm, short})
					}
				}
				for _, r := range q {
					if t := r.txp.Load(); t != nil {
						v.queue = append(v.queue, waitRef{r, t, res, r.target(), r.conversion(), r.seq()})
					}
				}
				if len(v.held) > 0 || len(v.queue) > 0 {
					views = append(views, v)
				}
			})
			return ok
		}
		if mode == walkWaitersExact {
			read()
		} else {
			s.stableRead(read)
		}
		for j := range views {
			f(i, &views[j])
		}
	}
}

// HolderInfo describes one granted lock in a snapshot.
type HolderInfo struct {
	Tx    TxID
	Mode  string
	Short bool
}

// WaiterInfo describes one queued request in a snapshot.
type WaiterInfo struct {
	Tx         TxID
	Mode       string
	Conversion bool
}

// ResourceState is the snapshot of one lock-table entry.
type ResourceState struct {
	Resource  Resource
	Partition int
	Holders   []HolderInfo
	Waiters   []WaiterInfo
}

// WaitEdge is one edge of the derived wait-for graph.
type WaitEdge struct {
	From, To TxID
}

// Snapshot captures the lock table and the derived wait-for graph. Each
// partition is internally consistent (one stable seqlock read); partitions
// are read in sequence, so cross-partition relations can be skewed by
// concurrent activity — it is a diagnostic view, immediately stale either
// way. On a quiescent table it is exact. All slices are sorted and the
// wait-for edges deduplicated, so rendering the same table state always
// produces identical output. Resources whose heads are empty (kept around
// for fast-path reuse) are not reported.
type Snapshot struct {
	Taken      time.Time
	Partitions int
	Resources  []ResourceState
	WaitFor    []WaitEdge
}

// Snapshot captures the current lock-table state without blocking any
// grant: it reads through the per-partition seqlocks.
func (m *Manager) Snapshot() Snapshot {
	snap := Snapshot{Taken: time.Now(), Partitions: len(m.stripes)}
	edges := make(map[WaitEdge]struct{})
	m.walkHeads(walkAll, func(part int, v *headView) {
		rs := ResourceState{Resource: v.res, Partition: part}
		for _, h := range v.held {
			rs.Holders = append(rs.Holders, HolderInfo{Tx: h.tx.id, Mode: m.table.Name(h.mode), Short: h.short})
		}
		sort.Slice(rs.Holders, func(a, b int) bool { return rs.Holders[a].Tx < rs.Holders[b].Tx })
		for _, w := range v.queue {
			rs.Waiters = append(rs.Waiters, WaiterInfo{Tx: w.tx.id, Mode: m.table.Name(w.target), Conversion: w.conv})
		}
		snap.Resources = append(snap.Resources, rs)
		m.waitEdges(v, func(w waitRef, on *Tx) { edges[WaitEdge{From: w.tx.id, To: on.id}] = struct{}{} })
	})
	for e := range edges {
		snap.WaitFor = append(snap.WaitFor, e)
	}
	sort.Slice(snap.Resources, func(i, j int) bool {
		return snap.Resources[i].Resource < snap.Resources[j].Resource
	})
	sort.Slice(snap.WaitFor, func(i, j int) bool {
		if snap.WaitFor[i].From != snap.WaitFor[j].From {
			return snap.WaitFor[i].From < snap.WaitFor[j].From
		}
		return snap.WaitFor[i].To < snap.WaitFor[j].To
	})
	return snap
}

// Render writes a human-readable dump of the snapshot. The output is
// deterministic for a given table state (resources sorted by name, holders
// by transaction, edges deduplicated and sorted), so it is safe to compare
// against golden text in tests.
func (s Snapshot) Render(w io.Writer) {
	fmt.Fprintf(w, "lock table snapshot (%d resources, %d wait edges)\n",
		len(s.Resources), len(s.WaitFor))
	for _, rs := range s.Resources {
		fmt.Fprintf(w, "  %q:", string(rs.Resource))
		for _, h := range rs.Holders {
			dur := ""
			if h.Short {
				dur = " short"
			}
			fmt.Fprintf(w, " held(tx%d %s%s)", h.Tx, h.Mode, dur)
		}
		for _, q := range rs.Waiters {
			conv := ""
			if q.Conversion {
				conv = " conv"
			}
			fmt.Fprintf(w, " wait(tx%d %s%s)", q.Tx, q.Mode, conv)
		}
		fmt.Fprintln(w)
	}
	for _, e := range s.WaitFor {
		fmt.Fprintf(w, "  tx%d -> tx%d\n", e.From, e.To)
	}
}

// LeakCheck audits the lock table for leftovers. After every transaction
// has committed or aborted the table must be empty: a surviving holder or
// waiter means a release path was skipped. (Empty heads retained for
// fast-path reuse are not leaks.) The TaMix harness runs this audit at the
// end of every run, next to the document's Verify.
func (m *Manager) LeakCheck() error {
	var leaked []string
	total := 0
	m.walkHeads(walkAll, func(_ int, v *headView) {
		if total++; len(leaked) < 8 {
			leaked = append(leaked, string(v.res))
		}
	})
	if total == 0 {
		return nil
	}
	sort.Strings(leaked)
	return fmt.Errorf("lock: leak audit: %d resources still locked after all transactions finished (e.g. %q)", total, leaked)
}

// ActiveResources returns the number of resources currently carrying locks
// (holders or waiters; retained empty heads don't count).
func (m *Manager) ActiveResources() int {
	n := 0
	m.walkHeads(walkAll, func(int, *headView) { n++ })
	return n
}
