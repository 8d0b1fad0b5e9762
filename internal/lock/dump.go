package lock

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// Diagnostics: snapshot and render the live lock table — the kind of
// information the paper's XTCdeadlockDetector gathers when a deadlock
// strikes (active transactions, locks held, state of the wait-for graph).
// Snapshot, LeakCheck, ActiveResources and the deadlock detector all read
// the table with one walk (walkHeads), which holds one partition mutex at a
// time, and Snapshot takes its wait-for edges from the detector's rule
// (waitEdges).

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
	// walkAll reads every live head, each stripe under its mutex.
	walkAll walkMode = iota
	// walkWaiters reads the heads with waiters, each stripe under its
	// mutex, and skips stripes whose waitingHeads is 0 (a waiter counts in
	// its stripe before its request kicks the detector).
	walkWaiters
	// walkWaitersExact reads the same heads for a caller that already
	// holds every stripe mutex.
	walkWaitersExact
)

// walkHeads calls f once for every live head the mode selects, with the
// head's partition. f runs with the head's stripe mutex held, so it must
// not call back into the Manager; the views it gets are copies, valid after
// the mutex is released.
func (m *Manager) walkHeads(mode walkMode, f func(part int, v *headView)) {
	for i := range m.stripes {
		s := &m.stripes[i]
		if mode != walkAll && s.waitingHeads.Load() == 0 {
			continue
		}
		if mode != walkWaitersExact {
			s.mu.Lock()
		}
		for res, h := range s.heads {
			if len(h.queue) == 0 && (mode != walkAll || h.holders == nil) {
				continue
			}
			v := headView{res: res}
			for e := h.holders; e != nil; e = e.next {
				v.held = append(v.held, heldRef{e.tx, e.mode, e.short})
			}
			for _, r := range h.queue {
				v.queue = append(v.queue, waitRef{r, r.tx, res, r.target, r.conv, r.seq})
			}
			f(i, &v)
		}
		if mode != walkWaitersExact {
			s.mu.Unlock()
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
// partition is internally consistent (read under its mutex); partitions
// are read in sequence, so cross-partition relations can be skewed by
// concurrent activity — it is a diagnostic view, immediately stale either
// way. On a quiescent table it is exact. All slices are sorted and the
// wait-for edges deduplicated, so rendering the same table state always
// produces identical output. Resources whose heads are empty (kept around
// for reuse) are not reported.
type Snapshot struct {
	Taken      time.Time
	Partitions int
	Resources  []ResourceState
	WaitFor    []WaitEdge
}

// Snapshot captures the current lock-table state, holding one partition
// mutex at a time.
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
// waiter means a release path was skipped. (Empty heads retained for reuse
// are not leaks.) The TaMix harness runs this audit at the
// end of every run, next to the document's Verify.
func (m *Manager) LeakCheck() error {
	var leaked []string
	m.walkHeads(walkAll, func(_ int, v *headView) { leaked = append(leaked, string(v.res)) })
	if len(leaked) == 0 {
		return nil
	}
	sort.Strings(leaked) // the sample below is the same for one table state
	return fmt.Errorf("lock: leak audit: %d resources still locked after all transactions finished (e.g. %q)", len(leaked), leaked[:min(len(leaked), 8)])
}

// ActiveResources returns the number of resources currently carrying locks
// (holders or waiters; retained empty heads don't count).
func (m *Manager) ActiveResources() int {
	n := 0
	m.walkHeads(walkAll, func(int, *headView) { n++ })
	return n
}
