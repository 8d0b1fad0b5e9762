// Package lock implements the XTC lock manager of Section 3.3: a lock table
// keyed by opaque resource names, FIFO wait queues with priority for lock
// conversions, and a wait-for-graph deadlock detector with victim abort.
//
// The table is striped: resources hash onto partitions, each with its own
// mutex, granted groups, and wait queues, so concurrent traffic on
// different resources never serializes on a single table mutex. Every lock
// is acquired through one primitive, Lock: a re-request covered by a
// long-duration lock the transaction holds is answered from its own held
// map (the lock cache) without touching the shared table, a first request
// on an unsealed head is granted by CAS, and everything else takes the
// partition mutex. Deadlock detection runs on a dedicated goroutine over a
// cross-partition snapshot. See DESIGN.md, "Lock-table architecture".
//
// The manager is deliberately protocol-agnostic. Each of the paper's 11
// XML lock protocols supplies its own ModeTable (compatibility and
// conversion matrices); exchanging the table — together with the protocol's
// mapping of meta-lock requests to resources — exchanges the system's
// complete locking mechanism, which is exactly the paper's
// meta-synchronization idea.
package lock

// Mode is a protocol-specific lock mode. Mode values are indices into the
// protocol's compatibility and conversion matrices; ModeNone (0) means "no
// lock" and must never be granted.
type Mode uint8

// ModeNone is the absence of a lock.
const ModeNone Mode = 0

// ModeTable describes one protocol's lock modes. Implementations must be
// immutable after construction (they are shared across goroutines without
// synchronization).
type ModeTable interface {
	// Compatible reports whether a lock in mode requested can be granted to
	// one transaction while another transaction holds mode held on the same
	// resource.
	Compatible(held, requested Mode) bool
	// Convert returns the single mode that gives a transaction already
	// holding held at least the isolation of both held and requested — the
	// lock conversion matrix of Figure 4. Convert must be reflexive
	// (Convert(m, m) == m) and absorbing upward (converting never weakens).
	Convert(held, requested Mode) Mode
	// Name returns a short human-readable mode name for logs and tests.
	Name(m Mode) string
	// NumModes returns the number of modes including ModeNone; valid modes
	// are 1..NumModes-1.
	NumModes() int
}

// Table is a concrete ModeTable backed by explicit matrices. All protocol
// packages build their tables as Table literals via NewTable, which
// validates the structural invariants the paper relies on.
type Table struct {
	names  []string
	compat [][]bool
	conv   [][]Mode
}

// NewTable builds a Table from mode names (index 0 must be the no-lock
// placeholder), a compatibility matrix and a conversion matrix, both indexed
// [held][requested] over modes 1..n-1. It panics on malformed input — these
// are programmer-authored constants, so failing fast at init is right.
func NewTable(names []string, compat [][]bool, conv [][]Mode) *Table {
	n := len(names)
	if n < 2 {
		panic("lock: table needs at least one real mode")
	}
	if len(compat) != n || len(conv) != n {
		panic("lock: matrix size does not match mode count")
	}
	for i := 0; i < n; i++ {
		if len(compat[i]) != n || len(conv[i]) != n {
			panic("lock: matrix row size does not match mode count")
		}
	}
	t := &Table{names: names, compat: compat, conv: conv}
	for m := Mode(1); int(m) < n; m++ {
		if t.Convert(m, m) != m {
			panic("lock: conversion must be reflexive for " + names[m])
		}
		for r := Mode(1); int(r) < n; r++ {
			c := t.Convert(m, r)
			if c == ModeNone {
				panic("lock: conversion of " + names[m] + "+" + names[r] + " yields no mode")
			}
		}
	}
	return t
}

// Compatible implements ModeTable.
func (t *Table) Compatible(held, requested Mode) bool {
	return t.compat[held][requested]
}

// Convert implements ModeTable.
func (t *Table) Convert(held, requested Mode) Mode {
	if held == ModeNone {
		return requested
	}
	if requested == ModeNone {
		return held
	}
	return t.conv[held][requested]
}

// Name implements ModeTable.
func (t *Table) Name(m Mode) string {
	if int(m) >= len(t.names) {
		return "?"
	}
	return t.names[m]
}

// NumModes implements ModeTable.
func (t *Table) NumModes() int { return len(t.names) }
