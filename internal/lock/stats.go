package lock

import (
	"sync/atomic"

	"repro/internal/metrics"
)

// Stats are monotonic counters describing lock-manager activity. They feed
// the paper's performance metrics (lock requests, blocks, deadlocks). The
// counters are maintained as atomics, so reading them never touches any
// lock-table partition mutex; Stats is the torn-read-free snapshot type.
type Stats struct {
	Requests            uint64
	CacheHits           uint64 // requests satisfied by the per-tx lock cache
	ImmediateGrants     uint64
	Waits               uint64
	Conversions         uint64
	Deadlocks           uint64
	ConversionDeadlocks uint64
	SubtreeDeadlocks    uint64
	Timeouts            uint64
	// Canceled counts lock waits abandoned by context cancellation
	// (disconnected sessions, per-request deadlines).
	Canceled uint64
}

// counters is the live atomic form of Stats.
type counters struct {
	requests            atomic.Uint64
	cacheHits           atomic.Uint64
	immediateGrants     atomic.Uint64
	waits               atomic.Uint64
	conversions         atomic.Uint64
	deadlocks           atomic.Uint64
	conversionDeadlocks atomic.Uint64
	subtreeDeadlocks    atomic.Uint64
	timeouts            atomic.Uint64
	canceled            atomic.Uint64
}

// snapshot loads every counter. Each field is individually consistent;
// cross-field relations (e.g. Requests >= Waits) may be momentarily off by
// in-flight operations, which is inherent to mutex-free reads.
//
// A cache hit is by definition also a request and an immediate grant, so
// the hot path increments only cacheHits and the other two totals are
// derived here — one atomic add per hit instead of three.
func (c *counters) snapshot() Stats {
	ch := c.cacheHits.Load()
	return Stats{
		Requests:            c.requests.Load() + ch,
		CacheHits:           ch,
		ImmediateGrants:     c.immediateGrants.Load() + ch,
		Waits:               c.waits.Load(),
		Conversions:         c.conversions.Load(),
		Deadlocks:           c.deadlocks.Load(),
		ConversionDeadlocks: c.conversionDeadlocks.Load(),
		SubtreeDeadlocks:    c.subtreeDeadlocks.Load(),
		Timeouts:            c.timeouts.Load(),
		Canceled:            c.canceled.Load(),
	}
}

// Stats returns a snapshot of the counters. It never blocks on the lock
// table.
func (m *Manager) Stats() Stats {
	return m.stats.snapshot()
}

// registerCounters unifies the manager's atomic counters onto a metrics
// registry as computed values: the hot path keeps its single-atomic-add
// discipline and the registry reads the same atomics at snapshot time
// (including the derived request/immediate-grant totals — see snapshot).
func (m *Manager) registerCounters(reg *metrics.Registry) {
	reg.Func("lock.requests", func() uint64 { return m.stats.requests.Load() + m.stats.cacheHits.Load() })
	reg.Func("lock.cache_hits", m.stats.cacheHits.Load)
	reg.Func("lock.immediate_grants", func() uint64 { return m.stats.immediateGrants.Load() + m.stats.cacheHits.Load() })
	reg.Func("lock.waits", m.stats.waits.Load)
	reg.Func("lock.conversions", m.stats.conversions.Load)
	reg.Func("lock.deadlocks", m.stats.deadlocks.Load)
	reg.Func("lock.conversion_deadlocks", m.stats.conversionDeadlocks.Load)
	reg.Func("lock.subtree_deadlocks", m.stats.subtreeDeadlocks.Load)
	reg.Func("lock.timeouts", m.stats.timeouts.Load)
	reg.Func("lock.canceled", m.stats.canceled.Load)
}
