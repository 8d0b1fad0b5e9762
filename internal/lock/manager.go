package lock

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// TxID identifies a transaction within one Manager.
type TxID uint64

// Resource is an opaque lockable name. Protocols derive resource names from
// SPLIDs (node locks) and from SPLID+edge-kind pairs (edge locks).
type Resource string

// ErrDeadlockVictim is returned from Lock when the transaction was chosen as
// the victim of a deadlock cycle. The caller must abort the transaction.
var ErrDeadlockVictim = errors.New("lock: transaction aborted as deadlock victim")

// ErrLockTimeout is returned when a lock request waited longer than the
// manager's timeout. The caller should abort the transaction.
var ErrLockTimeout = errors.New("lock: request timed out")

// ErrTxDone is returned when locking on behalf of a finished transaction.
var ErrTxDone = errors.New("lock: transaction already finished")

// ErrCanceled is returned when a lock wait was abandoned because the
// transaction's context (Tx.SetContext) was canceled or hit its deadline —
// a disconnected session's pending request must stop waiting immediately
// instead of burning the manager timeout while holding its queue slot. The
// caller must abort the transaction; the error is not retryable.
var ErrCanceled = errors.New("lock: request canceled")

// DefaultTimeout bounds lock waits when Options.Timeout is zero.
const DefaultTimeout = 10 * time.Second

// DefaultStripes is the default number of lock-table partitions. Power of
// two so the hash reduces with a mask.
const DefaultStripes = 64

// gcInterval is how many became-empty head observations a stripe accumulates
// before sweeping its empty heads out of its map. Empty heads are kept for
// reuse rather than deleted eagerly: deleting on every release would make
// every next acquisition of the same resource allocate a head and a map
// slot again.
const gcInterval = 512

// Tx is the lock manager's view of a transaction: the set of locks it holds
// and its wait state. Create with Manager.Begin; a Tx must be used by one
// goroutine at a time (the usual one-goroutine-per-transaction discipline).
type Tx struct {
	id  TxID
	mgr *Manager

	// mu guards held, waiting, done, doomed, ctx, and freeEntry. It is always
	// acquired after the partition mutex (stripe.mu before Tx.mu, never the
	// reverse), because sweeps on any partition must update the winner's
	// held set. A cache hit takes only this mutex.
	mu      sync.Mutex
	held    map[Resource]*holderEntry
	waiting *request
	done    bool

	// doomed is set, under mu, when the deadlock detector picks this
	// transaction as a victim.
	doomed bool

	// tables is what the transaction borrows from the manager between Begin
	// and ReleaseAll: held is its map. Nil once handed back.
	tables *txTables

	// freeEntry is a one-slot holder-entry freelist: ReleaseAll parks one
	// entry here and the next acquisition reuses it without touching the
	// shared sync.Pool — the per-tx half of the zero-alloc turnover path.
	freeEntry *holderEntry

	// ctx, when non-nil, bounds every lock wait of this transaction: a
	// cancellation (session disconnect, per-request deadline) makes a
	// blocked Lock return ErrCanceled immediately. Guarded by mu; set by
	// the owner goroutine before issuing requests.
	ctx context.Context
}

// SetContext attaches a context to the transaction's subsequent lock waits.
// Cancellation makes a blocked Lock return ErrCanceled right away instead of
// waiting out the manager timeout — the hook servers use to tear down a
// disconnected session's pending requests. A nil ctx detaches.
func (tx *Tx) SetContext(ctx context.Context) {
	tx.mu.Lock()
	tx.ctx = ctx
	tx.mu.Unlock()
}

// ID returns the transaction's identifier (monotonic: larger = younger).
func (tx *Tx) ID() TxID { return tx.id }

// holderEntry is one granted lock. Entries are pooled (sync.Pool plus the
// per-tx freelist). tx, next and head change only under the stripe mutex of
// the head the entry is chained on. mode and short change only while that
// stripe mutex and the owner's tx.mu are both held, so either one suffices to
// read them: the owner's cache hit holds tx.mu, a grant decision the stripe
// mutex.
type holderEntry struct {
	tx    *Tx
	mode  Mode
	short bool         // operation duration: ReleaseShort frees it
	next  *holderEntry // holder-chain link

	// head is the head the entry is chained on, so a release goes straight
	// to it without a lookup. It is cleared before the entry is pooled, so a
	// pooled entry keeps no collected head alive. A held entry's head is
	// mapped: gcStripeLocked collects only heads with no holder and no
	// waiter.
	head *lockHead
}

// request is one queued lock request. Requests are pooled. Every field but
// result is written before the request is queued or under the partition
// mutex while it is.
type request struct {
	tx     *Tx
	res    Resource
	target Mode
	short  bool
	conv   bool   // a conversion of a held entry: queued ahead of fresh requests
	seq    uint64 // issue order; the detector tries the newest waiter first
	// result is buffered (capacity 1) and reused across pool cycles; every
	// dequeue sends exactly one value and the owner receives it before the
	// request is repooled.
	result chan error
}

// lockHead is one resource's lock state: the granted group as a chain of
// holder entries and the FIFO wait queue. Guarded by the stripe mutex.
type lockHead struct {
	holders *holderEntry
	queue   []*request // conversions first, see enqueueLocked

	// stripe is the partition that maps the head: a release that reaches
	// the head through its holder entry takes this stripe's mutex.
	stripe *stripe
}

// enqueueLocked queues req: a conversion overtakes the non-conversion
// waiters but queues FIFO among the conversions. The stripe counts the
// heads that have waiters. Caller holds the partition mutex.
func (h *lockHead) enqueueLocked(req *request) {
	if len(h.queue) == 0 {
		h.stripe.waitingHeads.Add(1)
	}
	pos := len(h.queue)
	if req.conv {
		pos = 0
		for pos < len(h.queue) && h.queue[pos].conv {
			pos++
		}
	}
	h.queue = slices.Insert(h.queue, pos, req)
}

// dequeueLocked removes queue[i:j], a non-empty range. Caller holds the
// partition mutex.
func (h *lockHead) dequeueLocked(i, j int) {
	h.queue = slices.Delete(h.queue, i, j)
	if len(h.queue) == 0 {
		h.stripe.waitingHeads.Add(-1)
	}
}

// unlinkHolder removes e from the chain. Caller holds the partition mutex.
func unlinkHolder(h *lockHead, e *holderEntry) {
	for p := &h.holders; *p != nil; p = &(*p).next {
		if *p == e {
			*p = e.next
			return
		}
	}
}

// DeadlockInfo describes one detected cycle; it is passed to the onDeadlock
// observer (the XTCdeadlockDetector role from Section 4.2).
type DeadlockInfo struct {
	// Victim is the aborted transaction.
	Victim TxID
	// Members are the transactions on the cycle, starting with the waiter
	// whose wait closed it.
	Members []TxID
	// Resources are the resources each member was waiting for, aligned with
	// Members.
	Resources []Resource
	// Conversion reports whether any member was waiting on a lock
	// conversion — the paper's "frequent" deadlock class, as opposed to
	// rare cycles between separate subtrees.
	Conversion bool
}

// Options configure a Manager.
type Options struct {
	// Timeout bounds each lock wait; DefaultTimeout when zero.
	Timeout time.Duration
	// stripes is the number of lock-table partitions, rounded up to a power
	// of two; DefaultStripes when zero or negative. Only the in-package
	// tests set it.
	stripes int
	// onDeadlock, when non-nil, observes every detected deadlock. It runs
	// on the detector goroutine with every partition mutex held and must
	// return quickly without calling back into the Manager. Only the
	// in-package tests set it.
	onDeadlock func(DeadlockInfo)
	// Metrics, when non-nil, receives the manager's instruments: the
	// lock.* counters and the acquire/wait/conversion-wait/detector-pass
	// latency histograms. A nil registry disables latency recording
	// entirely (no clock reads on the locking path).
	Metrics *metrics.Registry
}

// stripe is one lock-table partition: its own mutex and its heads.
type stripe struct {
	mu sync.Mutex

	// heads maps the stripe's resources to their heads. Guarded by mu.
	heads map[Resource]*lockHead

	// emptySeen counts heads observed empty at release time; every
	// gcInterval observations the stripe sweeps its empty heads. Guarded
	// by mu.
	emptySeen int

	// waitingHeads counts the stripe's heads whose wait queue is non-empty
	// (see enqueueLocked), so the deadlock detector skips stripes nobody
	// waits in. Written under mu; atomic because the detector reads it
	// without mu.
	waitingHeads atomic.Int32

	_ [36]byte // keep adjacent stripes off one cache line
}

// headLocked resolves res to its head, creating one if absent. Caller holds
// the stripe mutex.
func (s *stripe) headLocked(res Resource) *lockHead {
	h := s.heads[res]
	if h == nil {
		h = &lockHead{stripe: s}
		s.heads[res] = h
	}
	return h
}

// Manager is the lock manager: one lock table shared by all transactions of
// an engine instance. The table is striped into partitions hashed by
// Resource, and every grant and release changes it under the resource's
// partition mutex; only a cache hit (see Lock) is answered without it.
// Deadlock detection runs on a dedicated goroutine (see deadlock.go).
type Manager struct {
	table   ModeTable
	timeout time.Duration
	onDL    func(DeadlockInfo)

	stripes []stripe
	mask    uint64

	entryPool  sync.Pool // *holderEntry
	reqPool    sync.Pool // *request
	tablesPool sync.Pool // *txTables

	nextTx  atomic.Uint64
	nextSeq atomic.Uint64

	stats counters

	// Latency histograms (nil without Options.Metrics — recording and the
	// clock reads feeding it are skipped entirely then).
	hAcquire  *metrics.Histogram // lock.acquire: every acquisition that reaches the table
	hWait     *metrics.Histogram // lock.wait: blocked time until grant/abort/timeout
	hConvWait *metrics.Histogram // lock.conversion_wait: blocked conversions only
	hDetector *metrics.Histogram // lock.detector_pass: one detection pass

	detKick   chan struct{}
	detStop   chan struct{}
	detDone   chan struct{}
	closeOnce sync.Once
}

// NewManager builds a Manager for one protocol's mode table and starts its
// deadlock-detector goroutine. Call Close when the manager is no longer
// needed to stop the detector.
func NewManager(table ModeTable, opts Options) *Manager {
	m := newManager(table, opts)
	go m.detectorLoop()
	return m
}

// newManager builds the manager without starting the detector goroutine —
// shared by NewManager and by tests that need a pending kick to survive
// until they start the loop themselves.
func newManager(table ModeTable, opts Options) *Manager {
	to := opts.Timeout
	if to <= 0 {
		to = DefaultTimeout
	}
	n := opts.stripes
	if n <= 0 {
		n = DefaultStripes
	}
	pow := 1
	for pow < n {
		pow <<= 1
	}
	m := &Manager{
		table:   table,
		timeout: to,
		onDL:    opts.onDeadlock,
		stripes: make([]stripe, pow),
		mask:    uint64(pow - 1),
		detKick: make(chan struct{}, 1),
		detStop: make(chan struct{}),
		detDone: make(chan struct{}),
	}
	m.entryPool.New = func() any { return new(holderEntry) }
	m.reqPool.New = func() any { return &request{result: make(chan error, 1)} }
	m.tablesPool.New = func() any {
		return &txTables{held: make(map[Resource]*holderEntry, 32), entries: make([]*holderEntry, 0, 32)}
	}
	for i := range m.stripes {
		m.stripes[i].heads = make(map[Resource]*lockHead)
	}
	if reg := opts.Metrics; reg != nil {
		m.hAcquire = reg.Histogram("lock.acquire")
		m.hWait = reg.Histogram("lock.wait")
		m.hConvWait = reg.Histogram("lock.conversion_wait")
		m.hDetector = reg.Histogram("lock.detector_pass")
		m.registerCounters(reg)
	}
	return m
}

// Close stops the deadlock-detector goroutine and waits for it to finish
// its final drain pass, so a kick that raced with Close is never dropped
// (any cycle formed before Close is resolved before Close returns). Safe to
// call more than once. Transactions must not use the manager after Close.
func (m *Manager) Close() {
	m.closeOnce.Do(func() { close(m.detStop) })
	<-m.detDone
}

// Table returns the manager's mode table.
func (m *Manager) Table() ModeTable { return m.table }

// NumPartitions returns the number of lock-table partitions.
func (m *Manager) NumPartitions() int { return len(m.stripes) }

// PartitionOf returns the partition index res hashes to (stable across
// runs: FNV-1a). Diagnostics and tests only.
func (m *Manager) PartitionOf(res Resource) int {
	return int(fnv1a(string(res)) & m.mask)
}

// stripeFor returns the partition res hashes to.
func (m *Manager) stripeFor(res Resource) *stripe {
	return &m.stripes[fnv1a(string(res))&m.mask]
}

func fnv1a(s string) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// headOf resolves res to its head (nil if absent). Caller holds the stripe
// mutex (or all of them).
func (m *Manager) headOf(res Resource) *lockHead {
	return m.stripeFor(res).heads[res]
}

// txTables are the per-transaction tables that outlive the transaction: the
// held map and the scratch ReleaseAll snapshots its entries into. They belong
// to the manager; a transaction borrows one set from Begin to ReleaseAll and
// hands it back empty. The *Tx itself is not recycled: the detector and the
// dump hold *Tx across stripes, and a reused one would be a different
// transaction under the same pointer.
type txTables struct {
	held    map[Resource]*holderEntry
	entries []*holderEntry
}

// tablesKeep is the most locks a transaction may have held for its tables to
// go back to the pool: clearing a map costs its capacity, not its content, so
// one grown map would tax every later transaction that drew it.
const tablesKeep = 128

// Begin registers a new transaction.
func (m *Manager) Begin() *Tx {
	tb := m.tablesPool.Get().(*txTables)
	return &Tx{id: TxID(m.nextTx.Add(1)), mgr: m, held: tb.held, tables: tb}
}

// grantLocked chains a new entry for tx in mode on h. Caller holds the
// partition mutex and tx.mu.
func (m *Manager) grantLocked(h *lockHead, tx *Tx, res Resource, mode Mode, short bool) {
	e := tx.freeEntry
	if e != nil {
		tx.freeEntry = nil
	} else {
		e = m.entryPool.Get().(*holderEntry)
	}
	e.tx, e.head, e.next = tx, h, h.holders
	e.mode, e.short = mode, short
	h.holders = e
	tx.held[res] = e
}

// putEntryLocked recycles an unlinked entry. Caller holds tx.mu.
func (m *Manager) putEntryLocked(tx *Tx, e *holderEntry) {
	e.tx, e.head, e.next = nil, nil, nil
	if tx.freeEntry == nil {
		tx.freeEntry = e
		return
	}
	m.entryPool.Put(e)
}

// takeRequest builds a pooled request for a wait.
func (m *Manager) takeRequest(tx *Tx, res Resource, target Mode, short, conv bool) *request {
	r := m.reqPool.Get().(*request)
	select { // defensive: a stale value must not satisfy the next wait
	case <-r.result:
	default:
	}
	r.tx, r.res, r.target, r.short, r.conv = tx, res, target, short, conv
	r.seq = m.nextSeq.Add(1)
	return r
}

func (m *Manager) putRequest(r *request) {
	r.tx = nil
	m.reqPool.Put(r)
}

// compatibleWithOthersLocked reports whether mode can coexist with every
// granted entry on h other than self's own. Caller holds the partition
// mutex.
func (m *Manager) compatibleWithOthersLocked(h *lockHead, self *Tx, mode Mode) bool {
	for e := h.holders; e != nil; e = e.next {
		if e.tx != self && !m.table.Compatible(e.mode, mode) {
			return false
		}
	}
	return true
}

// Lock acquires res in mode for tx, blocking until granted, deadlock abort,
// or timeout. short marks the request as releasable at operation end
// (committed-read isolation); a long request on the same resource upgrades
// the entry to long duration.
//
// A re-request is a cache hit when the transaction holds a long entry whose
// mode covers it (Convert(held, mode) == held): it is answered from the
// transaction's own held map without touching the shared table. Every other
// request takes the resource's partition mutex (acquire), a re-request
// covered by a short entry too.
//
// A cache hit does not consult tx's context: the
// already-canceled-context-fails-upfront contract applies to requests that
// reach the table (and any request that could block does).
func (m *Manager) Lock(tx *Tx, res Resource, mode Mode, short bool) error {
	if mode == ModeNone {
		return fmt.Errorf("lock: cannot request ModeNone on %q", res)
	}
	tx.mu.Lock()
	if tx.done {
		tx.mu.Unlock()
		m.stats.requests.Add(1)
		return ErrTxDone
	}
	if tx.doomed {
		tx.mu.Unlock()
		m.stats.requests.Add(1)
		return ErrDeadlockVictim
	}
	if e := tx.held[res]; e != nil && !e.short && (e.mode == mode || m.table.Convert(e.mode, mode) == e.mode) {
		tx.mu.Unlock()
		// Counted as a request and an immediate grant too, by derivation in
		// the stats snapshot.
		m.stats.cacheHits.Add(1)
		return nil
	}
	tx.mu.Unlock()
	m.stats.requests.Add(1)
	return m.acquire(tx, res, mode, short)
}

// acquire grants, converts or queues the request under res's partition
// mutex and waits out a queued request.
func (m *Manager) acquire(tx *Tx, res Resource, mode Mode, short bool) error {
	t0 := m.hAcquire.Start()
	s := m.stripeFor(res)
	s.mu.Lock()
	tx.mu.Lock()
	if tx.done {
		tx.mu.Unlock()
		s.mu.Unlock()
		return ErrTxDone
	}
	if tx.doomed {
		tx.mu.Unlock()
		s.mu.Unlock()
		return ErrDeadlockVictim
	}
	ctx := tx.ctx
	if ctx != nil {
		if cerr := ctx.Err(); cerr != nil {
			tx.mu.Unlock()
			s.mu.Unlock()
			m.stats.canceled.Add(1)
			return fmt.Errorf("%w: %w", ErrCanceled, cerr)
		}
	}
	h := s.headLocked(res)
	var req *request
	if entry := tx.held[res]; entry != nil {
		target := m.table.Convert(entry.mode, mode)
		if !short {
			entry.short = false
		}
		if target == entry.mode {
			tx.mu.Unlock()
			s.mu.Unlock()
			m.stats.immediateGrants.Add(1)
			m.hAcquire.Since(t0)
			return nil
		}
		m.stats.conversions.Add(1)
		if m.compatibleWithOthersLocked(h, tx, target) {
			entry.mode = target
			tx.mu.Unlock()
			s.mu.Unlock()
			m.stats.immediateGrants.Add(1)
			m.hAcquire.Since(t0)
			return nil
		}
		req = m.takeRequest(tx, res, target, short, true)
	} else {
		if len(h.queue) == 0 && m.compatibleWithOthersLocked(h, tx, mode) {
			m.grantLocked(h, tx, res, mode, short)
			tx.mu.Unlock()
			s.mu.Unlock()
			m.stats.immediateGrants.Add(1)
			m.hAcquire.Since(t0)
			return nil
		}
		req = m.takeRequest(tx, res, mode, short, false)
	}
	h.enqueueLocked(req)
	tx.waiting = req
	tx.mu.Unlock()
	s.mu.Unlock()
	m.stats.waits.Add(1)
	m.kickDetector()

	// Blocked-time accounting: every exit from the select records the wait
	// into lock.wait (conversions also into lock.conversion_wait) and the
	// whole acquisition into lock.acquire — tail latency is the signal the
	// protocol contest is about, so timeouts and deadlock aborts are
	// recorded too, not just grants.
	tw := m.hWait.Start()
	record := func() {
		m.hWait.Since(tw)
		if req.conv {
			m.hConvWait.Since(tw)
		}
		m.hAcquire.Since(t0)
	}

	// abandon withdraws the still-pending request after a timeout or a
	// context cancellation; a grant that raced the decision is honored (and
	// the failure counter is only bumped when the failure stands). A
	// pending request is still queued on h, so h has not been collected.
	abandon := func(failure error, counter *atomic.Uint64) error {
		s.mu.Lock()
		select {
		case err := <-req.result:
			// Grant raced with the timeout/cancellation; honor the grant.
			s.mu.Unlock()
			record()
			m.putRequest(req)
			return err
		default:
		}
		m.removeRequestLocked(s, h, req)
		tx.mu.Lock()
		if tx.waiting == req {
			tx.waiting = nil
		}
		tx.mu.Unlock()
		s.mu.Unlock()
		counter.Add(1)
		record()
		m.putRequest(req)
		return failure
	}

	var ctxDone <-chan struct{}
	if ctx != nil {
		ctxDone = ctx.Done() // nil channel (never ready) without a context
	}
	timer := time.NewTimer(m.timeout)
	defer timer.Stop()
	select {
	case err := <-req.result:
		record()
		m.putRequest(req)
		return err
	case <-ctxDone:
		return abandon(fmt.Errorf("%w: %w", ErrCanceled, ctx.Err()), &m.stats.canceled)
	case <-timer.C:
		return abandon(ErrLockTimeout, &m.stats.timeouts)
	}
}

// gcStripeLocked sweeps the stripe's empty heads out of its map so the
// table does not grow with every resource ever touched. A head is collected
// only with no holder and no waiter, so nothing reaches it afterwards: a
// held entry points at a live, mapped head (what lets a release skip the
// lookup, holderEntry.head), and a queued request keeps its head live. The
// live heads move to a new map: a Go map never shrinks, so deleting in
// place would keep the stripe's peak size for good. Caller holds the stripe
// mutex.
func (m *Manager) gcStripeLocked(s *stripe) {
	s.emptySeen = 0
	live := make(map[Resource]*lockHead)
	for res, h := range s.heads {
		if h.holders != nil || len(h.queue) > 0 {
			live[res] = h
		}
	}
	s.heads = live
}

// removeRequestLocked drops req from h's queue (if still present), then
// sweeps — removing a waiter may unblock those behind it. Caller holds the
// partition mutex.
func (m *Manager) removeRequestLocked(s *stripe, h *lockHead, req *request) {
	if i := slices.Index(h.queue, req); i >= 0 {
		h.dequeueLocked(i, i+1)
	}
	m.sweepLocked(s, h)
}

// sweepLocked grants queued requests from the front for as long as they are
// compatible, preserving FIFO fairness (the first non-grantable waiter
// blocks everything behind it). A head it leaves empty counts toward the
// stripe's lazy GC. Caller holds the partition mutex, and no Tx mutex.
func (m *Manager) sweepLocked(s *stripe, h *lockHead) {
	q := h.queue
	granted := 0
	for granted < len(q) {
		req := q[granted]
		rtx := req.tx
		rtx.mu.Lock()
		if rtx.done || rtx.doomed {
			granted++
			if rtx.waiting == req {
				rtx.waiting = nil
			}
			rtx.mu.Unlock()
			req.result <- ErrDeadlockVictim
			continue
		}
		if req.conv {
			entry := rtx.held[req.res]
			if entry == nil {
				// The holder aborted between enqueue and sweep; treat as a
				// fresh request.
				req.conv = false
				rtx.mu.Unlock()
				continue
			}
			if !m.compatibleWithOthersLocked(h, rtx, req.target) {
				rtx.mu.Unlock()
				break
			}
			entry.mode, entry.short = req.target, entry.short && req.short
		} else {
			if !m.compatibleWithOthersLocked(h, rtx, req.target) {
				rtx.mu.Unlock()
				break
			}
			m.grantLocked(h, rtx, req.res, req.target, req.short)
		}
		granted++
		if rtx.waiting == req {
			rtx.waiting = nil
		}
		rtx.mu.Unlock()
		req.result <- nil
	}
	if granted > 0 {
		h.dequeueLocked(0, granted)
	}
	if h.holders == nil && len(h.queue) == 0 {
		if s.emptySeen++; s.emptySeen >= gcInterval {
			m.gcStripeLocked(s)
		}
	}
}

// ReleaseAll releases every lock tx holds and marks it finished. It is the
// commit/abort release for isolation level repeatable read.
func (m *Manager) ReleaseAll(tx *Tx) {
	tx.mu.Lock()
	tx.done = true
	w := tx.waiting
	tx.mu.Unlock()
	if w != nil {
		// Defensive: with the one-goroutine-per-transaction discipline the
		// owner cannot be blocked in Lock while calling ReleaseAll, but a
		// stale pending request must not outlive the transaction.
		s := m.stripeFor(w.res)
		s.mu.Lock()
		tx.mu.Lock()
		stillWaiting := tx.waiting == w
		tx.waiting = nil
		tx.mu.Unlock()
		if stillWaiting {
			// Not yet granted (sweeps clear waiting before completing a
			// request, and we hold the partition mutex), so completing it
			// here cannot race with a grant.
			if h := s.heads[w.res]; h != nil {
				m.removeRequestLocked(s, h, w)
			}
			w.result <- ErrTxDone
		}
		s.mu.Unlock()
	}
	// No sweep can grant to tx anymore (done is set), so the held snapshot
	// is complete.
	tx.mu.Lock()
	tb := tx.tables
	if tb == nil { // released before: nothing is held
		tx.mu.Unlock()
		return
	}
	entries := tb.entries[:0]
	for _, e := range tx.held {
		entries = append(entries, e)
	}
	// done is set, so nothing writes held again; a nil map reads as empty.
	tx.held, tx.tables = nil, nil
	tx.mu.Unlock()
	m.releaseEntries(tx, entries)
	if len(entries) <= tablesKeep {
		clear(tb.held)
		clear(entries)
		tb.entries = entries[:0]
		m.tablesPool.Put(tb)
	}
}

// releaseEntries releases each entry under the stripe mutex of the head it
// records, one partition at a time, so there is no cross-partition lock
// order to respect; then it recycles the entries.
func (m *Manager) releaseEntries(tx *Tx, es []*holderEntry) {
	for _, e := range es {
		h := e.head
		h.stripe.mu.Lock()
		unlinkHolder(h, e)
		m.sweepLocked(h.stripe, h)
		h.stripe.mu.Unlock()
	}
	tx.mu.Lock()
	for _, e := range es {
		m.putEntryLocked(tx, e)
	}
	tx.mu.Unlock()
}

// ReleaseShort releases the locks tx acquired only with short duration —
// the end-of-operation release for isolation levels uncommitted and
// committed read. Short entries are never cache hits, so the lock cache
// stays valid across this partial release. Every write of the short flag
// holds tx.mu, so reading it under tx.mu alone is sound.
func (m *Manager) ReleaseShort(tx *Tx) {
	var short []*holderEntry
	tx.mu.Lock()
	for res, e := range tx.held {
		if e.short {
			short = append(short, e)
			delete(tx.held, res)
		}
	}
	tx.mu.Unlock()
	if len(short) > 0 {
		m.releaseEntries(tx, short)
	}
}

// HeldMode returns the mode tx holds on res (ModeNone if none) — a test and
// debugging aid. Every write of an entry's mode holds tx.mu, so tx.mu alone
// suffices.
func (m *Manager) HeldMode(tx *Tx, res Resource) Mode {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if e := tx.held[res]; e != nil {
		return e.mode
	}
	return ModeNone
}

// HeldCount returns how many locks tx currently holds.
func (m *Manager) HeldCount(tx *Tx) int {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	return len(tx.held)
}

// Waiting reports whether tx has a blocked request (test aid).
func (m *Manager) Waiting(tx *Tx) bool {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	return tx.waiting != nil
}

// QueueLength returns the number of waiters on res (test aid).
func (m *Manager) QueueLength(res Resource) int {
	s := m.stripeFor(res)
	s.mu.Lock()
	defer s.mu.Unlock()
	if h := s.heads[res]; h != nil {
		return len(h.queue)
	}
	return 0
}
