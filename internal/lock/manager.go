package lock

import (
	"context"
	"errors"
	"fmt"
	"runtime"
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
// before sweeping its dead heads out of the index. Empty heads are kept
// around (sealed-capable, reusable by the fast path) rather than deleted
// eagerly — deleting on every release would force every next acquisition of
// the same resource through the slow path and would churn allocations.
const gcInterval = 512

// Tx is the lock manager's view of a transaction: the set of locks it holds
// and its wait state. Create with Manager.Begin; a Tx must be used by one
// goroutine at a time (the usual one-goroutine-per-transaction discipline).
type Tx struct {
	id  TxID
	mgr *Manager

	// mu guards held, waiting, done, ctx, and freeEntry. It is always
	// acquired after the partition mutex (stripe.mu before Tx.mu, never the
	// reverse), because sweeps on any partition must update the winner's
	// held set. The CAS fast path takes only this mutex — never a partition
	// mutex.
	mu      sync.Mutex
	held    map[Resource]*holderEntry
	waiting *request
	done    bool

	// tables is what the transaction borrows from the manager between Begin
	// and ReleaseAll: held is its map. Nil once handed back.
	tables *txTables

	// doomed flips when the deadlock detector picks this transaction as a
	// victim. Atomic so the owner's cache fast path can observe it without
	// taking any mutex.
	doomed atomic.Bool

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
// per-tx freelist) and linked into the head's lock-free holder chain, so
// every field a lock-free observer may read is atomic: a stale reader that
// reaches a recycled entry sees typed, internally consistent values, and its
// seqlock recheck discards the read.
type holderEntry struct {
	txp   atomic.Pointer[Tx]
	state atomic.Uint32               // mode | short flag; see pack/loadState
	next  atomic.Pointer[holderEntry] // holder-chain link

	// head is the head the entry is chained on, so a release goes straight
	// to it without a lookup. Every grant path sets it before the entry is
	// published, and it is cleared before the entry is pooled, so a pooled
	// entry keeps no dead head alive. A held entry's head is live and
	// indexed: gcStripeLocked kills only heads with no live entry (txp !=
	// nil) and no waiter. Lock-free observers never read it.
	head *lockHead
}

const entryShortFlag = 1 << 8

func (e *holderEntry) loadState() (Mode, bool) {
	s := e.state.Load()
	return Mode(s & 0xFF), s&entryShortFlag != 0
}

func (e *holderEntry) mode() Mode { return Mode(e.state.Load() & 0xFF) }

func (e *holderEntry) isShort() bool { return e.state.Load()&entryShortFlag != 0 }

func (e *holderEntry) setState(m Mode, short bool) {
	v := uint32(m)
	if short {
		v |= entryShortFlag
	}
	e.state.Store(v)
}

// request is one queued lock request. Requests are pooled; as with
// holderEntry, the fields lock-free observers may read (txp, meta) are
// atomic. res/short are touched only by the owner and under the partition
// mutex.
type request struct {
	txp  atomic.Pointer[Tx]
	meta atomic.Uint64 // seq<<16 | target<<8 | flags
	res  Resource
	shrt bool
	// result is buffered (capacity 1) and reused across pool cycles; every
	// dequeue sends exactly one value and the owner receives it before the
	// request is repooled.
	result chan error
}

const reqConvFlag = 1 << 0

func (r *request) target() Mode     { return Mode(r.meta.Load() >> 8 & 0xFF) }
func (r *request) seq() uint64      { return r.meta.Load() >> 16 }
func (r *request) conversion() bool { return r.meta.Load()&reqConvFlag != 0 }

// clearConversion demotes the request to a fresh (non-conversion) request —
// the holder aborted between enqueue and sweep. Caller holds the partition
// mutex (sole writer; the atomic store keeps lock-free readers consistent).
func (r *request) clearConversion() { r.meta.Store(r.meta.Load() &^ reqConvFlag) }

// lockHead is one resource's lock state. The packed word (see word.go) is
// the fast path's entire view; the holder chain is the authoritative granted
// group; the queue is a copy-on-write slice so lock-free observers can read
// a loaded snapshot without racing slow-path mutations.
type lockHead struct {
	// word is the packed granted-group summary the CAS fast path grants
	// against. While sealed, the slow path owns the head and the fast path
	// stands off.
	word atomic.Uint64

	// inflight counts fast-path grants between their word-CAS and the
	// completion of their holder-chain push. The slow path seals the word
	// and then waits for inflight to drain, after which the chain is
	// authoritative and no further fast mutation can occur.
	inflight atomic.Int32

	// holders is the granted group as a singly linked chain. Fast grants
	// push at the chain head with CAS; unlinking happens only under the
	// partition mutex with the word sealed and inflight drained.
	holders atomic.Pointer[holderEntry]

	// waitq is the FIFO wait queue (conversions queued ahead, see
	// enqueueLocked). The slice is copy-on-write under the partition mutex:
	// mutations build a fresh array, so a slice loaded by an observer is
	// never written again. nil when empty.
	waitq atomic.Pointer[[]*request]

	// dead marks a head that was garbage-collected out of the index; its
	// word stays sealed forever so a stale fast-path lookup diverts to the
	// slow path (which resolves the resource afresh under the mutex). Heads
	// are never pooled — reusing one for a different resource would let a
	// stale reader grant against the wrong resource. Guarded by the
	// partition mutex.
	dead bool

	// stripe is the partition that indexes the head: a release that reaches
	// the head through its holder entry takes this stripe's mutex.
	stripe *stripe
}

func (h *lockHead) queueLocked() []*request {
	if p := h.waitq.Load(); p != nil {
		return *p
	}
	return nil
}

// setQueueLocked publishes q as h's wait queue and keeps the stripe's count
// of heads with waiters in step. Caller holds the partition mutex.
func (h *lockHead) setQueueLocked(q []*request) {
	had := h.waitq.Load() != nil
	if len(q) == 0 {
		h.waitq.Store(nil)
		if had {
			h.stripe.waitingHeads.Add(-1)
		}
		return
	}
	h.waitq.Store(&q)
	if !had {
		h.stripe.waitingHeads.Add(1)
	}
}

// enqueueLocked appends req (conversions overtake non-conversion waiters but
// queue FIFO among themselves). Caller holds the partition mutex.
func (h *lockHead) enqueueLocked(req *request, conversion bool) {
	q := h.queueLocked()
	nq := make([]*request, 0, len(q)+1)
	if conversion {
		pos := 0
		for pos < len(q) && q[pos].conversion() {
			pos++
		}
		nq = append(nq, q[:pos]...)
		nq = append(nq, req)
		nq = append(nq, q[pos:]...)
	} else {
		nq = append(nq, q...)
		nq = append(nq, req)
	}
	h.setQueueLocked(nq)
}

// pushHolder links e at the chain head. Lock-free: used by the fast path
// concurrently with other fast pushes (never concurrently with slow-path
// unlinks, which run sealed-and-drained).
func pushHolder(h *lockHead, e *holderEntry) {
	for {
		old := h.holders.Load()
		e.next.Store(old)
		if h.holders.CompareAndSwap(old, e) {
			return
		}
	}
}

// unlinkHolder removes e from the chain. Caller holds the partition mutex
// with the head sealed and drained (no concurrent pushes).
func unlinkHolder(h *lockHead, e *holderEntry) {
	if h.holders.Load() == e {
		h.holders.Store(e.next.Load())
		return
	}
	for p := h.holders.Load(); p != nil; p = p.next.Load() {
		if p.next.Load() == e {
			p.next.Store(e.next.Load())
			return
		}
	}
}

// sealHeadLocked transfers ownership of the head to the slow path: set the
// seal bit (stopping new fast grants) and wait out in-flight ones. After it
// returns, the holder chain is authoritative and only the caller mutates the
// head until it republishes the word. Caller holds the partition mutex.
func sealHeadLocked(h *lockHead) {
	w := h.word.Load()
	for w&wordSealed == 0 {
		if h.word.CompareAndSwap(w, w|wordSealed) {
			break
		}
		w = h.word.Load()
	}
	// A successful fast-path CAS always happens between an inflight
	// increment and decrement, so once inflight reads zero every fast grant
	// that beat the seal has finished its chain push.
	for h.inflight.Load() != 0 {
		runtime.Gosched()
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
	// Members (running transactions contribute an empty resource).
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

// stripe is one lock-table partition: its own mutex, a lock-free head index,
// and a seqlock generation counter so observers can take stable reads
// without blocking anyone.
type stripe struct {
	mu sync.Mutex

	// seq is the stripe's seqlock: odd while a mutating critical section is
	// open (lock/unlock below), even when quiescent. Observers read the
	// stripe's atomics between two equal even loads; on failure they retry
	// and eventually fall back to mu. Fast-path grants do not bump seq —
	// they only add a holder-chain entry, which an observer either sees
	// complete or not at all (the entry is fully initialized before its
	// push), so they cannot tear a stable read.
	seq atomic.Uint64

	// index maps resources to heads; reads are lock-free, mutations happen
	// under mu.
	index headIndex

	// emptySeen counts heads observed empty at release time; every
	// gcInterval observations the stripe sweeps dead heads. Atomic because
	// the mutex-free release path increments it too.
	emptySeen atomic.Int64

	// waitingHeads counts the stripe's heads whose wait queue is non-empty
	// (see setQueueLocked), so the deadlock detector skips stripes nobody
	// waits in. Written under mu; atomic for the detector's mutex-free pass.
	waitingHeads atomic.Int32

	_ [20]byte // keep adjacent stripes off one cache line
}

// lock/unlock wrap mu with the seqlock bumps. Every mutating critical
// section must use these; read-only sections may take mu directly.
func (s *stripe) lock() {
	s.mu.Lock()
	s.seq.Add(1)
}

func (s *stripe) unlock() {
	s.seq.Add(1)
	s.mu.Unlock()
}

// headLocked resolves res to its head, creating (and publishing to the
// index) a sealed head if absent. Caller holds the stripe mutex.
func (s *stripe) headLocked(res Resource, hash uint64) *lockHead {
	if h := s.index.lookup(res, hash); h != nil {
		return h
	}
	h := &lockHead{stripe: s}
	h.word.Store(wordSealed) // the open critical section owns it until publish
	s.index.insertLocked(res, hash, h)
	return h
}

// Manager is the lock manager: one lock table shared by all transactions of
// an engine instance. The table is striped into partitions hashed by
// Resource. An uncontended, compatible request is granted by a single CAS on
// the resource's packed granted-group word without touching any partition
// mutex; conflicts, conversions, and queue-non-empty resources fall back to
// the mutex+queue slow path, which keeps the FIFO fairness and deadlock
// semantics unchanged. Deadlock detection runs on a dedicated goroutine
// (see deadlock.go).
type Manager struct {
	table   ModeTable
	timeout time.Duration
	onDL    func(DeadlockInfo)

	// ft is the packed-word view of table.
	ft *fastTable

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
	hAcquire  *metrics.Histogram // lock.acquire: every slow-path acquisition
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
// needed to stop the detector. It panics on a table with more modes than
// the packed word holds (see VerifyPackedCompat): every table must keep
// the CAS fast path.
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
	ft, err := newFastTable(table)
	if err != nil {
		panic(err)
	}
	m := &Manager{
		table:   table,
		timeout: to,
		onDL:    opts.onDeadlock,
		ft:      ft,
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
		m.stripes[i].index.init()
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
	hash := fnv1a(string(res))
	return m.stripes[hash&m.mask].index.lookup(res, hash)
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

// takeEntryLocked pops a holder entry from the per-tx freelist or the shared
// pool. Caller holds tx.mu.
func (m *Manager) takeEntryLocked(tx *Tx) *holderEntry {
	if e := tx.freeEntry; e != nil {
		tx.freeEntry = nil
		return e
	}
	return m.entryPool.Get().(*holderEntry)
}

// putEntryLocked recycles an unlinked entry. Caller holds tx.mu (tx may be
// nil to bypass the freelist).
func (m *Manager) putEntryLocked(tx *Tx, e *holderEntry) {
	e.txp.Store(nil)
	e.next.Store(nil)
	e.head = nil
	if tx != nil && tx.freeEntry == nil {
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
	r.txp.Store(tx)
	r.res = res
	r.shrt = short
	flags := uint64(0)
	if conv {
		flags = reqConvFlag
	}
	r.meta.Store(m.nextSeq.Add(1)<<16 | uint64(target)<<8 | flags)
	return r
}

func (m *Manager) putRequest(r *request) {
	r.txp.Store(nil)
	m.reqPool.Put(r)
}

// compatibleWithOthersLocked reports whether mode can coexist with every
// granted entry on h other than self's own. Caller holds the partition
// mutex with the head sealed (the chain is authoritative).
func (m *Manager) compatibleWithOthersLocked(h *lockHead, self *Tx, mode Mode) bool {
	for e := h.holders.Load(); e != nil; e = e.next.Load() {
		t := e.txp.Load()
		if t == nil || t == self {
			continue
		}
		if !m.table.Compatible(e.mode(), mode) {
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
// transaction's own held map without touching the shared table. A first acquisition whose resource
// head is unsealed and whose mode is compatible with the packed
// granted-group word is granted by CAS — no partition mutex, no allocation
// (pooled entry). Everything else (conflict, conversion, queued waiters,
// unknown resource) takes the slow path, which has the same semantics as
// before the fast path existed.
//
// Like a cache hit, a fast grant does not consult tx's context: the
// already-canceled-context-fails-upfront contract applies to requests that
// would reach the slow path (and any request that could block does).
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
	if tx.doomed.Load() {
		tx.mu.Unlock()
		m.stats.requests.Add(1)
		return ErrDeadlockVictim
	}
	if e := tx.held[res]; e != nil {
		hm, hshort := e.loadState()
		if hm == mode || m.table.Convert(hm, mode) == hm {
			if !hshort {
				tx.mu.Unlock()
				// Counted as a request and an immediate grant too, by
				// derivation in the stats snapshot.
				m.stats.cacheHits.Add(1)
				return nil
			}
			// Covered by a short entry: a table re-request, not a cache hit.
			// The granted mode does not change, so the duration upgrade is
			// owner-local — no partition state is involved, exactly as the
			// slow path would conclude after taking the partition mutex.
			if tx.ctx != nil {
				if cerr := tx.ctx.Err(); cerr != nil {
					tx.mu.Unlock()
					m.stats.requests.Add(1)
					m.stats.canceled.Add(1)
					return fmt.Errorf("%w: %w", ErrCanceled, cerr)
				}
			}
			if !short && hshort {
				e.setState(hm, false)
			}
			tx.mu.Unlock()
			m.stats.requests.Add(1)
			m.stats.immediateGrants.Add(1)
			return nil
		}
		tx.mu.Unlock()
		m.stats.requests.Add(1)
		return m.lockSlow(tx, res, mode, short, fnv1a(string(res)))
	}
	hash := fnv1a(string(res))
	if h := m.stripes[hash&m.mask].index.lookup(res, hash); h != nil &&
		m.tryFastGrantLocked(tx, h, res, mode, short) {
		tx.mu.Unlock()
		m.stats.requests.Add(1)
		m.stats.immediateGrants.Add(1)
		m.stats.fastGrants.Add(1)
		return nil
	}
	tx.mu.Unlock()
	m.stats.requests.Add(1)
	return m.lockSlow(tx, res, mode, short, hash)
}

// tryFastGrantLocked attempts the CAS grant: admission is a single
// compare-and-swap on the packed word, then the pooled entry is pushed onto
// the lock-free holder chain. Caller holds tx.mu (only) and has verified tx
// holds nothing on res. Returns false to divert to the slow path.
func (m *Manager) tryFastGrantLocked(tx *Tx, h *lockHead, res Resource, mode Mode, short bool) bool {
	ft := m.ft
	if int(mode) >= len(ft.incompat) {
		return false // out-of-range mode: let the slow path reject it
	}
	incompat := ft.incompat[mode]
	w := h.word.Load()
	if w&wordSealed != 0 || w&incompat != 0 {
		return false
	}
	e := m.takeEntryLocked(tx)
	e.txp.Store(tx)
	e.setState(mode, short)
	e.head = h
	bit := ft.bit[mode]
	h.inflight.Add(1)
	for spin := 0; ; spin++ {
		// The epoch bumps on every fast grant too — not just slow-path
		// publishes — so a same-mode grant (whose bit is already set and
		// would otherwise leave the word's value unchanged) is visible to
		// the fast release's CAS (see tryFastRelease).
		if h.word.CompareAndSwap(w, nextWord(w&wordModeMask|bit, w, false)) {
			break
		}
		w = h.word.Load()
		if spin >= 3 || w&wordSealed != 0 || w&incompat != 0 {
			h.inflight.Add(-1)
			m.putEntryLocked(tx, e)
			return false
		}
	}
	pushHolder(h, e)
	h.inflight.Add(-1)
	tx.held[res] = e
	return true
}

func (m *Manager) lockSlow(tx *Tx, res Resource, mode Mode, short bool, hash uint64) error {
	t0 := m.hAcquire.Start()
	s := &m.stripes[hash&m.mask]
	s.lock()
	tx.mu.Lock()
	if tx.done {
		tx.mu.Unlock()
		s.unlock()
		return ErrTxDone
	}
	if tx.doomed.Load() {
		tx.mu.Unlock()
		s.unlock()
		return ErrDeadlockVictim
	}
	ctx := tx.ctx
	if ctx != nil {
		if cerr := ctx.Err(); cerr != nil {
			tx.mu.Unlock()
			s.unlock()
			m.stats.canceled.Add(1)
			return fmt.Errorf("%w: %w", ErrCanceled, cerr)
		}
	}
	h := s.headLocked(res, hash)
	sealHeadLocked(h)
	var req *request
	if entry := tx.held[res]; entry != nil {
		target := m.table.Convert(entry.mode(), mode)
		if !short {
			entry.setState(entry.mode(), false)
		}
		if target == entry.mode() {
			tx.mu.Unlock()
			m.finishHeadLocked(s, h)
			s.unlock()
			m.stats.immediateGrants.Add(1)
			m.hAcquire.Since(t0)
			return nil
		}
		m.stats.conversions.Add(1)
		if m.compatibleWithOthersLocked(h, tx, target) {
			entry.setState(target, entry.isShort())
			tx.mu.Unlock()
			m.finishHeadLocked(s, h)
			s.unlock()
			m.stats.immediateGrants.Add(1)
			m.hAcquire.Since(t0)
			return nil
		}
		req = m.takeRequest(tx, res, target, short, true)
		h.enqueueLocked(req, true)
	} else {
		if h.waitq.Load() == nil && m.compatibleWithOthersLocked(h, tx, mode) {
			e := m.takeEntryLocked(tx)
			e.txp.Store(tx)
			e.setState(mode, short)
			e.head = h
			pushHolder(h, e)
			tx.held[res] = e
			tx.mu.Unlock()
			m.finishHeadLocked(s, h)
			s.unlock()
			m.stats.immediateGrants.Add(1)
			m.hAcquire.Since(t0)
			return nil
		}
		req = m.takeRequest(tx, res, mode, short, false)
		h.enqueueLocked(req, false)
	}

	tx.waiting = req
	tx.mu.Unlock()
	m.finishHeadLocked(s, h)
	s.unlock()
	m.stats.waits.Add(1)
	m.kickDetector()

	// Blocked-time accounting: every exit from the select records the wait
	// into lock.wait (conversions also into lock.conversion_wait) and the
	// whole slow-path acquisition into lock.acquire — tail latency is the
	// signal the protocol contest is about, so timeouts and deadlock aborts
	// are recorded too, not just grants.
	tw := m.hWait.Start()
	record := func() {
		m.hWait.Since(tw)
		if req.conversion() {
			m.hConvWait.Since(tw)
		}
		m.hAcquire.Since(t0)
	}

	// abandon withdraws the still-pending request after a timeout or a
	// context cancellation; a grant that raced the decision is honored (and
	// the failure counter is only bumped when the failure stands).
	abandon := func(failure error, counter *atomic.Uint64) error {
		s.lock()
		select {
		case err := <-req.result:
			// Grant raced with the timeout/cancellation; honor the grant.
			s.unlock()
			record()
			m.putRequest(req)
			return err
		default:
		}
		sealHeadLocked(h)
		m.removeRequestLocked(s, h, req)
		tx.mu.Lock()
		if tx.waiting == req {
			tx.waiting = nil
		}
		tx.mu.Unlock()
		m.finishHeadLocked(s, h)
		s.unlock()
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

// finishHeadLocked republishes the packed word at the end of a slow-path
// critical section: recompute the holder bitset from the chain, bump the
// epoch, and seal iff the fast path must stay off (waiters present or head
// dead). Cleared entries a fast release could not unlink (see
// tryFastRelease) are pruned and repooled here — the head is sealed and
// drained, so the chain is exclusively ours. Empty heads feed the stripe's
// lazy GC. Caller holds the partition mutex.
func (m *Manager) finishHeadLocked(s *stripe, h *lockHead) {
	m.pruneChainLocked(h)
	var bits uint64
	empty := true
	for e := h.holders.Load(); e != nil; e = e.next.Load() {
		empty = false
		bits |= m.ft.bit[e.mode()]
	}
	sealed := h.dead
	if q := h.queueLocked(); len(q) > 0 {
		sealed = true
		empty = false
	}
	h.word.Store(nextWord(bits, h.word.Load(), sealed))
	if empty && !h.dead {
		if s.emptySeen.Add(1) >= gcInterval {
			m.gcStripeLocked(s)
		}
	}
}

// pruneChainLocked unlinks and repools the cleared entries a fast release
// could not unlink itself. Caller holds the partition mutex with the head
// sealed and drained.
func (m *Manager) pruneChainLocked(h *lockHead) {
	for e := h.holders.Load(); e != nil; {
		next := e.next.Load()
		if e.txp.Load() == nil {
			unlinkHolder(h, e)
			e.next.Store(nil)
			e.head = nil
			m.entryPool.Put(e)
		}
		e = next
	}
}

// gcStripeLocked sweeps the stripe's empty heads out of the index so the
// table does not grow with every resource ever touched. Dead heads stay
// sealed forever; a fast path holding a stale pointer diverts to the slow
// path, which resolves the resource afresh. A head dies only with no live
// entry and no waiter on it, so an entry still held always points at a
// live, indexed head — what lets a release skip the lookup (holderEntry.head).
// Caller holds the stripe mutex.
func (m *Manager) gcStripeLocked(s *stripe) {
	s.emptySeen.Store(0)
	b := s.index.buckets.Load()
	for i := range b.slots {
		prev := &b.slots[i]
		for sl := prev.Load(); sl != nil; sl = prev.Load() {
			h := sl.head
			sealHeadLocked(h)
			m.pruneChainLocked(h)
			if h.holders.Load() == nil && h.waitq.Load() == nil {
				h.dead = true // word stays sealed
				prev.Store(sl.next.Load())
				s.index.count--
				continue
			}
			m.finishHeadLocked(s, h)
			prev = &sl.next
		}
	}
}

// removeRequestLocked drops req from h's queue (if still present), then
// sweeps — removing a waiter may unblock those behind it. Caller holds the
// partition mutex with the head sealed.
func (m *Manager) removeRequestLocked(s *stripe, h *lockHead, req *request) {
	q := h.queueLocked()
	for i, r := range q {
		if r == req {
			nq := make([]*request, 0, len(q)-1)
			nq = append(nq, q[:i]...)
			nq = append(nq, q[i+1:]...)
			h.setQueueLocked(nq)
			break
		}
	}
	m.sweepLocked(s, h)
}

// sweepLocked grants queued requests from the front for as long as they are
// compatible, preserving FIFO fairness (the first non-grantable waiter
// blocks everything behind it). Caller holds the partition mutex with the
// head sealed, and no Tx mutex.
func (m *Manager) sweepLocked(s *stripe, h *lockHead) {
	q := h.queueLocked()
	granted := 0
	for granted < len(q) {
		req := q[granted]
		rtx := req.txp.Load()
		rtx.mu.Lock()
		if rtx.done || rtx.doomed.Load() {
			granted++
			if rtx.waiting == req {
				rtx.waiting = nil
			}
			rtx.mu.Unlock()
			req.result <- ErrDeadlockVictim
			continue
		}
		target := req.target()
		if req.conversion() {
			entry := rtx.held[req.res]
			if entry == nil {
				// The holder aborted between enqueue and sweep; treat as a
				// fresh request.
				req.clearConversion()
				rtx.mu.Unlock()
				continue
			}
			if !m.compatibleWithOthersLocked(h, rtx, target) {
				rtx.mu.Unlock()
				break
			}
			entry.setState(target, entry.isShort() && req.shrt)
		} else {
			if !m.compatibleWithOthersLocked(h, rtx, target) {
				rtx.mu.Unlock()
				break
			}
			e := m.takeEntryLocked(rtx)
			e.txp.Store(rtx)
			e.setState(target, req.shrt)
			e.head = h
			pushHolder(h, e)
			rtx.held[req.res] = e
		}
		granted++
		if rtx.waiting == req {
			rtx.waiting = nil
		}
		rtx.mu.Unlock()
		req.result <- nil
	}
	if granted > 0 {
		// Copy, don't subslice: a loaded queue slice must never share a
		// backing array a later enqueue could write into.
		h.setQueueLocked(append([]*request(nil), q[granted:]...))
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
		hash := fnv1a(string(w.res))
		s := &m.stripes[hash&m.mask]
		s.lock()
		tx.mu.Lock()
		stillWaiting := tx.waiting == w
		tx.waiting = nil
		tx.mu.Unlock()
		if stillWaiting {
			// Not yet granted (sweeps clear waiting before completing a
			// request, and we hold the partition mutex), so completing it
			// here cannot race with a grant.
			if h := s.index.lookup(w.res, hash); h != nil {
				sealHeadLocked(h)
				m.removeRequestLocked(s, h, w)
				m.finishHeadLocked(s, h)
			}
			w.result <- ErrTxDone
		}
		s.unlock()
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
	tx.mu.Unlock()
	m.releaseEntries(entries)
	tx.mu.Lock()
	m.repoolLocked(tx, entries)
	// done is set, so nothing writes held again; a nil map reads as empty.
	tx.held, tx.tables = nil, nil
	tx.mu.Unlock()
	if len(entries) <= tablesKeep {
		clear(tb.held)
		clear(entries)
		tb.entries = entries[:0]
		m.tablesPool.Put(tb)
	}
}

// releaseEntries releases each entry through the head it records: a sole
// holder with one CAS, the rest under their partition mutex one at a time,
// so there is no cross-partition lock order to respect. An entry a racing
// grant re-chained ahead of (see tryFastRelease) is set to nil in es: the
// next sealed section repools it.
func (m *Manager) releaseEntries(es []*holderEntry) {
	for i, e := range es {
		ok, pooled := m.tryFastRelease(e)
		if !ok {
			m.releaseOne(e)
		} else if !pooled {
			es[i] = nil
		}
	}
}

// repoolLocked recycles the entries releaseEntries left to the caller.
// Caller holds tx.mu.
func (m *Manager) repoolLocked(tx *Tx, es []*holderEntry) {
	for _, e := range es {
		if e != nil {
			m.putEntryLocked(tx, e)
		}
	}
}

// tryFastRelease attempts the mutex-free release of a sole-holder entry: if
// e is the only granted entry on its head (its mode bit is the whole word
// and it is alone on the chain) with no waiters (a non-empty queue keeps
// the head sealed), the release is one CAS emptying the word. The word's
// epoch — bumped by every publish AND every fast grant — makes any
// interleaved grant fail the CAS, including a same-mode grant whose bit
// would not change. Returns (released, pooled): on released==false nothing
// happened and the caller must take the slow path; pooled==false means the
// release succeeded but a racing grant re-chained ahead of the (already
// cleared) entry before it could be unlinked, so the entry must NOT be
// reused until a sealed section prunes it (finishHeadLocked repools it).
func (m *Manager) tryFastRelease(e *holderEntry) (bool, bool) {
	mode := e.mode()
	if int(mode) >= len(m.ft.bit) {
		return false, false
	}
	bit := m.ft.bit[mode]
	h := e.head
	h.inflight.Add(1)
	w := h.word.Load()
	if w&wordSealed != 0 || w&wordModeMask != bit ||
		h.holders.Load() != e || e.next.Load() != nil {
		h.inflight.Add(-1)
		return false, false
	}
	if !h.word.CompareAndSwap(w, nextWord(0, w, false)) {
		h.inflight.Add(-1)
		return false, false
	}
	e.txp.Store(nil) // invisible to every reader from here on
	pooled := h.holders.CompareAndSwap(e, nil)
	h.inflight.Add(-1)
	if s := h.stripe; s.emptySeen.Add(1) >= gcInterval {
		s.lock()
		m.gcStripeLocked(s)
		s.unlock()
	}
	return true, pooled
}

// releaseOne unlinks one granted entry and sweeps its head. The entry is
// left for the caller to recycle (it is unreachable once unlinked).
func (m *Manager) releaseOne(e *holderEntry) {
	h := e.head
	s := h.stripe
	s.lock()
	sealHeadLocked(h)
	unlinkHolder(h, e)
	e.txp.Store(nil)
	m.sweepLocked(s, h)
	m.finishHeadLocked(s, h)
	s.unlock()
}

// ReleaseShort releases the locks tx acquired only with short duration —
// the end-of-operation release for isolation levels uncommitted and
// committed read. Short entries are never cache hits, so the lock cache
// stays valid across this partial release. Only the owner converts its
// entries, so reading the short flag under tx.mu alone is sound.
func (m *Manager) ReleaseShort(tx *Tx) {
	var short []*holderEntry
	tx.mu.Lock()
	for res, e := range tx.held {
		if e.isShort() {
			short = append(short, e)
			delete(tx.held, res)
		}
	}
	tx.mu.Unlock()
	if len(short) > 0 {
		m.releaseEntries(short)
		tx.mu.Lock()
		m.repoolLocked(tx, short)
		tx.mu.Unlock()
	}
}

// HeldMode returns the mode tx holds on res (ModeNone if none) — a test and
// debugging aid. The entry state is atomic and only the owner converts it,
// so tx.mu alone suffices.
func (m *Manager) HeldMode(tx *Tx, res Resource) Mode {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if e := tx.held[res]; e != nil {
		return e.mode()
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
	hash := fnv1a(string(res))
	s := &m.stripes[hash&m.mask]
	s.mu.Lock() // read-only: no seqlock bump needed
	defer s.mu.Unlock()
	if h := s.index.lookup(res, hash); h != nil {
		return len(h.queueLocked())
	}
	return 0
}
