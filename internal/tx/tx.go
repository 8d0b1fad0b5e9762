// Package tx provides the transaction layer of the XDBMS: begin/commit/
// abort with logical undo logging, the four isolation levels of the
// paper's experiments (Section 4.3), and transaction statistics.
//
// Lock acquisition itself lives in the protocol layer; this package decides
// *when* locks are released (commit for repeatable read, operation end for
// the weaker levels) and guarantees that an aborting transaction undoes its
// document changes while still holding its locks.
package tx

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/lock"
	"repro/internal/metrics"
	"repro/internal/wal"
)

// Level is an isolation level. The ordering matches the paper: stronger
// levels give more consistency and (usually) less throughput.
type Level int

const (
	// LevelNone acquires no locks at all.
	LevelNone Level = iota
	// LevelUncommitted takes long write locks but no read locks.
	LevelUncommitted
	// LevelCommitted takes short read locks (released at operation end) and
	// long write locks.
	LevelCommitted
	// LevelRepeatable takes long read and write locks, released at commit —
	// the level all 11 protocols are compared under.
	LevelRepeatable
	// LevelSnapshot is MVCC snapshot isolation for read-only transactions:
	// Begin pins the WAL's newest commit-consistent LSN and every read
	// resolves pages as of that position through the version layer — zero
	// lock-manager traffic. Write operations are rejected; writers keep
	// their taDOM protocol at one of the locking levels above.
	LevelSnapshot
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case LevelNone:
		return "none"
	case LevelUncommitted:
		return "uncommitted"
	case LevelCommitted:
		return "committed"
	case LevelRepeatable:
		return "repeatable"
	case LevelSnapshot:
		return "snapshot"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// Status is a transaction's lifecycle state.
type Status int

const (
	// StatusActive means the transaction can still operate.
	StatusActive Status = iota
	// StatusCommitted is terminal and successful.
	StatusCommitted
	// StatusAborted is terminal; all changes were undone.
	StatusAborted
)

// ErrTxnDone is returned when finishing an already-finished transaction:
// Commit after Abort, Abort after Commit, or either one twice. The first
// outcome always stands.
var ErrTxnDone = errors.New("tx: transaction already finished")

// Txn is one transaction. A Txn is owned by a single goroutine; only the
// status accessors are safe for cross-goroutine use.
type Txn struct {
	id    uint64
	iso   Level
	mgr   *Manager
	ltx   *lock.Tx
	start time.Time

	mu     sync.Mutex
	status Status
	undo   [][]byte // logical undo payloads, in execution order

	// protoCtx caches the protocol-layer context for this transaction so the
	// node manager does not rebuild it on every DOM operation. The tx package
	// cannot import the protocol layer, hence the untyped slot. Owner
	// goroutine only.
	protoCtx any

	// snapLSN is the commit-consistent WAL position a LevelSnapshot
	// transaction reads at (0 otherwise, or when no WAL is attached).
	snapLSN uint64
	// snapView caches the storage-layer snapshot accessor, the snapshot
	// analogue of protoCtx: same untyped-slot pattern, same owner-goroutine
	// discipline.
	snapView any
	// leafHint caches the storage layer's leaf memory for the transaction's
	// live reads (a btree.Hint): same untyped-slot pattern, same
	// owner-goroutine discipline.
	leafHint any
}

// ID returns the transaction identifier.
func (t *Txn) ID() uint64 { return t.id }

// Isolation returns the transaction's isolation level.
func (t *Txn) Isolation() Level { return t.iso }

// LockTx exposes the lock-manager handle for the protocol layer. It is nil
// for isolation level none.
func (t *Txn) LockTx() *lock.Tx { return t.ltx }

// ProtoCtx returns the cached protocol context (nil until SetProtoCtx).
func (t *Txn) ProtoCtx() any { return t.protoCtx }

// SetProtoCtx caches the protocol context for reuse across operations.
func (t *Txn) SetProtoCtx(c any) { t.protoCtx = c }

// SnapshotLSN returns the WAL position a LevelSnapshot transaction reads
// at; 0 for every other level.
func (t *Txn) SnapshotLSN() uint64 { return t.snapLSN }

// SnapView returns the cached snapshot accessor (nil until SetSnapView).
func (t *Txn) SnapView() any { return t.snapView }

// SetSnapView caches the snapshot accessor for reuse across operations.
func (t *Txn) SetSnapView(v any) { t.snapView = v }

// LeafHint returns the cached leaf memory (nil until SetLeafHint).
func (t *Txn) LeafHint() any { return t.leafHint }

// SetLeafHint caches the leaf memory for reuse across operations.
func (t *Txn) SetLeafHint(h any) { t.leafHint = h }

// Start returns the begin time.
func (t *Txn) Start() time.Time { return t.start }

// Status returns the lifecycle state.
func (t *Txn) Status() Status {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.status
}

// Active reports whether the transaction can still operate.
func (t *Txn) Active() bool { return t.Status() == StatusActive }

// LogUndo records the logical inverse of one document mutation — the same
// payload the storage layer writes into the operation's log record (the
// transaction is the storage.UndoLog of its mutations). Abort replays the
// payloads in reverse order through the manager's undo applier while the
// transaction still holds every lock it acquired, so the compensations may
// touch the document without further synchronization.
func (t *Txn) LogUndo(payload []byte) {
	t.mu.Lock()
	t.undo = append(t.undo, payload)
	t.mu.Unlock()
}

// Manager creates and finishes transactions against one lock manager.
type Manager struct {
	lm     *lock.Manager
	wal    *wal.Log
	nextID atomic.Uint64
	// applyUndo executes one logical undo payload on behalf of a transaction
	// (SetUndoApplier); the applier recovery uses for losers.
	applyUndo func(txn uint64, payload []byte) error

	begun     atomic.Uint64
	committed atomic.Uint64
	aborted   atomic.Uint64

	// active tracks every transaction begun but not yet finished, for the
	// ActiveTxns snapshot checkpoints and diagnostics read. The WAL keeps
	// its own active-transaction table from the record stream (which only
	// sees transactions with logged work); this one also covers read-only
	// transactions that never log.
	activeMu sync.Mutex
	active   map[uint64]*Txn

	// snaps maps every active LevelSnapshot transaction to its pinned
	// snapshot LSN. snapMu is held across the wal.SnapshotLSN read AND the
	// registration in Begin, and across the min-scan in SnapshotWatermark —
	// that span is what makes the watermark sound: a pruner can never
	// compute a watermark above a snapshot that is about to register below
	// it.
	snapMu sync.Mutex
	snaps  map[uint64]uint64

	// Latency histograms (nil without SetMetrics): the Commit call (undo
	// discard + durability force + lock release) and the Abort call
	// (rollback + lock release).
	hCommit *metrics.Histogram
	hAbort  *metrics.Histogram
}

// NewManager builds a transaction manager over lm (which may be nil only if
// every transaction uses isolation level none).
func NewManager(lm *lock.Manager) *Manager {
	return &Manager{
		lm:     lm,
		active: make(map[uint64]*Txn),
		snaps:  make(map[uint64]uint64),
	}
}

// ActiveTxns returns the IDs of all transactions begun but not yet
// committed or aborted, in ascending order.
func (m *Manager) ActiveTxns() []uint64 {
	m.activeMu.Lock()
	out := make([]uint64, 0, len(m.active))
	for id := range m.active {
		out = append(out, id)
	}
	m.activeMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// dropActive removes a finished transaction from the active table.
func (m *Manager) dropActive(id uint64) {
	m.activeMu.Lock()
	delete(m.active, id)
	m.activeMu.Unlock()
}

// dropSnap unregisters a finished snapshot transaction, releasing its pin
// on the version-retirement watermark.
func (m *Manager) dropSnap(id uint64) {
	m.snapMu.Lock()
	delete(m.snaps, id)
	m.snapMu.Unlock()
}

// SnapshotWatermark returns the version-retirement watermark: the oldest
// LSN any active snapshot transaction reads at, or — with no snapshots
// active — the log's current commit-consistent position (every future
// snapshot will pin at or above it; the snapshot LSN is monotonic). Zero
// means "retire nothing" (no WAL attached). This is the function installed
// as the pagestore's snapshot source.
func (m *Manager) SnapshotWatermark() uint64 {
	m.snapMu.Lock()
	defer m.snapMu.Unlock()
	if len(m.snaps) > 0 {
		// LSN 0 is a valid pin (a snapshot begun before any logged commit),
		// so it cannot double as the "uninitialized" sentinel here.
		first := true
		var min uint64
		for _, s := range m.snaps {
			if first || s < min {
				min, first = s, false
			}
		}
		return min
	}
	if m.wal != nil {
		return m.wal.SnapshotLSN()
	}
	return 0
}

// SnapshotLeakCheck fails when snapshot transactions are still registered —
// the drain-time residue audit for the version layer, mirroring
// lock.Manager.LeakCheck.
func (m *Manager) SnapshotLeakCheck() error {
	m.snapMu.Lock()
	defer m.snapMu.Unlock()
	if n := len(m.snaps); n > 0 {
		return fmt.Errorf("tx: %d snapshot transaction(s) still pin the version watermark", n)
	}
	return nil
}

// LockManager returns the underlying lock manager.
func (m *Manager) LockManager() *lock.Manager { return m.lm }

// SetWAL attaches a write-ahead log: from now on Commit appends a commit
// record and forces the log before reporting success (durability), and
// Abort appends an end record after its rollback completes. Call before
// starting transactions; the same log must be attached to the document
// (storage.Document.AttachWAL) so operation records and commit records
// land in one sequence.
func (m *Manager) SetWAL(l *wal.Log) { m.wal = l }

// WAL returns the attached log (nil when logging is off).
func (m *Manager) WAL() *wal.Log { return m.wal }

// SetUndoApplier installs the function Abort replays a transaction's undo
// payloads through. The node manager installs storage.TxDoc.ApplyUndo on its
// document — the applier storage.Recover rolls losers back with — so the
// two rollbacks cannot drift apart. Call before starting transactions.
func (m *Manager) SetUndoApplier(apply func(txn uint64, payload []byte) error) {
	m.applyUndo = apply
}

// SetMetrics registers the transaction instruments on a registry: the tx.*
// counters (computed at snapshot time from the existing atomics) and
// commit/abort latency histograms. Call before starting transactions.
func (m *Manager) SetMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	m.hCommit = reg.Histogram("tx.commit")
	m.hAbort = reg.Histogram("tx.abort")
	reg.Func("tx.begun", m.begun.Load)
	reg.Func("tx.committed", m.committed.Load)
	reg.Func("tx.aborted", m.aborted.Load)
}

// Begin starts a transaction at the given isolation level.
func (m *Manager) Begin(iso Level) *Txn {
	m.begun.Add(1)
	t := &Txn{
		id:    m.nextID.Add(1),
		iso:   iso,
		mgr:   m,
		start: time.Now(),
	}
	if iso != LevelNone && iso != LevelSnapshot && m.lm != nil {
		t.ltx = m.lm.Begin()
	}
	if iso == LevelSnapshot {
		// Read the snapshot LSN and register under one snapMu hold: a
		// concurrent SnapshotWatermark either sees this entry or runs
		// before the read — it can never return a watermark above the LSN
		// this transaction is pinning.
		m.snapMu.Lock()
		if m.wal != nil {
			t.snapLSN = m.wal.SnapshotLSN()
		}
		m.snaps[t.id] = t.snapLSN
		m.snapMu.Unlock()
	}
	m.activeMu.Lock()
	m.active[t.id] = t
	m.activeMu.Unlock()
	return t
}

// Commit finishes the transaction successfully and releases all its locks.
// With a WAL attached, the commit record is appended and the log forced
// BEFORE the status flips: if durability fails (log crashed), the
// transaction stays active so the caller can still Abort it.
func (t *Txn) Commit() error {
	t.mu.Lock()
	if t.status != StatusActive {
		t.mu.Unlock()
		return ErrTxnDone
	}
	t.mu.Unlock()
	t0 := t.mgr.hCommit.Start()
	// Only transactions with logged work need a commit record. Snapshot
	// transactions never log; other read-only transactions skip the record
	// (and its log force) too — recovery ignores transactions it saw no
	// operations from, and an unearned record would advance the WAL's
	// snapshot position to an LSN no writer produced.
	if w := t.mgr.wal; w != nil && t.iso != LevelSnapshot && w.TxnLogged(t.id) {
		lsn, err := w.AppendCommit(t.id)
		if err == nil {
			err = w.Force(lsn)
		}
		if err != nil {
			return fmt.Errorf("tx %d: commit not durable: %w", t.id, err)
		}
	}
	t.mu.Lock()
	if t.status != StatusActive {
		t.mu.Unlock()
		return ErrTxnDone
	}
	t.status = StatusCommitted
	t.undo = nil
	t.mu.Unlock()
	t.mgr.dropActive(t.id)
	if t.iso == LevelSnapshot {
		t.mgr.dropSnap(t.id)
	}
	if t.ltx != nil {
		t.mgr.lm.ReleaseAll(t.ltx)
	}
	t.mgr.committed.Add(1)
	t.mgr.hCommit.Since(t0)
	return nil
}

// Abort undoes all changes in reverse order (still holding locks) and then
// releases the locks. All undo payloads are applied and the locks are
// released regardless of failures; every undo error is reported, aggregated
// with errors.Join, so a multi-step rollback cannot silently half-fail.
func (t *Txn) Abort() error {
	t.mu.Lock()
	if t.status != StatusActive {
		t.mu.Unlock()
		return ErrTxnDone
	}
	t.status = StatusAborted
	undo := t.undo
	t.undo = nil
	t.mu.Unlock()
	t.mgr.dropActive(t.id)
	if t.iso == LevelSnapshot {
		t.mgr.dropSnap(t.id)
	}
	t0 := t.mgr.hAbort.Start()

	var errs []error
	for i := len(undo) - 1; i >= 0; i-- {
		if err := t.mgr.applyUndo(t.id, undo[i]); err != nil {
			errs = append(errs, fmt.Errorf("tx %d: undo step %d: %w", t.id, i, err))
		}
	}
	if w := t.mgr.wal; w != nil && t.iso != LevelSnapshot && w.TxnLogged(t.id) {
		// Mark the rollback complete so recovery skips this transaction.
		// Best effort, not forced: a crashed log must not block lock
		// release, and an unlogged end just means recovery re-applies an
		// idempotent rollback. Transactions with no logged operations need
		// no end record — recovery never saw them.
		_, _ = w.AppendEnd(t.id)
	}
	if t.ltx != nil {
		// ReleaseAll marks the lock.Tx done, so a protocol context that
		// holds on to it gets lock.ErrTxDone, never a cached grant.
		t.mgr.lm.ReleaseAll(t.ltx)
	}
	t.mgr.aborted.Add(1)
	t.mgr.hAbort.Since(t0)
	return errors.Join(errs...)
}

// EndOperation marks the end of one logical operation: under the weak
// isolation levels (uncommitted, committed) the short-duration locks are
// released here, per the meta-lock interface of Section 3.3.
func (t *Txn) EndOperation() {
	if t.ltx == nil || t.iso == LevelRepeatable {
		return
	}
	t.mgr.lm.ReleaseShort(t.ltx)
}
