// Package node implements XTC's node manager: the transactional DOM-style
// operation layer. Every public operation issues the meta-lock requests of
// Section 3.3 through the configured protocol before touching the document
// store; an update's logical inverse is recorded by the store itself, with
// the transaction (storage.Document.For), so aborting transactions roll back
// cleanly while still holding their locks.
//
// This is the layer the paper's meta-synchronization plugs into: exchanging
// the protocol value exchanges the complete locking mechanism underneath an
// unchanged DOM API.
package node

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/btree"
	"repro/internal/lock"
	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/splid"
	"repro/internal/storage"
	"repro/internal/tx"
	"repro/internal/wire"
	"repro/internal/xmlmodel"
)

// Options configure a Manager.
type Options struct {
	// Depth is the lock-depth parameter (negative = unlimited, i.e. always
	// lock individual nodes; 0 = document locks).
	Depth int
	// LockTimeout bounds lock waits (lock.DefaultTimeout when zero).
	LockTimeout time.Duration
	// Metrics, when non-nil, receives the lock manager's and transaction
	// manager's instruments (the lock.* and tx.* namespaces). Harnesses
	// pass the same registry into storage.Options so every layer reports
	// into one document.
	Metrics *metrics.Registry
}

// Manager executes transactional DOM operations on one document under one
// lock protocol. It is safe for concurrent use; each transaction must stay
// on a single goroutine.
type Manager struct {
	// Ops supplies the typed DOM methods — GetNode, FirstChild, SetValue, …:
	// each is Do with the operation's opcode and operands named.
	wire.Ops[*tx.Txn]

	doc   *storage.Document
	proto protocol.Protocol
	lm    *lock.Manager
	tm    *tx.Manager
	depth int
	reg   *metrics.Registry

	// snapReads is set by EnableSnapshotReads: copy-on-write page versioning
	// is active and tx.LevelSnapshot transactions read frozen views.
	snapReads atomic.Bool
}

// New builds a Manager for the document under the given protocol.
func New(doc *storage.Document, proto protocol.Protocol, opts Options) *Manager {
	lm := lock.NewManager(proto.Table(), lock.Options{
		Timeout: opts.LockTimeout,
		Metrics: opts.Metrics,
	})
	tm := tx.NewManager(lm)
	tm.SetMetrics(opts.Metrics)
	// One undo: Abort replays a transaction's payloads through the applier
	// storage.Recover rolls losers back with.
	tm.SetUndoApplier(func(txn uint64, payload []byte) error {
		return doc.ForTx(txn).ApplyUndo(payload)
	})
	m := &Manager{
		doc:   doc,
		proto: proto,
		lm:    lm,
		tm:    tm,
		depth: opts.Depth,
		reg:   opts.Metrics,
	}
	m.Ops.Do = m.Do
	return m
}

// Document exposes the underlying document (for tools and tests; access
// through it bypasses locking).
func (m *Manager) Document() *storage.Document { return m.doc }

// Protocol returns the active lock protocol.
func (m *Manager) Protocol() protocol.Protocol { return m.proto }

// LockManager exposes the lock manager.
func (m *Manager) LockManager() *lock.Manager { return m.lm }

// TxManager exposes the transaction manager.
func (m *Manager) TxManager() *tx.Manager { return m.tm }

// Metrics returns Options.Metrics, the registry the engine's statistics are
// read from by name (nil when the manager was built without one; a nil
// registry snapshots as empty).
func (m *Manager) Metrics() *metrics.Registry { return m.reg }

// Depth returns the configured lock depth.
func (m *Manager) Depth() int { return m.depth }

// Begin starts a transaction.
func (m *Manager) Begin(iso tx.Level) *tx.Txn { return m.tm.Begin(iso) }

// Close stops the lock manager's background deadlock detector. The manager
// must not be used afterwards.
func (m *Manager) Close() { m.lm.Close() }

// ctx returns the protocol context for one transaction, built once per
// transaction and cached on the Txn so every DOM operation reuses it (the
// per-transaction lock context: one Ctx, one lock.Tx, one lock cache).
func (m *Manager) ctx(t *tx.Txn) *protocol.Ctx {
	if c, ok := t.ProtoCtx().(*protocol.Ctx); ok && c.LM == m.lm {
		return c
	}
	c := &protocol.Ctx{LM: m.lm, Txn: t, Depth: m.depth, Tree: (*treeAccess)(m)}
	t.SetProtoCtx(c)
	return c
}

// ErrReadOnly is returned when an update operation runs under a
// tx.LevelSnapshot transaction: snapshot transactions read a frozen view
// and hold no locks, so they cannot write.
var ErrReadOnly = errors.New("snapshot transaction is read-only")

// EnableSnapshotReads switches on copy-on-write page versioning in the
// document's page store, feeding it the transaction manager's
// oldest-active-snapshot watermark so retired versions are pruned as
// snapshot transactions finish. Must be called before concurrent writers
// start (versions captured from then on are what snapshots can read).
func (m *Manager) EnableSnapshotReads() {
	m.doc.Store().SetSnapshotSource(m.tm.SnapshotWatermark)
	m.snapReads.Store(true)
}

// SnapshotsEnabled reports whether EnableSnapshotReads was called.
func (m *Manager) SnapshotsEnabled() bool { return m.snapReads.Load() }

// snap returns the transaction's frozen document view, building it on first
// use and caching it on the Txn (one Snapshot per transaction, like the
// protocol Ctx cache above).
func (m *Manager) snap(t *tx.Txn) *storage.Snapshot {
	if v, ok := t.SnapView().(*storage.Snapshot); ok {
		return v
	}
	v := m.doc.AtSnapshot(t.SnapshotLSN())
	t.SetSnapView(v)
	return v
}

// live returns the live document's reader with the transaction's leaf
// memory, made on first use and cached on the Txn like the snapshot view:
// each read starts at the leaf the transaction's previous read ended on.
func (m *Manager) live(t *tx.Txn) storage.Reader {
	h, ok := t.LeafHint().(*btree.Hint)
	if !ok {
		h = new(btree.Hint)
		t.SetLeafHint(h)
	}
	return m.doc.Reader().WithHint(h)
}

// Audit is the engine's post-run residue check, meaningful once every
// transaction has finished: the document must verify, the lock table must
// be empty, and — with snapshot reads on — every snapshot registration must
// be gone and, after a final prune at the drained watermark, no retired page
// version may survive. Local TaMix runs and the server's OpAudit both end
// with it.
func (m *Manager) Audit() error {
	if err := m.doc.Verify(); err != nil {
		return fmt.Errorf("document corrupted: %w", err)
	}
	if err := m.lm.LeakCheck(); err != nil {
		return fmt.Errorf("leaked locks: %w", err)
	}
	if !m.SnapshotsEnabled() {
		return nil
	}
	if err := m.tm.SnapshotLeakCheck(); err != nil {
		return fmt.Errorf("leaked snapshots: %w", err)
	}
	w := m.tm.SnapshotWatermark()
	m.doc.Store().PruneVersions(w)
	if n := m.doc.Store().StaleVersions(w); n > 0 {
		return fmt.Errorf("%d stale page versions retained below watermark %d", n, w)
	}
	return nil
}

// treeAccess adapts the Manager to protocol.TreeAccess: raw physical reads
// used by protocols while they acquire locks.
type treeAccess Manager

// Children implements protocol.TreeAccess.
func (a *treeAccess) Children(id splid.ID) ([]splid.ID, error) {
	ids, _, err := a.doc.ChildIDs(id)
	return ids, err
}

// ElementsWithIDAttribute implements protocol.TreeAccess: the *-2PL IDX
// scan — every element in the subtree owning an ID attribute, located
// through the document store (Section 5.3's expensive path).
func (a *treeAccess) ElementsWithIDAttribute(id splid.ID) ([]splid.ID, error) {
	var out []splid.ID
	idSur, ok := a.doc.Vocabulary().Lookup(storage.IDAttrName)
	if !ok {
		return nil, nil
	}
	err := a.doc.ScanSubtree(id, func(n xmlmodel.Node) bool {
		if n.Kind == xmlmodel.KindAttribute && n.Name == idSur {
			el := n.ID.Parent().Parent() // attribute -> attribute root -> element
			out = append(out, el)
		}
		return true
	})
	return out, err
}

// SubtreeNodes implements protocol.TreeAccess.
func (a *treeAccess) SubtreeNodes(id splid.ID) ([]splid.ID, error) {
	var out []splid.ID
	err := a.doc.ScanSubtree(id, func(n xmlmodel.Node) bool {
		if n.Kind == xmlmodel.KindElement || n.Kind == xmlmodel.KindText {
			out = append(out, n.ID)
		}
		return true
	})
	return out, err
}

// IsAbortWorthy reports whether err means the transaction should be aborted
// and retried (deadlock victim or lock timeout). Errors from other layers
// can opt in by carrying an `AbortWorthy() bool` method in their chain — the
// xtcd client marks a connection loss with a resumed session this way, so a
// remote workload's restart loop absorbs a server bounce exactly like a
// deadlock abort.
func IsAbortWorthy(err error) bool {
	if errors.Is(err, lock.ErrDeadlockVictim) || errors.Is(err, lock.ErrLockTimeout) {
		return true
	}
	var aw interface{ AbortWorthy() bool }
	return errors.As(err, &aw) && aw.AbortWorthy()
}
