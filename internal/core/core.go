// Package core is the engine: one XML document in a page store, optionally a
// write-ahead log, and a node manager running transactions on it under any
// of the 11 lock protocols compared in "Contest of XML Lock Protocols" (VLDB
// 2006) — an embedded XML database in the spirit of XTC (the XML Transaction
// Coordinator). It is the library's public API and the one place that knows
// how the layers are assembled, restarted and torn down: the examples, the
// TaMix harnesses, the crash matrix's reopen, xtc and xtcd's engine factory
// all open their engine here (DESIGN.md, "Opening, restarting and closing an
// engine").
//
// A minimal durable session:
//
//	backend, err := pagestore.OpenFile("bib.xtc")
//	segs, err := wal.NewFileSegmentStore("bib.wal")
//	eng, err := core.Open(backend, segs, core.Config{RootName: "bib"})
//	defer eng.Close()
//	err = eng.Exec(core.Repeatable, func(s *core.Session) error {
//	    book, err := s.JumpToID("b42")
//	    if err != nil { return err }
//	    return s.SetAttribute(book.ID, "year", []byte("2006"))
//	})
//
// Open creates the document when the backend is empty and otherwise restarts
// it from the log, whether or not the last process closed it. Exec retries
// automatically when the transaction is chosen as a deadlock victim,
// mirroring the restart behavior of the paper's TaMix clients.
package core

import (
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/lock"
	"repro/internal/metrics"
	"repro/internal/node"
	"repro/internal/pagestore"
	"repro/internal/protocol"
	"repro/internal/splid"
	"repro/internal/storage"
	"repro/internal/tx"
	"repro/internal/wal"
	"repro/internal/xmlmodel"
)

// Re-exported isolation levels (Section 4.3 of the paper).
const (
	// None acquires no locks at all.
	None = tx.LevelNone
	// Uncommitted takes long write locks but no read locks.
	Uncommitted = tx.LevelUncommitted
	// Committed takes short read locks and long write locks.
	Committed = tx.LevelCommitted
	// Repeatable takes long read and write locks — the paper's comparison
	// level.
	Repeatable = tx.LevelRepeatable
)

// Node is a document node as returned by Session operations.
type Node = xmlmodel.Node

// ID is a stable path labeling identifier.
type ID = splid.ID

// Config configures an Engine.
type Config struct {
	// RootName names the root element of a document Open creates (default
	// "doc").
	RootName string
	// Protocol selects the lock protocol by its paper name (default
	// "taDOM3+", the contest winner). See Protocols() for the full list.
	Protocol string
	// LockDepth is the lock-depth parameter (default 7; negative =
	// unlimited, 0 = document locks).
	LockDepth *int
	// LockTimeout bounds lock waits (default 10s).
	LockTimeout time.Duration
	// OnDeadlock observes detected deadlocks.
	OnDeadlock func(lock.DeadlockInfo)
	// BufferFrames sizes the page buffer Open puts over the backend.
	BufferFrames int
	// Log tunes the write-ahead log opened over the segment store (segment
	// size, retention, the crash harnesses' fault plan); its Metrics field is
	// overridden with the engine's registry.
	Log wal.Config
}

func (c *Config) fill() {
	if c.RootName == "" {
		c.RootName = "doc"
	}
	if c.Protocol == "" {
		c.Protocol = "taDOM3+"
	}
	if c.LockDepth == nil {
		d := 7
		c.LockDepth = &d
	}
	if c.LockTimeout <= 0 {
		c.LockTimeout = 10 * time.Second
	}
}

// Protocols returns the names of all available lock protocols in the
// paper's presentation order.
func Protocols() []string { return protocol.Names() }

// Engine is an embedded XML database instance: one document, one lock
// protocol, arbitrarily many concurrent transactions.
type Engine struct {
	doc *storage.Document // its WAL() is the engine's log, nil without one
	mgr *node.Manager
	rep *storage.RecoveryReport
}

// Open opens an engine over a page backend and, with segs non-nil, the
// write-ahead log in that segment store. An empty backend gets a new document
// named Config.RootName; a log that already holds records is then an error,
// not history to ignore. A backend with pages is restarted from the log —
// always: restart is idempotent and bounded by the last checkpoint, so over a
// cleanly closed store it redoes and rolls back nothing, and over a crashed
// one it is what makes the pages a document again. Recovery reports what it
// did. Without a log the pages are opened as they are.
//
// The engine owns both arguments from here on; Close releases them.
func Open(backend pagestore.Backend, segs wal.SegmentStore, cfg Config) (*Engine, error) {
	cfg.fill()
	p, err := protocol.Parse(cfg.Protocol)
	if err != nil {
		return nil, err
	}
	reg := metrics.NewRegistry()
	log, err := openLog(segs, p, cfg.Log, reg)
	if err != nil {
		return nil, err
	}
	opts := storage.Options{BufferFrames: cfg.BufferFrames, Metrics: reg}
	var doc *storage.Document
	var rep *storage.RecoveryReport
	switch {
	case backend.NumPages() > 0 && log != nil:
		doc, rep, err = storage.Recover(backend, log, opts)
	case backend.NumPages() > 0:
		doc, err = storage.Open(backend, opts)
	case log != nil && log.NextLSN() > 1:
		err = errors.New("core: the log holds records but the page backend is empty")
	default:
		if doc, err = storage.Create(backend, cfg.RootName, opts); err == nil && log != nil {
			err = doc.AttachWAL(log)
		}
	}
	if err != nil {
		if log != nil {
			log.Close()
		}
		return nil, err
	}
	return assemble(doc, p, cfg, reg, rep), nil
}

// Wrap builds an engine around a document a generator has just built (the
// TaMix bib generator, typically) and, with segs non-nil, starts a log in that
// empty segment store: the document as handed over is the log's baseline. The
// engine reports into the registry the document was built with
// (storage.Options.Metrics), or one of its own without.
func Wrap(doc *storage.Document, segs wal.SegmentStore, cfg Config) (*Engine, error) {
	cfg.fill()
	p, err := protocol.Parse(cfg.Protocol)
	if err != nil {
		doc.Close()
		return nil, err
	}
	reg := doc.Store().Metrics()
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	log, err := openLog(segs, p, cfg.Log, reg)
	if err == nil && log != nil {
		if err = doc.AttachWAL(log); err != nil {
			log.Close()
		}
	}
	if err != nil {
		doc.Close()
		return nil, err
	}
	return assemble(doc, p, cfg, reg, nil), nil
}

// openLog opens the log over segs (nil: no log). The snapshot contestant pins
// its read views to commit LSNs, so it gets an in-memory log when the caller
// brought none.
func openLog(segs wal.SegmentStore, p protocol.Protocol, wc wal.Config, reg *metrics.Registry) (*wal.Log, error) {
	if segs == nil {
		if !protocol.UsesSnapshotReads(p) {
			return nil, nil
		}
		segs = wal.NewMemSegmentStore()
	}
	wc.Metrics = reg
	return wal.Open(segs, wc)
}

// assemble puts the node manager over a document whose log (if any) is
// already attached: the transaction manager writes commit and end records to
// that log, and the snapshot contestant gets its page versions. With it reg
// holds every layer's instruments: buffer.*, wal.*, lock.*, tx.* and fault.*
// (the fault plan of a pagestore.FaultBackend around the backend; zero
// without one).
func assemble(doc *storage.Document, p protocol.Protocol, cfg Config, reg *metrics.Registry, rep *storage.RecoveryReport) *Engine {
	mgr := node.New(doc, p, node.Options{
		Depth:       *cfg.LockDepth,
		LockTimeout: cfg.LockTimeout,
		OnDeadlock:  cfg.OnDeadlock,
		Metrics:     reg,
	})
	if log := doc.WAL(); log != nil {
		mgr.TxManager().SetWAL(log)
	}
	if protocol.UsesSnapshotReads(p) {
		mgr.EnableSnapshotReads()
	}
	fb, ok := doc.Store().Backend().(*pagestore.FaultBackend)
	if !ok {
		fb = &pagestore.FaultBackend{} // no plan: the fault.* counters read 0
	}
	reg.Func("fault.injected", fb.Plan.Injected)
	reg.Func("fault.torn_writes", fb.Plan.TornWrites)
	return &Engine{doc: doc, mgr: mgr, rep: rep}
}

// Close tears the engine down in dependency order: the lock manager's
// deadlock detector is stopped, the document is flushed and closed — its
// flush forces the log, which must still be open — and then the log.
// Transactions must have finished, and a fault plan the backend or the log
// consults must be disarmed, or the final flush meets its faults.
func (e *Engine) Close() error {
	e.mgr.Close()
	log := e.doc.WAL()
	err := e.doc.Close()
	if log != nil {
		if cerr := log.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Recovery reports the restart Open ran (nil when Open created the document
// or had no log, and for a wrapped engine).
func (e *Engine) Recovery() *storage.RecoveryReport { return e.rep }

// Load bulk-imports XML below the document root. It bypasses locking and
// must run before concurrent transactions start.
func (e *Engine) Load(r io.Reader) error { return e.doc.ImportXML(r) }

// ExportXML writes the subtree under id (or the whole document for the root
// ID) as indented XML. It reads the store directly, without locks; call it
// on a quiesced engine or accept fuzzy reads.
func (e *Engine) ExportXML(w io.Writer, id ID) error { return e.doc.ExportXML(w, id) }

// Root returns the document root ID.
func (e *Engine) Root() ID { return e.doc.Root() }

// ProtocolName returns the active lock protocol.
func (e *Engine) ProtocolName() string { return e.mgr.Protocol().Name() }

// Manager exposes the node manager (the harnesses drive it directly) and,
// through it, the document and its attached log.
func (e *Engine) Manager() *node.Manager { return e.mgr }

// Metrics returns a snapshot of the engine's registry: every layer's
// statistics under the name the layer registered — tx.committed, tx.aborted,
// lock.requests, lock.deadlocks, lock.conversion_deadlocks, buffer.hits,
// buffer.misses, … — plus the latency distributions (lock.wait, tx.commit).
func (e *Engine) Metrics() *metrics.Snapshot { return e.mgr.Metrics().Snapshot() }

// Size returns the current document size in stored nodes.
func (e *Engine) Size() int { return e.doc.Size() }

// Session is one transaction's view of the document. All methods follow the
// DOM-style operations of the node manager and acquire locks through the
// engine's protocol.
type Session struct {
	eng *Engine
	txn *tx.Txn
}

// Begin starts an explicit transaction; prefer Exec for automatic
// deadlock-retry handling.
func (e *Engine) Begin(iso tx.Level) *Session {
	return &Session{eng: e, txn: e.mgr.Begin(iso)}
}

// Commit finishes the session's transaction.
func (s *Session) Commit() error { return s.txn.Commit() }

// Abort rolls the session's transaction back.
func (s *Session) Abort() error { return s.txn.Abort() }

// maxRetries bounds Exec's deadlock-retry loop.
const maxRetries = 10

// Exec runs fn in a transaction at the given isolation level, committing on
// nil and aborting on error. If the transaction is aborted as a deadlock
// victim (or times out on a lock), Exec retries it, up to maxRetries
// attempts.
func (e *Engine) Exec(iso tx.Level, fn func(*Session) error) error {
	var lastErr error
	for attempt := 0; attempt < maxRetries; attempt++ {
		s := e.Begin(iso)
		err := fn(s)
		if err == nil {
			if err := s.Commit(); err == nil {
				return nil
			} else {
				lastErr = err
				continue
			}
		}
		s.Abort()
		if !node.IsAbortWorthy(err) {
			return err
		}
		lastErr = err
	}
	return fmt.Errorf("core: transaction failed after %d attempts: %w", maxRetries, lastErr)
}

// --- Session operations -----------------------------------------------------

// Root returns the document root ID.
func (s *Session) Root() ID { return s.eng.doc.Root() }

// GetNode reads a node by ID.
func (s *Session) GetNode(id ID) (Node, error) { return s.eng.mgr.GetNode(s.txn, id) }

// JumpToID jumps to the element carrying the given id attribute value.
func (s *Session) JumpToID(value string) (Node, error) { return s.eng.mgr.JumpToID(s.txn, value) }

// FirstChild navigates to the first child.
func (s *Session) FirstChild(id ID) (Node, error) { return s.eng.mgr.FirstChild(s.txn, id) }

// LastChild navigates to the last child.
func (s *Session) LastChild(id ID) (Node, error) { return s.eng.mgr.LastChild(s.txn, id) }

// NextSibling navigates to the following sibling.
func (s *Session) NextSibling(id ID) (Node, error) { return s.eng.mgr.NextSibling(s.txn, id) }

// PrevSibling navigates to the preceding sibling.
func (s *Session) PrevSibling(id ID) (Node, error) { return s.eng.mgr.PrevSibling(s.txn, id) }

// Parent navigates to the parent node.
func (s *Session) Parent(id ID) (Node, error) { return s.eng.mgr.Parent(s.txn, id) }

// Children returns all regular children (getChildNodes).
func (s *Session) Children(id ID) ([]Node, error) { return s.eng.mgr.GetChildren(s.txn, id) }

// Attributes returns the element's attribute nodes (getAttributes).
func (s *Session) Attributes(el ID) ([]Node, error) { return s.eng.mgr.GetAttributes(s.txn, el) }

// Value reads the character data of a text or attribute node.
func (s *Session) Value(id ID) ([]byte, error) { return s.eng.mgr.Value(s.txn, id) }

// AttributeValue reads one attribute by name (nil when absent).
func (s *Session) AttributeValue(el ID, name string) ([]byte, error) {
	return s.eng.mgr.AttributeValue(s.txn, el, name)
}

// ReadFragment reads the whole subtree under id in document order.
func (s *Session) ReadFragment(id ID) ([]Node, error) {
	return s.eng.mgr.ReadFragment(s.txn, id, false)
}

// Name resolves a node's name surrogate.
func (s *Session) Name(n Node) string { return s.eng.doc.Vocabulary().Name(n.Name) }

// SetValue overwrites a text or attribute node's character data.
func (s *Session) SetValue(id ID, value []byte) error {
	return s.eng.mgr.SetValue(s.txn, id, value)
}

// Rename renames an element (DOM level 3 renameNode).
func (s *Session) Rename(id ID, newName string) error {
	return s.eng.mgr.Rename(s.txn, id, newName)
}

// AppendElement inserts a new element as the last child of parent.
func (s *Session) AppendElement(parent ID, name string) (Node, error) {
	return s.eng.mgr.AppendElement(s.txn, parent, name)
}

// AppendText inserts a new text node as the last child of parent.
func (s *Session) AppendText(parent ID, value []byte) (Node, error) {
	return s.eng.mgr.AppendText(s.txn, parent, value)
}

// InsertElementBefore inserts a new element before an existing sibling.
func (s *Session) InsertElementBefore(parent, before ID, name string) (Node, error) {
	return s.eng.mgr.InsertElementBefore(s.txn, parent, before, name)
}

// SetAttribute creates or overwrites an attribute.
func (s *Session) SetAttribute(el ID, name string, value []byte) error {
	return s.eng.mgr.SetAttribute(s.txn, el, name, value)
}

// DeleteSubtree removes a node with its entire subtree.
func (s *Session) DeleteSubtree(id ID) error {
	return s.eng.mgr.DeleteSubtree(s.txn, id)
}
