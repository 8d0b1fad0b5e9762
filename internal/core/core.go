// Package core is the engine: one XML document in a page store, optionally a
// write-ahead log, and a node manager running transactions on it under any
// of the 11 lock protocols compared in "Contest of XML Lock Protocols" (VLDB
// 2006) — an embedded XML database in the spirit of XTC (the XML Transaction
// Coordinator). It is the one place that knows how the layers are assembled,
// restarted and torn down: the TaMix harnesses, the crash matrix's reopen,
// xtc and xtcd's engine factory all open their engine here (DESIGN.md,
// "Opening, restarting and closing an engine"). Transactions run on the
// engine's node.Manager, whose typed operations are the one in-process
// spelling of the DOM operations (client.Session is the one over the wire).
//
// A minimal durable transaction:
//
//	backend, err := pagestore.OpenFile("bib.xtc")
//	segs, err := wal.NewFileSegmentStore("bib.wal")
//	eng, err := core.Open(backend, segs, core.Config{RootName: "bib"})
//	defer eng.Close()
//	m := eng.Manager()
//	txn := m.Begin(tx.LevelRepeatable)
//	book, err := m.JumpToID(txn, "b42")
//	err = m.SetAttribute(txn, book.ID, "year", []byte("2006"))
//	err = txn.Commit()
//
// Open creates the document when the backend is empty and otherwise restarts
// it from the log, whether or not the last process closed it. A transaction
// chosen as a deadlock victim or timed out on a lock fails with an error
// node.IsAbortWorthy accepts; the caller aborts it and may run it again, as
// the TaMix clients restart theirs.
package core

import (
	"errors"
	"io"
	"time"

	"repro/internal/metrics"
	"repro/internal/node"
	"repro/internal/pagestore"
	"repro/internal/protocol"
	"repro/internal/storage"
	"repro/internal/wal"
)

// Config configures an Engine.
type Config struct {
	// RootName names the root element of a document Open creates (default
	// "doc").
	RootName string
	// Protocol selects the lock protocol by its paper name (default
	// "taDOM3+", the contest winner); protocol.Names lists them all.
	Protocol string
	// LockDepth is the lock-depth parameter (default 7; negative =
	// unlimited, 0 = document locks).
	LockDepth *int
	// LockTimeout bounds lock waits (default 10s).
	LockTimeout time.Duration
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
	opts := storage.Options{Config: pagestore.Config{BufferFrames: cfg.BufferFrames, Metrics: reg}}
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

// Manager exposes the node manager (the harnesses drive it directly) and,
// through it, the document and its attached log.
func (e *Engine) Manager() *node.Manager { return e.mgr }

// Metrics returns a snapshot of the engine's registry: every layer's
// statistics under the name the layer registered — tx.committed, tx.aborted,
// lock.requests, lock.deadlocks, lock.conversion_deadlocks, buffer.hits,
// buffer.misses, … — plus the latency distributions (lock.wait, tx.commit).
func (e *Engine) Metrics() *metrics.Snapshot { return e.mgr.Metrics().Snapshot() }
