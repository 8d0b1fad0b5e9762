// Package core is the public API of the library: an embedded XML database
// engine in the spirit of XTC (the XML Transaction Coordinator), offering
// transactional DOM operations on taDOM-stored XML documents under any of
// the 11 lock protocols compared in "Contest of XML Lock Protocols"
// (VLDB 2006).
//
// A minimal session:
//
//	eng, err := core.Create(core.Config{})           // in-memory, taDOM3+
//	err = eng.Load(strings.NewReader("<bib>...</bib>"))
//	err = eng.Exec(core.Repeatable, func(s *core.Session) error {
//	    book, err := s.JumpToID("b42")
//	    if err != nil { return err }
//	    return s.SetAttribute(book.ID, "year", []byte("2006"))
//	})
//
// Exec retries automatically when the transaction is chosen as a deadlock
// victim, mirroring the restart behavior of the paper's TaMix clients.
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
	// Path stores the document in a file; empty means in-memory.
	Path string
	// RootName names the document root element (default "doc").
	RootName string
	// Protocol selects the lock protocol by its paper name (default
	// "taDOM3+", the contest winner). See Protocols() for the full list.
	Protocol string
	// LockDepth is the lock-depth parameter (default 7; negative =
	// unlimited, 0 = document locks).
	LockDepth *int
	// LockTimeout bounds lock waits (default 10s).
	LockTimeout time.Duration
	// Dist is the SPLID labeling gap for new documents.
	Dist uint32
	// BufferFrames sizes the page buffer.
	BufferFrames int
	// MaxRetries bounds Exec's deadlock-retry loop (default 10).
	MaxRetries int
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
	if c.MaxRetries <= 0 {
		c.MaxRetries = 10
	}
}

// Protocols returns the names of all available lock protocols in the
// paper's presentation order.
func Protocols() []string { return protocol.Names() }

// Engine is an embedded XML database instance: one document, one lock
// protocol, arbitrarily many concurrent transactions.
type Engine struct {
	cfg Config
	doc *storage.Document
	mgr *node.Manager
}

// Create builds a new engine with an empty document.
func Create(cfg Config) (*Engine, error) {
	cfg.fill()
	backend, err := makeBackend(cfg.Path)
	if err != nil {
		return nil, err
	}
	reg := metrics.NewRegistry()
	doc, err := storage.Create(backend, cfg.RootName, storage.Options{
		Dist:         cfg.Dist,
		BufferFrames: cfg.BufferFrames,
		Metrics:      reg,
	})
	if err != nil {
		return nil, err
	}
	return wrap(cfg, doc, reg)
}

// OpenFile reopens an engine over a document previously created with a
// file-backed Config.Path.
func OpenFile(cfg Config) (*Engine, error) {
	cfg.fill()
	if cfg.Path == "" {
		return nil, errors.New("core: OpenFile requires Config.Path")
	}
	backend, err := pagestore.OpenFile(cfg.Path)
	if err != nil {
		return nil, err
	}
	reg := metrics.NewRegistry()
	doc, err := storage.Open(backend, storage.Options{BufferFrames: cfg.BufferFrames, Metrics: reg})
	if err != nil {
		return nil, err
	}
	return wrap(cfg, doc, reg)
}

func makeBackend(path string) (pagestore.Backend, error) {
	if path == "" {
		return pagestore.NewMemBackend(), nil
	}
	return pagestore.OpenFile(path)
}

// Wrap builds an engine around an already-constructed document (for
// example, one produced by the TaMix bib generator). Its Metrics carry the
// lock.* and tx.* instruments only: the document's buffer pool reports to
// whatever registry the document was built with.
func Wrap(doc *storage.Document, cfg Config) (*Engine, error) {
	cfg.fill()
	return wrap(cfg, doc, metrics.NewRegistry())
}

func wrap(cfg Config, doc *storage.Document, reg *metrics.Registry) (*Engine, error) {
	p, err := protocol.ByName(cfg.Protocol)
	if err != nil {
		doc.Close()
		return nil, err
	}
	mgr := node.New(doc, p, node.Options{
		Depth:       *cfg.LockDepth,
		LockTimeout: cfg.LockTimeout,
		Metrics:     reg,
	})
	return &Engine{cfg: cfg, doc: doc, mgr: mgr}, nil
}

// Close flushes and closes the engine.
func (e *Engine) Close() error { return e.doc.Close() }

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

// Manager exposes the node manager for advanced use (TaMix drives it
// directly).
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

// Exec runs fn in a transaction at the given isolation level, committing on
// nil and aborting on error. If the transaction is aborted as a deadlock
// victim (or times out on a lock), Exec retries it, up to
// Config.MaxRetries attempts.
func (e *Engine) Exec(iso tx.Level, fn func(*Session) error) error {
	var lastErr error
	for attempt := 0; attempt < e.cfg.MaxRetries; attempt++ {
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
	return fmt.Errorf("core: transaction failed after %d attempts: %w", e.cfg.MaxRetries, lastErr)
}

// IsDeadlock reports whether err stems from a deadlock abort.
func IsDeadlock(err error) bool { return errors.Is(err, lock.ErrDeadlockVictim) }

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
