package tamix

import (
	"sync"

	"repro/internal/node"
	"repro/internal/pagestore"
	"repro/internal/protocol"
	"repro/internal/tx"
	"repro/internal/wal"
	"repro/internal/wire"
	"repro/internal/xmlmodel"
)

// Txn is the transaction handle the workload drives. *tx.Txn satisfies it
// directly for in-process runs; the xtcd client's Txn satisfies it for
// remote runs.
type Txn interface {
	ID() uint64
	Commit() error
	Abort() error
}

// Engine is what the TaMix transaction bodies run against, abstracted so
// the same bodies drive either an in-process node manager or an xtcd server
// over the wire. Node operations are named by their opcode in the wire
// operation table, so an engine is one Do, not one method per operation.
// Error contracts carry over: deadlock-victim and lock-timeout failures
// satisfy node.IsAbortWorthy, vanished targets satisfy
// errors.Is(storage.ErrNodeNotFound).
type Engine interface {
	// Begin starts a transaction. The isolation level is fixed per engine:
	// every slot has its own, and the snapshot contestant's read-only slots
	// get theirs at tx.LevelSnapshot.
	Begin() (Txn, error)
	// Do executes one node operation under t.
	Do(t Txn, op wire.Op, a wire.Args) (wire.Result, error)
	// LookupName resolves a vocabulary name to its surrogate.
	LookupName(name string) (xmlmodel.Sur, bool)
}

// localEngine adapts a node.Manager (plus a fixed isolation level) to
// Engine.
type localEngine struct {
	m   *node.Manager
	iso tx.Level
	// txType and txTypes (lock.TxID -> TxType), when txTypes is set, register
	// every transaction the engine begins under its slot's TaMix type so the
	// run's deadlock observer can attribute victims.
	txType  TxType
	txTypes *sync.Map
}

func (e *localEngine) Begin() (Txn, error) {
	t := e.m.Begin(e.iso)
	if ltx := t.LockTx(); ltx != nil && e.txTypes != nil {
		e.txTypes.Store(ltx.ID(), e.txType)
	}
	return t, nil
}

// Do unwraps the concrete transaction; mixing engines is a programming
// error, and the failed assertion panics loudly on it.
func (e *localEngine) Do(t Txn, op wire.Op, a wire.Args) (wire.Result, error) {
	return e.m.Do(t.(*tx.Txn), op, a)
}

func (e *localEngine) LookupName(name string) (xmlmodel.Sur, bool) {
	return e.m.Document().Vocabulary().Lookup(name)
}

// BibEngine is a generated bib document under one protocol's node manager:
// the engine a local run drives and the one an xtcd server hosts per
// protocol.
type BibEngine struct {
	Mgr *node.Manager
	Cat *Catalog
	// Log is the attached write-ahead log (nil without one).
	Log *wal.Log
	// Faults is the injector around the document's backend (nil without
	// one). It is handed over disarmed, so generation ran fault-free.
	Faults *pagestore.FaultBackend
}

// NewBibEngine generates the bib document in memory and assembles the engine
// around it. opts.Metrics, when non-nil, receives every layer's instruments
// (buffer.*, wal.*, lock.*, tx.*, fault.*). A non-nil walCfg attaches an
// in-memory log that every commit forces; the snapshot contestant pins its
// read views to commit LSNs, so it gets a log (and page versioning) whatever
// the caller asked for. faults wraps the backend in a seeded injector.
func NewBibEngine(p protocol.Protocol, bib BibConfig, opts node.Options, walCfg *wal.Config, faults *pagestore.FaultConfig) (*BibEngine, error) {
	var backend pagestore.Backend = pagestore.NewMemBackend()
	var fb *pagestore.FaultBackend
	if faults != nil {
		fb = pagestore.NewFaultBackend(backend, *faults)
		fb.Disarm()
		backend = fb
	}
	faultStats := func() pagestore.FaultStats {
		if fb == nil {
			return pagestore.FaultStats{}
		}
		return fb.Stats()
	}
	opts.Metrics.Func("fault.injected", func() uint64 { return faultStats().TotalInjected() })
	opts.Metrics.Func("fault.torn_writes", func() uint64 { return faultStats().TornWrites })

	bib.Metrics = opts.Metrics
	doc, cat, err := GenerateBib(backend, bib)
	if err != nil {
		return nil, err
	}
	snapReads := protocol.UsesSnapshotReads(p)
	if snapReads && walCfg == nil {
		walCfg = &wal.Config{}
	}
	var log *wal.Log
	if walCfg != nil {
		wc := *walCfg
		wc.Metrics = opts.Metrics
		if log, err = wal.Open(wal.NewMemSegmentStore(), wc); err == nil {
			if err = doc.AttachWAL(log); err != nil {
				log.Close()
			}
		}
		if err != nil {
			doc.Close()
			return nil, err
		}
	}
	mgr := node.New(doc, p, opts)
	if log != nil {
		mgr.TxManager().SetWAL(log)
	}
	if snapReads {
		mgr.EnableSnapshotReads()
	}
	return &BibEngine{Mgr: mgr, Cat: cat, Log: log, Faults: fb}, nil
}

// Close tears the engine down in dependency order: the injector first (the
// final flush must reach the backend), the lock manager's detector, the
// document — its flush forces the log, which must still be open — then the
// log.
func (e *BibEngine) Close() error {
	if e.Faults != nil {
		e.Faults.Disarm()
	}
	e.Mgr.Close()
	err := e.Mgr.Document().Close()
	if e.Log != nil {
		if cerr := e.Log.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
