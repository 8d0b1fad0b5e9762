package tamix

import (
	"repro/internal/node"
	"repro/internal/tx"
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
}

func (e *localEngine) Begin() (Txn, error) { return e.m.Begin(e.iso), nil }

// Do unwraps the concrete transaction; mixing engines is a programming
// error, and the failed assertion panics loudly on it.
func (e *localEngine) Do(t Txn, op wire.Op, a wire.Args) (wire.Result, error) {
	return e.m.Do(t.(*tx.Txn), op, a)
}

func (e *localEngine) LookupName(name string) (xmlmodel.Sur, bool) {
	return e.m.Document().Vocabulary().Lookup(name)
}
