package tamix

import (
	"errors"
	"fmt"

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

// errRollback marks a transaction whose rollback failed. The document may then
// hold partial effects of an aborted transaction, so no caller goes on after
// it, whatever failure the rollback followed.
var errRollback = errors.New("abort")

// attempt is TaMix's one transaction step: Begin on eng, body, Commit, and a
// rollback when the body or the commit fails. It returns nil once the commit
// is acknowledged and otherwise the failure ("begin: …", "commit: …" or the
// body's error), or errRollback wrapping the rollback's own error.
func attempt(eng Engine, body func(Txn) error) error {
	t, err := eng.Begin()
	if err != nil {
		return fmt.Errorf("begin: %w", err)
	}
	if err = body(t); err == nil {
		if err = t.Commit(); err == nil {
			return nil
		}
		err = fmt.Errorf("commit: %w", err)
	}
	if aerr := t.Abort(); aerr != nil && !errors.Is(aerr, tx.ErrTxnDone) {
		return fmt.Errorf("%w: %w (after %v)", errRollback, aerr, err)
	}
	return err
}

// retryable reports whether an attempt's failure left nothing behind and
// may be run again: a deadlock victim or a lock timeout (node.IsAbortWorthy),
// rolled back.
func retryable(err error) bool {
	return node.IsAbortWorthy(err) && !errors.Is(err, errRollback)
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
