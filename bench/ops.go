package main

import (
	"repro/internal/client"
	"repro/internal/node"
	"repro/internal/splid"
	"repro/internal/tx"
	"repro/internal/xmlmodel"
)

// ops is one worker's handle on the program under test: a session that holds
// at most one transaction. The transaction scripts are written once against
// it; remoteOps drives an xtcd session over the wire, localOps drives a
// node.Manager in-process, and tracedOps wraps either to record a span
// around every call.
type ops interface {
	Begin() error
	Commit() error
	Abort() error
	JumpToID(value string) (xmlmodel.Node, error)
	FirstChild(id splid.ID) (xmlmodel.Node, error)
	LastChild(id splid.ID) (xmlmodel.Node, error)
	NextSibling(id splid.ID) (xmlmodel.Node, error)
	GetChildren(id splid.ID) ([]xmlmodel.Node, error)
	GetAttributes(el splid.ID) ([]xmlmodel.Node, error)
	ReadFragment(id splid.ID, jump bool) ([]xmlmodel.Node, error)
	SetValue(id splid.ID, value []byte) error
	Rename(id splid.ID, newName string) error
	AppendElement(parent splid.ID, name string) (xmlmodel.Node, error)
	SetAttribute(el splid.ID, name string, value []byte) error
	DeleteSubtree(id splid.ID) error
}

// remoteOps is a client.Session plus its current transaction. The node
// operations are the session's own methods.
type remoteOps struct {
	*client.Session
	txn *client.Txn
}

func (r *remoteOps) Begin() (err error) {
	r.txn, err = r.Session.Begin()
	return err
}
func (r *remoteOps) Commit() error { return r.txn.Commit() }
func (r *remoteOps) Abort() error  { return r.txn.Abort() }

// localOps is a node.Manager plus the worker's current transaction.
type localOps struct {
	m   *node.Manager
	txn *tx.Txn
}

func (l *localOps) Begin() error {
	l.txn = l.m.Begin(tx.LevelRepeatable)
	return nil
}
func (l *localOps) Commit() error { return l.txn.Commit() }
func (l *localOps) Abort() error  { return l.txn.Abort() }
func (l *localOps) JumpToID(v string) (xmlmodel.Node, error) {
	return l.m.JumpToID(l.txn, v)
}
func (l *localOps) FirstChild(id splid.ID) (xmlmodel.Node, error) {
	return l.m.FirstChild(l.txn, id)
}
func (l *localOps) LastChild(id splid.ID) (xmlmodel.Node, error) {
	return l.m.LastChild(l.txn, id)
}
func (l *localOps) NextSibling(id splid.ID) (xmlmodel.Node, error) {
	return l.m.NextSibling(l.txn, id)
}
func (l *localOps) GetChildren(id splid.ID) ([]xmlmodel.Node, error) {
	return l.m.GetChildren(l.txn, id)
}
func (l *localOps) GetAttributes(el splid.ID) ([]xmlmodel.Node, error) {
	return l.m.GetAttributes(l.txn, el)
}
func (l *localOps) ReadFragment(id splid.ID, jump bool) ([]xmlmodel.Node, error) {
	return l.m.ReadFragment(l.txn, id, jump)
}
func (l *localOps) SetValue(id splid.ID, value []byte) error {
	return l.m.SetValue(l.txn, id, value)
}
func (l *localOps) Rename(id splid.ID, newName string) error {
	return l.m.Rename(l.txn, id, newName)
}
func (l *localOps) AppendElement(parent splid.ID, name string) (xmlmodel.Node, error) {
	return l.m.AppendElement(l.txn, parent, name)
}
func (l *localOps) SetAttribute(el splid.ID, name string, value []byte) error {
	return l.m.SetAttribute(l.txn, el, name, value)
}
func (l *localOps) DeleteSubtree(id splid.ID) error {
	return l.m.DeleteSubtree(l.txn, id)
}

// tracedOps records one span per call into the worker's recorder.
type tracedOps struct {
	in  ops
	rec *recorder
}

func (t *tracedOps) Begin() error {
	s := t.rec.now()
	err := t.in.Begin()
	t.rec.end(spBegin, s)
	return err
}
func (t *tracedOps) Commit() error {
	s := t.rec.now()
	err := t.in.Commit()
	t.rec.end(spCommit, s)
	return err
}
func (t *tracedOps) Abort() error {
	s := t.rec.now()
	err := t.in.Abort()
	t.rec.end(spAbort, s)
	return err
}
func (t *tracedOps) JumpToID(v string) (xmlmodel.Node, error) {
	s := t.rec.now()
	n, err := t.in.JumpToID(v)
	t.rec.end(spJumpToID, s)
	return n, err
}
func (t *tracedOps) FirstChild(id splid.ID) (xmlmodel.Node, error) {
	s := t.rec.now()
	n, err := t.in.FirstChild(id)
	t.rec.end(spFirstChild, s)
	return n, err
}
func (t *tracedOps) LastChild(id splid.ID) (xmlmodel.Node, error) {
	s := t.rec.now()
	n, err := t.in.LastChild(id)
	t.rec.end(spLastChild, s)
	return n, err
}
func (t *tracedOps) NextSibling(id splid.ID) (xmlmodel.Node, error) {
	s := t.rec.now()
	n, err := t.in.NextSibling(id)
	t.rec.end(spNextSibling, s)
	return n, err
}
func (t *tracedOps) GetChildren(id splid.ID) ([]xmlmodel.Node, error) {
	s := t.rec.now()
	ns, err := t.in.GetChildren(id)
	t.rec.end(spGetChildren, s)
	return ns, err
}
func (t *tracedOps) GetAttributes(el splid.ID) ([]xmlmodel.Node, error) {
	s := t.rec.now()
	ns, err := t.in.GetAttributes(el)
	t.rec.end(spGetAttributes, s)
	return ns, err
}
func (t *tracedOps) ReadFragment(id splid.ID, jump bool) ([]xmlmodel.Node, error) {
	s := t.rec.now()
	ns, err := t.in.ReadFragment(id, jump)
	t.rec.end(spReadFragment, s)
	return ns, err
}
func (t *tracedOps) SetValue(id splid.ID, value []byte) error {
	s := t.rec.now()
	err := t.in.SetValue(id, value)
	t.rec.end(spSetValue, s)
	return err
}
func (t *tracedOps) Rename(id splid.ID, newName string) error {
	s := t.rec.now()
	err := t.in.Rename(id, newName)
	t.rec.end(spRename, s)
	return err
}
func (t *tracedOps) AppendElement(parent splid.ID, name string) (xmlmodel.Node, error) {
	s := t.rec.now()
	n, err := t.in.AppendElement(parent, name)
	t.rec.end(spAppendElement, s)
	return n, err
}
func (t *tracedOps) SetAttribute(el splid.ID, name string, value []byte) error {
	s := t.rec.now()
	err := t.in.SetAttribute(el, name, value)
	t.rec.end(spSetAttribute, s)
	return err
}
func (t *tracedOps) DeleteSubtree(id splid.ID) error {
	s := t.rec.now()
	err := t.in.DeleteSubtree(id)
	t.rec.end(spDeleteSubtree, s)
	return err
}
