package node

import (
	"errors"
	"fmt"

	"repro/internal/lock"
	"repro/internal/protocol"
	"repro/internal/splid"
	"repro/internal/storage"
	"repro/internal/tx"
	"repro/internal/wire"
	"repro/internal/xmlmodel"
)

// op is one node operation in flight: the transaction it runs under, the
// view it reads — the transaction's frozen snapshot, or the live document
// through the transaction's leaf memory (Manager.live) — and its lock
// context. The context is nil when the operation takes no locks
// (lockPlan: a snapshot transaction's frozen view needs no isolation, and the
// weak isolation levels skip read or all locks) and every lock step below is
// then a no-op; that is what lets each operation be written once for every
// kind of transaction.
type op struct {
	m    *Manager
	t    *tx.Txn
	code wire.Op
	v    storage.Reader
	c    *protocol.Ctx
}

// impls binds every node-op row of the wire operation table to the code
// that runs it. Adding an operation is one row there, its implementation
// and entry here, and its typed spelling in wire.Ops; server dispatch,
// codec and TaMix engines follow from the table.
var impls = [wire.NumOps]func(op, wire.Args) (wire.Result, error){
	wire.OpGetNode:  op.getNode,
	wire.OpJumpToID: op.jumpToID,
	wire.OpFirstChild: func(o op, a wire.Args) (wire.Result, error) {
		return o.navigate(a.ID, protocol.EdgeFirstChild, storage.Reader.FirstChild)
	},
	wire.OpLastChild: func(o op, a wire.Args) (wire.Result, error) {
		return o.navigate(a.ID, protocol.EdgeLastChild, storage.Reader.LastChild)
	},
	wire.OpNextSibling: func(o op, a wire.Args) (wire.Result, error) {
		return o.navigate(a.ID, protocol.EdgeNextSibling, storage.Reader.NextSibling)
	},
	wire.OpPrevSibling: func(o op, a wire.Args) (wire.Result, error) {
		return o.navigate(a.ID, protocol.EdgePrevSibling, storage.Reader.PrevSibling)
	},
	wire.OpParent:                  op.parent,
	wire.OpGetChildren:             op.getChildren,
	wire.OpGetAttributes:           op.getAttributes,
	wire.OpValue:                   op.value,
	wire.OpAttributeValue:          op.attributeValue,
	wire.OpReadFragment:            op.readFragment,
	wire.OpReadFragmentForUpdate:   op.readFragmentForUpdate,
	wire.OpUpdateLastChildFragment: op.updateLastChildFragment,
	wire.OpSetValue:                op.setValue,
	wire.OpRename:                  op.rename,
	wire.OpAppendElement: func(o op, a wire.Args) (wire.Result, error) {
		return o.insert(a.ID, splid.Null, func(d storage.TxDoc, id splid.ID) (xmlmodel.Node, error) {
			return d.InsertElement(id, a.Name)
		})
	},
	wire.OpAppendText: func(o op, a wire.Args) (wire.Result, error) {
		return o.insert(a.ID, splid.Null, func(d storage.TxDoc, id splid.ID) (xmlmodel.Node, error) {
			return d.InsertText(id, a.Bytes)
		})
	},
	wire.OpInsertElementBefore: func(o op, a wire.Args) (wire.Result, error) {
		return o.insert(a.ID, a.ID2, func(d storage.TxDoc, id splid.ID) (xmlmodel.Node, error) {
			return d.InsertElement(id, a.Name)
		})
	},
	wire.OpSetAttribute:  op.setAttribute,
	wire.OpDeleteSubtree: op.deleteSubtree,
}

// Do executes one node operation named by its opcode — the entry point the
// server's dispatcher and the TaMix engines drive, and what every typed
// method (the embedded wire.Ops) forwards to. It is the one place an
// operation opens and closes: finished transactions are refused, update ops
// (the operation table's write class) are refused under a snapshot
// transaction, the isolation level decides whether the operation locks at
// all and for how long (lockPlan), and the short read locks of the weak
// isolation levels are released at the end (each call is one logical
// operation in the meta-lock sense; under repeatable read locks are held to
// commit).
func (m *Manager) Do(t *tx.Txn, code wire.Op, a wire.Args) (wire.Result, error) {
	if int(code) >= len(impls) || impls[code] == nil {
		return wire.Result{}, fmt.Errorf("node: %s is not a node operation", code)
	}
	if !t.Active() {
		return wire.Result{}, tx.ErrTxnDone
	}
	o := op{m: m, t: t, code: code}
	spec, _ := code.Spec()
	iso := t.Isolation()
	if iso == tx.LevelSnapshot {
		if spec.Write {
			return wire.Result{}, o.err(ErrReadOnly)
		}
		o.v = m.snap(t).Reader()
	} else {
		o.v = m.live(t)
	}
	// The two fragment reads that declare update intent are update ops, but
	// their locks (UpdateTree, the traversed edge) are read locks in an
	// update mode and follow the read rule.
	write := spec.Write && code != wire.OpReadFragmentForUpdate && code != wire.OpUpdateLastChildFragment
	if locks, short := lockPlan(iso, write); locks {
		o.c = m.ctx(t)
		o.c.Short = short
	}
	defer t.EndOperation()
	return impls[code](o, a)
}

// lockPlan is the isolation rule of the paper's footnote 5, which is the
// same under every protocol and therefore lives here, above them: level none
// takes no locks at all, uncommitted takes long write locks but no read
// locks, committed takes short read locks (released at operation end) and
// long write locks, repeatable holds every lock to commit; a snapshot
// transaction reads a frozen view and locks nothing. It reports whether an
// operation requesting write (else read) locks requests any, and whether
// they are short.
func lockPlan(iso tx.Level, write bool) (locks, short bool) {
	switch iso {
	case tx.LevelRepeatable:
		return true, false
	case tx.LevelCommitted:
		return true, !write
	case tx.LevelUncommitted:
		return write, false
	default:
		return false, false
	}
}

// err wraps a protocol/lock failure with the operation's name. Lock errors
// (deadlock victim, timeout) pass through errors.Is for the caller's
// abort-and-retry logic.
func (o op) err(err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("node: %s: %w", o.code, err)
}

// The lock steps: no-ops without a lock context.

func (o op) lockNode(id splid.ID, acc protocol.Access) error {
	if o.c == nil {
		return nil
	}
	return o.err(o.m.proto.ReadNode(o.c, id, acc))
}

func (o op) lockEdge(owner splid.ID, e protocol.Edge) error {
	if o.c == nil {
		return nil
	}
	return o.err(o.m.proto.ReadEdge(o.c, owner, e))
}

// levelLock is what a level read's lock step holds on the list it reads: a
// lock that covers every member (all: a protocol's level lock, or no lock
// context at all), or the labels named one by one by a protocol that locks
// each child (protocol.ListsChildren).
type levelLock struct {
	all   bool
	named []splid.ID
}

// readLevel runs a level read of owner's list: getChildren's, or the
// attributes under an attribute root, whose element el is set then. The lock
// step read-locks owner and all its children with one request (lockLevel).
// The result is read after the lock is granted — a writer the lock waited for
// may have changed the list — and is returned once every member is locked
// (relockLevel).
func (o op) readLevel(owner, el splid.ID, read func() ([]xmlmodel.Node, error)) (r wire.Result, err error) {
	l, err := o.lockLevel(owner, el)
	for again := true; again && err == nil; {
		if r.Nodes, err = read(); err == nil {
			again, err = o.relockLevel(owner, &l, r.Nodes)
		}
	}
	return r, err
}

// lockLevel is a level read's lock step. Only a protocol that locks each child
// needs the list, and only then does the step read it first (labels only, on
// a cursor closed before the lock manager is asked). Even "no attributes" must
// be a repeatable observation, so an element without an attribute root — one
// probe where the protocol needs no list — is locked itself.
func (o op) lockLevel(owner, el splid.ID) (levelLock, error) {
	if o.c == nil {
		return levelLock{all: true}, nil
	}
	l := levelLock{all: !o.m.proto.ListsChildren()}
	found := true
	var err error
	switch {
	case !l.all:
		l.named, found, err = o.v.ChildIDs(owner)
	case !el.IsNull():
		found, err = o.v.Exists(owner)
	}
	if err != nil {
		return levelLock{}, err
	}
	if !found && !el.IsNull() {
		return levelLock{}, o.lockNode(el, protocol.Navigate)
	}
	return l, o.err(o.m.proto.ReadLevel(o.c, owner, l.named))
}

// relockLevel checks a level read's result against what the lock step locked.
// A protocol that locks each child may hold nothing on a child of the result:
// the lock pass skips a child it finds half deleted, and the list may change
// while the lock waits — a deleter's abort restores a child, an inserter the
// lock waited for commits one. An attribute list whose element had no
// attribute root is covered by no lock at all. If got holds a member no lock
// covers, the level is locked again — with got's labels, or with the level
// lock — and again tells the caller to read once more; the lock now held keeps
// inserters out, so the next read agrees.
func (o op) relockLevel(owner splid.ID, l *levelLock, got []xmlmodel.Node) (again bool, err error) {
	if l.all || covers(l.named, got) {
		return false, nil
	}
	if l.all = !o.m.proto.ListsChildren(); !l.all {
		l.named = l.named[:0]
		for _, n := range got {
			l.named = append(l.named, n.ID)
		}
	}
	return true, o.err(o.m.proto.ReadLevel(o.c, owner, l.named))
}

// covers reports whether every node's label is in named; both are in
// document order.
func covers(named []splid.ID, nodes []xmlmodel.Node) bool {
	i := 0
	for _, n := range nodes {
		for i < len(named) && splid.Compare(named[i], n.ID) < 0 {
			i++
		}
		if i == len(named) || named[i] != n.ID {
			return false
		}
	}
	return true
}

func (o op) lockTree(id splid.ID, jump bool) error {
	if o.c == nil {
		return nil
	}
	return o.err(o.m.proto.ReadTree(o.c, id, access(jump)))
}

// lockUpdateTree declares update intent on the subtree (see
// readFragmentForUpdate).
func (o op) lockUpdateTree(id splid.ID, jump bool) error {
	if o.c == nil {
		return nil
	}
	return o.err(o.m.proto.UpdateTree(o.c, id, access(jump)))
}

// lockWrite isolates a content update of a text or attribute node.
func (o op) lockWrite(id splid.ID) error {
	if o.c == nil {
		return nil
	}
	return o.err(o.m.proto.WriteNode(o.c, id))
}

// access maps the jump flag of the fragment ops: index-based access to the
// fragment root versus step-by-step navigation.
func access(jump bool) protocol.Access {
	if jump {
		return protocol.Jump
	}
	return protocol.Navigate
}

// --- reads --------------------------------------------------------------------

// getNode reads one node by SPLID (navigational access).
func (o op) getNode(a wire.Args) (r wire.Result, err error) {
	if err = o.lockNode(a.ID, protocol.Navigate); err != nil {
		return r, err
	}
	r.Node, err = o.v.GetNode(a.ID)
	return r, err
}

// jumpToID resolves an ID-attribute value to its element (getElementById)
// and read-locks the target as a direct jump.
func (o op) jumpToID(a wire.Args) (r wire.Result, err error) {
	id, err := o.v.ElementByID([]byte(a.Name))
	if err != nil {
		return r, err
	}
	if err = o.lockNode(id, protocol.Jump); err != nil {
		return r, err
	}
	r.Node, err = o.v.GetNode(id)
	return r, err
}

// navigate factors the four sibling/child axes: lock the traversed logical
// edge, resolve it physically, then lock the target node.
func (o op) navigate(owner splid.ID, e protocol.Edge,
	resolve func(storage.Reader, splid.ID) (xmlmodel.Node, error)) (r wire.Result, err error) {
	if err = o.lockEdge(owner, e); err != nil {
		return r, err
	}
	n, err := resolve(o.v, owner)
	if err != nil || n.ID.IsNull() {
		return r, err // null: the edge leads nowhere; the edge lock isolates that fact
	}
	if err = o.lockNode(n.ID, protocol.Navigate); err != nil {
		return r, err
	}
	r.Node = n
	return r, nil
}

// parent returns the parent node (null-ID node for the root).
func (o op) parent(a wire.Args) (r wire.Result, err error) {
	p := a.ID.Parent()
	if p.IsNull() {
		return r, nil
	}
	if err = o.lockNode(p, protocol.Navigate); err != nil {
		return r, err
	}
	r.Node, err = o.v.GetNode(p)
	return r, err
}

// getChildren returns all regular children (getChildNodes): one level-read
// meta-lock.
func (o op) getChildren(a wire.Args) (wire.Result, error) {
	return o.readLevel(a.ID, splid.Null, func() ([]xmlmodel.Node, error) { return o.v.Children(a.ID) })
}

// getAttributes returns the attribute nodes of an element (getAttributes): a
// level read on the virtual attribute root covers all of them with one request.
func (o op) getAttributes(a wire.Args) (wire.Result, error) {
	return o.readLevel(a.ID.AttributeRoot(), a.ID, func() ([]xmlmodel.Node, error) { return o.v.AttributeNodes(a.ID) })
}

// value reads the character data of a text or attribute node.
func (o op) value(a wire.Args) (r wire.Result, err error) {
	if err = o.lockNode(a.ID, protocol.Navigate); err != nil {
		return r, err
	}
	r.Bytes, err = o.v.Value(a.ID)
	return r, err
}

// attributeValue reads one attribute of an element by name.
func (o op) attributeValue(a wire.Args) (r wire.Result, err error) {
	attr, err := o.v.AttributeByName(a.ID, a.Name)
	if err != nil {
		return r, err
	}
	if attr.ID.IsNull() {
		// A missing attribute is isolated by locking the element itself.
		return r, o.lockNode(a.ID, protocol.Navigate)
	}
	if err = o.lockNode(attr.ID, protocol.Navigate); err != nil {
		return r, err
	}
	r.Bytes, err = o.v.Value(attr.ID)
	return r, err
}

// readFragment reads the whole subtree under id in document order (the
// getFragment operation of Section 5.2), returning all regular nodes. jump
// marks index-based access to the fragment root.
func (o op) readFragment(a wire.Args) (r wire.Result, err error) {
	if err = o.lockTree(a.ID, a.Flag); err != nil {
		return r, err
	}
	r.Nodes, err = o.v.Subtree(a.ID)
	return r, err
}

// --- updates ----------------------------------------------------------------
//
// Update ops never run under a snapshot transaction (Do refuses them), so
// they read the live document. None of them reads a pre-image or registers
// an undo: the store's mutators state their own inverse and hand it to the
// transaction (storage.Document.For).

// setValue overwrites the character data of a text or attribute node.
func (o op) setValue(a wire.Args) (r wire.Result, err error) {
	if err = o.lockWrite(a.ID); err != nil {
		return r, err
	}
	return r, o.m.doc.For(o.t).SetValue(a.ID, a.Bytes)
}

// rename changes an element's name (DOM level 3 renameNode).
func (o op) rename(a wire.Args) (r wire.Result, err error) {
	if o.c != nil {
		if err = o.m.proto.Rename(o.c, a.ID); err != nil {
			return r, o.err(err)
		}
	}
	return r, o.m.doc.For(o.t).Rename(a.ID, a.Name)
}

// insertRetries bounds the revalidation loop of structural inserts. The
// position stabilizes as soon as the inserter holds the boundary locks, so
// more than a couple of iterations indicate a livelock; the transaction then
// aborts like a timeout victim.
const insertRetries = 8

// insert creates a child of parent in front of sibling `before` (a null
// `before` appends).
func (o op) insert(parent, before splid.ID,
	create func(storage.TxDoc, splid.ID) (xmlmodel.Node, error)) (r wire.Result, err error) {
	doc := o.m.doc
	leftOf := func() (xmlmodel.Node, error) {
		if before.IsNull() {
			return doc.LastChild(parent)
		}
		return doc.PrevSibling(before)
	}
	// The insert position is computed physically, then locked, then
	// revalidated: a concurrent inserter may have changed the child list
	// while this transaction blocked on the boundary locks.
	for attempt := 0; attempt < insertRetries; attempt++ {
		left, err := leftOf()
		if err != nil {
			return r, err
		}
		newID, err := doc.Allocator().Between(parent, left.ID, before)
		if err != nil {
			return r, err
		}
		if o.c != nil {
			if err := o.m.proto.Insert(o.c, parent, newID, left.ID, before); err != nil {
				return r, o.err(err)
			}
			check, err := leftOf()
			if err != nil {
				return r, err
			}
			if !check.ID.Equal(left.ID) {
				continue // position moved while blocking; relock the new slot
			}
		}
		r.Node, err = create(doc.For(o.t), newID)
		if errors.Is(err, storage.ErrNodeExists) {
			// Under the weak isolation levels no locks serialize inserters;
			// the storage latch rejected a racing twin. Recompute and retry.
			continue
		}
		if err != nil {
			return wire.Result{}, err
		}
		return r, nil
	}
	return wire.Result{}, o.err(lock.ErrLockTimeout)
}

// setAttribute creates or overwrites an attribute on an element.
func (o op) setAttribute(a wire.Args) (wire.Result, error) {
	// Attribute updates are writes below the element's attribute root; the
	// whole attribute compound is protected like a child insert/update.
	for attempt := 0; attempt < insertRetries; attempt++ {
		existing, err := o.m.doc.AttributeByName(a.ID, a.Name)
		if err != nil {
			return wire.Result{}, err
		}
		if existing.ID.IsNull() {
			// A new attribute is a structural insert under the virtual
			// attribute root. insert computes the SPLID with the same append
			// rule storage.SetAttribute uses, so the locked slot is the
			// stored slot.
			return o.insert(a.ID.AttributeRoot(), splid.Null, func(d storage.TxDoc, _ splid.ID) (xmlmodel.Node, error) {
				return d.SetAttribute(a.ID, a.Name, a.Bytes)
			})
		}
		if err := o.lockWrite(existing.ID); err != nil {
			return wire.Result{}, err
		}
		// The attribute was found by an unlocked read, so it may have been
		// another transaction's uncommitted insert, rolled back while this one
		// waited for the lock; like the structural inserts, look again.
		check, err := o.m.doc.AttributeByName(a.ID, a.Name)
		if err != nil {
			return wire.Result{}, err
		}
		if check.ID.Equal(existing.ID) {
			return wire.Result{}, o.m.doc.For(o.t).SetValue(existing.ID, a.Bytes)
		}
	}
	return wire.Result{}, o.err(lock.ErrLockTimeout)
}

// deleteSubtree removes the node and its whole subtree.
func (o op) deleteSubtree(a wire.Args) (r wire.Result, err error) {
	doc := o.m.doc
	if o.c != nil {
		// The neighbors are read only to name the navigation edges the
		// deletion invalidates.
		left, err := doc.PrevSibling(a.ID)
		if err != nil {
			return r, err
		}
		right, err := doc.NextSibling(a.ID)
		if err != nil {
			return r, err
		}
		if err = o.m.proto.DeleteTree(o.c, a.ID, left.ID, right.ID); err != nil {
			return r, o.err(err)
		}
	}
	_, err = doc.For(o.t).DeleteSubtree(a.ID)
	return r, err
}

// readFragmentForUpdate reads the subtree under id like ReadFragment but
// declares update intent: protocols with update modes (URIX's U, taDOM's
// SU) serialize intending writers up front, which prevents the symmetric
// read-then-convert deadlocks the paper attributes to lock conversion.
func (o op) readFragmentForUpdate(a wire.Args) (r wire.Result, err error) {
	if err = o.lockUpdateTree(a.ID, a.Flag); err != nil {
		return r, err
	}
	r.Nodes, err = o.m.doc.Subtree(a.ID)
	return r, err
}

// updateLastChildFragment navigates to the last child of id and reads its
// whole subtree with *declared update intent in one step*: the traversed
// edge is share-locked, then the target subtree is locked in the protocol's
// update mode (SU/U) directly — without first taking a node read lock that
// would make the update request conflict with other intending writers'
// reads. This is how a transaction that knows it will modify the fragment
// avoids the read-then-convert deadlock altogether.
func (o op) updateLastChildFragment(a wire.Args) (r wire.Result, err error) {
	if err = o.lockEdge(a.ID, protocol.EdgeLastChild); err != nil {
		return r, err
	}
	r.Node, err = o.m.doc.LastChild(a.ID)
	if err != nil || r.Node.ID.IsNull() {
		return r, err
	}
	if err = o.lockUpdateTree(r.Node.ID, false); err != nil {
		return wire.Result{}, err
	}
	r.Nodes, err = o.m.doc.Subtree(r.Node.ID)
	return r, err
}
