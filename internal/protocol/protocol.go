// Package protocol implements the meta-synchronization layer of Section 3.3
// and the paper's 11 XML concurrency control protocols:
//
//	*-2PL group:  Node2PL, NO2PL, OO2PL, Node2PLa
//	MGL* group:   IRX, IRIX, URIX
//	taDOM* group: taDOM2, taDOM2+, taDOM3, taDOM3+
//
// The node manager issues abstract meta-lock requests (read node, write
// node, read level, read/delete subtree, insert, rename, traverse edge);
// each Protocol maps them onto its own lock modes against the shared lock
// manager. Exchanging the Protocol exchanges the system's complete XML
// locking mechanism while storage, transactions, and workloads stay
// identical — the property that makes the paper's contest a fair one.
package protocol

import (
	"fmt"
	"sort"

	"repro/internal/lock"
	"repro/internal/splid"
	"repro/internal/tx"
)

// Access distinguishes how a node is reached: by navigation from its parent
// or by a direct jump (getElementById / index access). The *-2PL group uses
// special ID lock modes for jumps; all other protocols protect the ancestor
// path with intention locks in both cases.
type Access int

const (
	// Navigate reaches the node step-by-step from an already-locked parent.
	Navigate Access = iota
	// Jump reaches the node directly via an index.
	Jump
)

// Edge identifies a logical navigation edge of a node (Section 2: the edges
// that must be isolated so repeated traversals see identical paths).
type Edge int

const (
	// EdgeFirstChild is the parent -> first child edge.
	EdgeFirstChild Edge = iota
	// EdgeLastChild is the parent -> last child edge.
	EdgeLastChild
	// EdgeNextSibling is the node -> next sibling edge.
	EdgeNextSibling
	// EdgePrevSibling is the node -> previous sibling edge.
	EdgePrevSibling
)

// String implements fmt.Stringer.
func (e Edge) String() string {
	switch e {
	case EdgeFirstChild:
		return "firstChild"
	case EdgeLastChild:
		return "lastChild"
	case EdgeNextSibling:
		return "nextSibling"
	case EdgePrevSibling:
		return "prevSibling"
	default:
		return fmt.Sprintf("Edge(%d)", int(e))
	}
}

// TreeAccess provides the structural lookups some protocols need while
// locking: taDOM's fan-out conversions enumerate direct children, and the
// *-2PL protocols must find every element owning an ID attribute inside a
// subtree before deleting it. Implementations read the document physically,
// without taking locks (the protocol is in the middle of acquiring them).
type TreeAccess interface {
	// Children returns the SPLIDs of the regular children of id in document
	// order.
	Children(id splid.ID) ([]splid.ID, error)
	// ElementsWithIDAttribute returns the SPLIDs of all elements in the
	// subtree rooted at id (including id itself) that own an ID attribute.
	ElementsWithIDAttribute(id splid.ID) ([]splid.ID, error)
	// SubtreeNodes returns the SPLIDs of all regular nodes (elements and
	// texts, excluding attribute machinery) in the subtree rooted at id,
	// in document order. The *-2PL protocols lock them one by one when
	// deleting a subtree — the cost CLUSTER2 measures.
	SubtreeNodes(id splid.ID) ([]splid.ID, error)
}

// Ctx carries the per-engine state a protocol operates against.
type Ctx struct {
	// LM is the shared lock manager (built over this protocol's mode table).
	LM *lock.Manager
	// Txn is the acting transaction.
	Txn *tx.Txn
	// Depth is the lock-depth parameter: nodes deeper than Depth (root =
	// depth 0) are covered by a subtree lock at level Depth. Negative means
	// unlimited (always lock individual nodes).
	Depth int
	// Tree provides structural lookups.
	Tree TreeAccess
	// Short makes the read locks of the running operation short-duration
	// (released at operation end). The caller sets it per operation from the
	// transaction's isolation level — footnote 5's rule is the same for every
	// protocol, so it is decided once, where the context is built
	// (node.Manager.Do), which also never calls a protocol at all when the
	// level takes no lock for the operation. Write locks are always long.
	Short bool
}

// Protocol is one XML concurrency control protocol. Implementations are
// stateless (all state lives in the lock manager), so a single Protocol
// value serves all transactions of an engine.
type Protocol interface {
	// Name is the protocol's name as used in the paper ("taDOM3+", ...).
	Name() string
	// Group is the protocol family: "*-2PL", "MGL*", or "taDOM*".
	Group() string
	// DepthAware reports whether the protocol honors the lock-depth
	// parameter (the pure *-2PL protocols do not).
	DepthAware() bool
	// Table returns the protocol's lock mode table.
	Table() lock.ModeTable

	// ReadNode isolates read access to the node (navigation target or jump
	// target) including whatever path protection the protocol prescribes.
	ReadNode(c *Ctx, id splid.ID, acc Access) error
	// WriteNode isolates a content update of a text or attribute node.
	WriteNode(c *Ctx, id splid.ID) error
	// ReadLevel isolates getChildNodes/getAttributes: the node and all its
	// direct children. children is the current child list when ListsChildren
	// reports true, and nil otherwise.
	ReadLevel(c *Ctx, parent splid.ID, children []splid.ID) error
	// ListsChildren reports whether ReadLevel locks the children one by one
	// and so needs their labels (NO2PL, OO2PL, the MGL* group). A protocol
	// whose one lock on the parent covers the level — taDOM's LR, Node2PL's
	// T, Node2PLa's R — answers false, and its callers read no child list
	// before they lock.
	ListsChildren() bool
	// ReadTree isolates reading the whole subtree rooted at id.
	ReadTree(c *Ctx, id splid.ID, acc Access) error
	// UpdateTree isolates reading the subtree with declared intent to
	// modify it later — the update mode of the meta-lock interface
	// ("tree locks (shared, update, exclusive)"). Protocols without an
	// update mode (IRX, IRIX, the pure *-2PL variants) fall back to
	// ReadTree; URIX maps it to U, the taDOM* protocols to SU. Declared
	// update intent serializes would-be writers up front and thereby
	// avoids the symmetric read-then-convert deadlocks of Section 5.
	UpdateTree(c *Ctx, id splid.ID, acc Access) error
	// Insert isolates a structural insert of a new node (or subtree root)
	// with the given SPLID under parent, between siblings left and right
	// (either may be null at the ends of the child list).
	Insert(c *Ctx, parent, newID, left, right splid.ID) error
	// DeleteTree isolates deletion of the subtree rooted at id; left and
	// right are its neighboring siblings (null at the list ends), whose
	// navigation edges the deletion invalidates.
	DeleteTree(c *Ctx, id, left, right splid.ID) error
	// Rename isolates a DOM level 3 renameNode of an element.
	Rename(c *Ctx, id splid.ID) error
	// ReadEdge isolates traversal of one navigation edge of the node.
	ReadEdge(c *Ctx, id splid.ID, e Edge) error
}

// --- shared helpers --------------------------------------------------------

// nodeRes names a node's lock resource: its encoded label, as it is.
func nodeRes(id splid.ID) lock.Resource { return lock.Resource(id.Key()) }

// edgeSuffix tells an edge's resource from its owner's.
var edgeSuffix = [...]string{EdgeFirstChild: ":e0", EdgeLastChild: ":e1", EdgeNextSibling: ":e2", EdgePrevSibling: ":e3"}

// edgeRes names an edge lock resource.
func edgeRes(id splid.ID, e Edge) lock.Resource { return lock.Resource(id.Key() + edgeSuffix[e]) }

// lockOne acquires one lock respecting the transaction's lifecycle. Every
// lock a protocol takes goes through it, one at a time and in the order the
// builder issues them — ancestors root first, the discipline that keeps the
// protocols' own requests from deadlocking on a path.
func lockOne(c *Ctx, res lock.Resource, m lock.Mode, short bool) error {
	return c.LM.Lock(c.Txn.LockTx(), res, m, short)
}

// lockEach locks res(id) in mode m for every id, in order; the first error
// ends it.
func lockEach(c *Ctx, ids []splid.ID, res func(splid.ID) lock.Resource, m lock.Mode, short bool) error {
	for _, id := range ids {
		if err := lockOne(c, res(id), m, short); err != nil {
			return err
		}
	}
	return nil
}

// lockPathAndNode locks every proper ancestor of id (root first) in pathMode,
// then id itself in nodeMode — the common shape of every path-protecting
// lock request. Thanks to SPLIDs the path derives from the label alone — no
// document access (Section 3.2).
func lockPathAndNode(c *Ctx, id splid.ID, pathMode, nodeMode lock.Mode, short bool) error {
	if err := lockEach(c, id.Ancestors(), nodeRes, pathMode, short); err != nil {
		return err
	}
	return lockOne(c, nodeRes(id), nodeMode, short)
}

// lockBoundaryEdges exclusively locks (mode ex, long) the edges a structural
// change at a child-list position redirects: the neighbors' sibling edges
// and, at the list boundaries, the parent's first/last-child edges. cutoff
// is the lock depth from which subtree locks at the cut-off level cover the
// edges instead (negative: none does — the pure *-2PL protocols, or
// unlimited depth).
func lockBoundaryEdges(c *Ctx, ex lock.Mode, cutoff int, parent, left, right splid.ID) error {
	if cutoff >= 0 && level0(parent) >= cutoff {
		return nil
	}
	first := edgeRes(parent, EdgeFirstChild)
	if !left.IsNull() {
		first = edgeRes(left, EdgeNextSibling)
	}
	if err := lockOne(c, first, ex, false); err != nil {
		return err
	}
	if right.IsNull() {
		return lockOne(c, edgeRes(parent, EdgeLastChild), ex, false)
	}
	return lockOne(c, edgeRes(right, EdgePrevSibling), ex, false)
}

// level0 is the 0-based tree level used by the lock-depth parameter
// (depth 0 = document lock on the root).
func level0(id splid.ID) int { return id.Level() - 1 }

// depthTarget maps a node to the node actually locked under the protocol's
// lock-depth parameter: the node itself when shallow enough, else the
// ancestor at the cut-off level, which then carries a subtree lock.
func depthTarget(c *Ctx, id splid.ID) (target splid.ID, subtree bool) {
	if c.Depth < 0 || level0(id) <= c.Depth {
		return id, false
	}
	return id.AncestorAtLevel(c.Depth + 1), true
}

// --- registry --------------------------------------------------------------

var registry = map[string]Protocol{}

func register(p Protocol) Protocol {
	if _, dup := registry[p.Name()]; dup {
		panic("protocol: duplicate registration of " + p.Name())
	}
	registry[p.Name()] = p
	return p
}

// All returns the registered protocols in presentation order: the paper's
// 11 contestants followed by the snapshot-reads contestant.
func All() []Protocol {
	order := map[string]int{
		"Node2PL": 0, "NO2PL": 1, "OO2PL": 2, "Node2PLa": 3,
		"IRX": 4, "IRIX": 5, "URIX": 6,
		"taDOM2": 7, "taDOM2+": 8, "taDOM3": 9, "taDOM3+": 10,
		"snapshot": 11,
	}
	out := make([]Protocol, 0, len(registry))
	for _, p := range registry {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		oi, iok := order[out[i].Name()]
		oj, jok := order[out[j].Name()]
		if iok && jok {
			return oi < oj
		}
		if iok != jok {
			return iok
		}
		return out[i].Name() < out[j].Name()
	})
	return out
}

// Names returns all registered protocol names in presentation order.
func Names() []string {
	ps := All()
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Name()
	}
	return out
}
