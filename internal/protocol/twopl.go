package protocol

import (
	"repro/internal/lock"
	"repro/internal/splid"
)

// The *-2PL group (Section 2.1, developed for Natix [13]). Three disjoint
// lock spaces are used: structure locks T (traverse) / M (modify) protecting
// navigation, content locks CS/CX protecting node values, and ID locks
// IDR/IDX protecting direct jumps via ID attributes. The group's defining
// weaknesses, reproduced here:
//
//   - Direct jumps are protected by IDR/IDX on the target only — no path
//     protection — so deleting a subtree must first *scan it* and IDX-lock
//     every element owning an ID attribute (the CLUSTER2 penalty).
//   - There are no subtree or intention modes, so isolating a fragment read
//     means locking node by node.
//
// Variants differ in granularity:
//
//	Node2PL — locks the *parent* of the context node, blocking the whole
//	          level for any structural update.
//	NO2PL   — locks only the nodes reachable from the context node.
//	OO2PL   — locks only the traversed/affected navigation edges: the most
//	          lock requests, the highest parallelism in the group.

// Resource namespaces for the three lock spaces.
func structRes(id splid.ID) lock.Resource  { return lock.Resource("s" + id.Key()) }
func contentRes(id splid.ID) lock.Resource { return lock.Resource("c" + id.Key()) }
func jumpRes(id splid.ID) lock.Resource    { return lock.Resource("j" + id.Key()) }

// twoPLTable builds the shared *-2PL mode table (Figure 1): three
// independent two-mode hierarchies. Cross-space cells are never consulted
// because the spaces use disjoint resource namespaces.
func twoPLTable() (*lock.Table, map[string]lock.Mode) {
	compat := `
     T M CS CX IDR IDX
T    + - -  -  -   -
M    - - -  -  -   -
CS   - - +  -  -   -
CX   - - -  -  -   -
IDR  - - -  -  +   -
IDX  - - -  -  -   -`
	conv := `
     T  M CS CX IDR IDX
T    T  M T  T  T   T
M    M  M M  M  M   M
CS   CS CS CS CX CS CS
CX   CX CX CX CX CX CX
IDR  IDR IDR IDR IDR IDR IDX
IDX  IDX IDX IDX IDX IDX IDX`
	return buildTable(compat, conv, true)
}

// twoPL carries the shared mode handles and per-variant behavior flags.
type twoPL struct {
	name       string
	table      *lock.Table
	t, m       lock.Mode // structure traverse / modify
	cs, cx     lock.Mode // content shared / exclusive
	idr, idx   lock.Mode // ID-jump read / exclusive
	es, eu, ex lock.Mode // edge modes (OO2PL)
	style      int       // 0 = Node2PL, 1 = NO2PL, 2 = OO2PL
}

const (
	styleNode2PL = iota
	styleNO2PL
	styleOO2PL
)

// Node2PL, NO2PL, and OO2PL are the *-2PL protocols (Node2PLa, the
// intention-enhanced representative, lives in node2pla.go).
var (
	Node2PL = register(newTwoPL("Node2PL", styleNode2PL))
	NO2PL   = register(newTwoPL("NO2PL", styleNO2PL))
	OO2PL   = register(newTwoPL("OO2PL", styleOO2PL))
)

func newTwoPL(name string, style int) *twoPL {
	t, idx := twoPLTable()
	m := modes(idx, "T", "M", "CS", "CX", "IDR", "IDX", "ES", "EU", "EX")
	return &twoPL{
		name: name, table: t, style: style,
		t: m[0], m: m[1], cs: m[2], cx: m[3], idr: m[4], idx: m[5],
		es: m[6], eu: m[7], ex: m[8],
	}
}

// Name implements Protocol.
func (p *twoPL) Name() string { return p.name }

// Group implements Protocol.
func (p *twoPL) Group() string { return "*-2PL" }

// DepthAware implements Protocol: the pure *-2PL protocols have no lock
// depth parameter.
func (p *twoPL) DepthAware() bool { return false }

// Table implements Protocol.
func (p *twoPL) Table() lock.ModeTable { return p.table }

// ReadNode implements Protocol. Jumps take IDR on the target (no path!);
// navigation leaves T locks on the path (Figure 1) — on the ancestors for
// Node2PL/NO2PL, on nothing for OO2PL (edges carry its read protection) —
// plus a shared content lock on the node itself for NO2PL/OO2PL.
func (p *twoPL) ReadNode(c *Ctx, id splid.ID, acc Access) error {
	if acc == Jump {
		if err := lockOne(c, jumpRes(id), p.idr, c.Short); err != nil {
			return err
		}
	}
	// Reading a node's value always takes a shared content lock.
	if err := lockOne(c, contentRes(id), p.cs, c.Short); err != nil {
		return err
	}
	switch p.style {
	case styleNode2PL:
		return p.lockAncestorsT(c, id)
	case styleNO2PL:
		if err := p.lockAncestorsT(c, id); err != nil {
			return err
		}
		return lockOne(c, structRes(id), p.t, c.Short)
	default: // OO2PL: structure is protected by edge locks alone
		return nil
	}
}

func (p *twoPL) lockAncestorsT(c *Ctx, id splid.ID) error {
	anc := id.Ancestors()
	reqs := c.reqBuf(len(anc))
	for _, a := range anc {
		reqs = append(reqs, lock.Req{Res: structRes(a), Mode: p.t, Short: c.Short})
	}
	return lockBatch(c, reqs)
}

// WriteNode implements Protocol: a content-exclusive lock; structure locks
// are not involved in pure value updates.
func (p *twoPL) WriteNode(c *Ctx, id splid.ID) error {
	return lockOne(c, contentRes(id), p.cx, false)
}

// ReadLevel implements Protocol: without level or intention locks, reading
// a child list costs one structure lock on the parent plus per-child locks
// for the finer variants.
func (p *twoPL) ReadLevel(c *Ctx, parent splid.ID, children []splid.ID) error {
	switch p.style {
	case styleNode2PL:
		if err := p.lockAncestorsT(c, parent); err != nil {
			return err
		}
		return lockOne(c, structRes(parent), p.t, c.Short)
	case styleNO2PL:
		reqs := make([]lock.Req, 0, len(children)+1)
		reqs = append(reqs, lock.Req{Res: structRes(parent), Mode: p.t, Short: c.Short})
		for _, ch := range children {
			reqs = append(reqs, lock.Req{Res: structRes(ch), Mode: p.t, Short: c.Short})
		}
		return lockBatch(c, reqs)
	default: // OO2PL: the traversal edges
		reqs := make([]lock.Req, 0, 2*len(children)+1)
		reqs = append(reqs, lock.Req{Res: edgeRes(parent, EdgeFirstChild), Mode: p.es, Short: c.Short})
		for _, ch := range children {
			reqs = append(reqs,
				lock.Req{Res: contentRes(ch), Mode: p.cs, Short: c.Short},
				lock.Req{Res: edgeRes(ch, EdgeNextSibling), Mode: p.es, Short: c.Short})
		}
		return lockBatch(c, reqs)
	}
}

// ListsChildren implements Protocol: Node2PL's parent lock covers the level;
// NO2PL and OO2PL lock each child.
func (p *twoPL) ListsChildren() bool { return p.style != styleNode2PL }

// ReadTree implements Protocol. With no subtree modes, fragment isolation
// degenerates to node-by-node locking of the whole subtree.
func (p *twoPL) ReadTree(c *Ctx, id splid.ID, acc Access) error {
	if acc == Jump {
		if err := lockOne(c, jumpRes(id), p.idr, c.Short); err != nil {
			return err
		}
	}
	nodes, err := c.Tree.SubtreeNodes(id)
	if err != nil {
		return err
	}
	switch p.style {
	case styleNode2PL, styleNO2PL:
		if err := p.lockAncestorsT(c, id); err != nil {
			return err
		}
		reqs := make([]lock.Req, 0, 2*len(nodes))
		for _, n := range nodes {
			reqs = append(reqs,
				lock.Req{Res: structRes(n), Mode: p.t, Short: c.Short},
				lock.Req{Res: contentRes(n), Mode: p.cs, Short: c.Short})
		}
		return lockBatch(c, reqs)
	default: // OO2PL
		reqs := make([]lock.Req, 0, 3*len(nodes))
		for _, n := range nodes {
			reqs = append(reqs,
				lock.Req{Res: contentRes(n), Mode: p.cs, Short: c.Short},
				lock.Req{Res: edgeRes(n, EdgeFirstChild), Mode: p.es, Short: c.Short},
				lock.Req{Res: edgeRes(n, EdgeNextSibling), Mode: p.es, Short: c.Short})
		}
		return lockBatch(c, reqs)
	}
}

// Insert implements Protocol.
func (p *twoPL) Insert(c *Ctx, parent, newID, left, right splid.ID) error {
	switch p.style {
	case styleNode2PL:
		// M on the parent blocks the entire level of the context node.
		return lockOne(c, structRes(parent), p.m, false)
	case styleNO2PL:
		// Only the nodes reachable from the insert position.
		return p.lockNeighborsM(c, parent, left, right)
	default: // OO2PL: only the affected navigation edges.
		return lockBoundaryEdges(c, p.ex, -1, parent, left, right)
	}
}

func (p *twoPL) lockNeighborsM(c *Ctx, parent, left, right splid.ID) error {
	if !left.IsNull() {
		if err := lockOne(c, structRes(left), p.m, false); err != nil {
			return err
		}
	}
	if !right.IsNull() {
		if err := lockOne(c, structRes(right), p.m, false); err != nil {
			return err
		}
	}
	if left.IsNull() || right.IsNull() {
		// The parent's first/last-child pointer changes.
		return lockOne(c, structRes(parent), p.m, false)
	}
	return nil
}

// DeleteTree implements Protocol — the CLUSTER2 experiment. Because jumps
// carry no path protection, the subtree must be searched for elements owning
// ID attributes and each must be IDX-locked before removal; additionally the
// entire subtree is locked node by node (M, or all edges for OO2PL). These
// location steps run through the node manager and may touch disk — the
// reason the group takes roughly twice as long as everyone else (Figure 11).
func (p *twoPL) DeleteTree(c *Ctx, id, left, right splid.ID) error {
	idOwners, err := c.Tree.ElementsWithIDAttribute(id)
	if err != nil {
		return err
	}
	idReqs := make([]lock.Req, len(idOwners))
	for i, el := range idOwners {
		idReqs[i] = lock.Req{Res: jumpRes(el), Mode: p.idx}
	}
	if err := lockBatch(c, idReqs); err != nil {
		return err
	}
	nodes, err := c.Tree.SubtreeNodes(id)
	if err != nil {
		return err
	}
	switch p.style {
	case styleNode2PL:
		reqs := make([]lock.Req, 0, len(nodes)+1)
		reqs = append(reqs, lock.Req{Res: structRes(id.Parent()), Mode: p.m})
		for _, n := range nodes {
			reqs = append(reqs, lock.Req{Res: structRes(n), Mode: p.m})
		}
		return lockBatch(c, reqs)
	case styleNO2PL:
		if err := p.lockNeighborsM(c, id.Parent(), left, right); err != nil {
			return err
		}
		reqs := make([]lock.Req, len(nodes))
		for i, n := range nodes {
			reqs[i] = lock.Req{Res: structRes(n), Mode: p.m}
		}
		return lockBatch(c, reqs)
	default: // OO2PL
		if err := lockBoundaryEdges(c, p.ex, -1, id.Parent(), left, right); err != nil {
			return err
		}
		reqs := make([]lock.Req, 0, 5*len(nodes))
		for _, n := range nodes {
			reqs = append(reqs, lock.Req{Res: contentRes(n), Mode: p.cx})
			for _, e := range []Edge{EdgeFirstChild, EdgeLastChild, EdgeNextSibling, EdgePrevSibling} {
				reqs = append(reqs, lock.Req{Res: edgeRes(n, e), Mode: p.ex})
			}
		}
		return lockBatch(c, reqs)
	}
}

// Rename implements Protocol: the group has no tailored mode for renames.
func (p *twoPL) Rename(c *Ctx, id splid.ID) error {
	switch p.style {
	case styleNode2PL:
		// M on the parent: the whole level blocks.
		return lockOne(c, structRes(id.Parent()), p.m, false)
	case styleNO2PL:
		return lockOne(c, structRes(id), p.m, false)
	default: // OO2PL: name treated as content.
		return lockOne(c, contentRes(id), p.cx, false)
	}
}

// ReadEdge implements Protocol: only OO2PL locks traversed edges; the node
// variants cover navigation with their structure locks.
func (p *twoPL) ReadEdge(c *Ctx, id splid.ID, e Edge) error {
	if p.style != styleOO2PL {
		return nil
	}
	return lockOne(c, edgeRes(id, e), p.es, c.Short)
}

// UpdateTree implements Protocol: the *-2PL lock spaces have no update
// modes; declared intent degenerates to the plain subtree read.
func (p *twoPL) UpdateTree(c *Ctx, id splid.ID, acc Access) error {
	return p.ReadTree(c, id, acc)
}
