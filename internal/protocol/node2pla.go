package protocol

import (
	"repro/internal/lock"
	"repro/internal/splid"
)

// Node2PLa (Section 2.2, last paragraph): the paper's optimized *-2PL
// representative. It keeps the group's defining idea — every access is
// protected at the *parent* of the context node — but borrows URIX's
// intention locks to protect the ancestor paths of direct jumps (replacing
// the IDR/IDX machinery and its subtree scans) and honors the lock-depth
// parameter, which in turn introduces subtree locks.
//
// Consequences the experiments show and this implementation reproduces:
//
//   - Reads place IR (or, for fragment reads, subtree R) on the parent:
//     the protocol "reacts a level deeper" than the node-granular
//     protocols (Figure 10).
//   - Every write escalates to a subtree X on the parent — for
//     TArenameTopic that locks the whole topics level, which is why
//     Node2PLa "fails almost completely" there (Figure 10d).
//   - CLUSTER2 subtree deletes need no IDX scan: the intention path makes
//     them as cheap as in the MGL*/taDOM* groups (Figure 11).
type node2PLa struct {
	name         string
	table        *lock.Table
	ir, ix       lock.Mode
	r, rix, u, x lock.Mode
	es, eu, ex   lock.Mode
}

// Node2PLa is the optimized *-2PL representative.
var Node2PLa = register(newNode2PLa())

func newNode2PLa() *node2PLa {
	t, idx := buildTable(figure2Compat, figure2Conv, true) // URIX's matrices
	m := modes(idx, "IR", "IX", "R", "RIX", "U", "X", "ES", "EU", "EX")
	return &node2PLa{name: "Node2PLa", table: t,
		ir: m[0], ix: m[1], r: m[2], rix: m[3], u: m[4], x: m[5],
		es: m[6], eu: m[7], ex: m[8]}
}

// Name implements Protocol.
func (p *node2PLa) Name() string { return p.name }

// Group implements Protocol.
func (p *node2PLa) Group() string { return "*-2PL" }

// DepthAware implements Protocol.
func (p *node2PLa) DepthAware() bool { return true }

// Table implements Protocol.
func (p *node2PLa) Table() lock.ModeTable { return p.table }

// anchor returns the parent-focused lock target: the context node's parent,
// folded through the lock-depth parameter. The root anchors on itself.
func (p *node2PLa) anchor(c *Ctx, id splid.ID) (splid.ID, bool) {
	par := id.Parent()
	if par.IsNull() {
		par = id
	}
	return depthTarget(c, par)
}

// ReadNode implements Protocol: IR on the parent (R beyond lock depth), IR
// along the path — jumps included, that is the optimization over IDR.
func (p *node2PLa) ReadNode(c *Ctx, id splid.ID, acc Access) error {
	tgt, sub := p.anchor(c, id)
	m := p.ir
	if sub {
		m = p.r
	}
	return lockPathAndNode(c, tgt, p.ir, m, c.Short)
}

// WriteNode implements Protocol: subtree X on the parent — the group's
// coarse write granule.
func (p *node2PLa) WriteNode(c *Ctx, id splid.ID) error {
	return p.writeParent(c, id)
}

func (p *node2PLa) writeParent(c *Ctx, id splid.ID) error {
	tgt, _ := p.anchor(c, id)
	return lockPathAndNode(c, tgt, p.ix, p.x, false)
}

// ReadLevel implements Protocol: subtree R on the parent of the children —
// i.e. the context node itself.
func (p *node2PLa) ReadLevel(c *Ctx, parent splid.ID, children []splid.ID) error {
	tgt, _ := depthTarget(c, parent)
	return lockPathAndNode(c, tgt, p.ir, p.r, c.Short)
}

// ListsChildren implements Protocol: the subtree R covers the children.
func (p *node2PLa) ListsChildren() bool { return false }

// ReadTree implements Protocol: fragment reads anchor a subtree R on the
// parent of the fragment root — one level coarser than the MGL*/taDOM*
// protocols, the "reacts a level deeper" effect of Figure 10.
func (p *node2PLa) ReadTree(c *Ctx, id splid.ID, acc Access) error {
	tgt, _ := p.anchor(c, id)
	return lockPathAndNode(c, tgt, p.ir, p.r, c.Short)
}

// Insert implements Protocol: subtree X on the parent of the new node.
func (p *node2PLa) Insert(c *Ctx, parent, newID, left, right splid.ID) error {
	return p.writeParent(c, newID)
}

// DeleteTree implements Protocol: subtree X on the parent — intention locks
// make the IDX subtree scan of the pure *-2PL protocols unnecessary.
func (p *node2PLa) DeleteTree(c *Ctx, id, left, right splid.ID) error {
	return p.writeParent(c, id)
}

// Rename implements Protocol: the parent-level X means renaming a topic
// locks the whole topics subtree — the very large granules of Figure 10d.
func (p *node2PLa) Rename(c *Ctx, id splid.ID) error {
	return p.writeParent(c, id)
}

// ReadEdge implements Protocol: sibling order is protected by the parent
// locks, so Node2PLa needs no edge locks.
func (p *node2PLa) ReadEdge(c *Ctx, id splid.ID, e Edge) error { return nil }

// UpdateTree implements Protocol: U on the parent anchor.
func (p *node2PLa) UpdateTree(c *Ctx, id splid.ID, acc Access) error {
	tgt, _ := p.anchor(c, id)
	return lockPathAndNode(c, tgt, p.ir, p.u, c.Short)
}
