package protocol

import (
	"repro/internal/lock"
	"repro/internal/splid"
)

// The MGL* group (Section 2.2): multi-granularity locking adapted to XML
// trees. Compared with classical MGL, intention locks play a double role —
// they indicate read/write activity deeper in the tree AND lock the node
// itself (without its subtree); R and X are subtree locks. Direct jumps are
// protected by intention-locking the entire ancestor path (derived from the
// SPLID without document access), which is the group's key advantage over
// the *-2PL protocols.
//
// Three variants:
//
//	IRX  — one general intention mode I (hides reads and writes alike, so
//	       it must conflict with subtree reads: reader-blocks-reader).
//	IRIX — separate IR and IX intentions; without an RIX mode the
//	       conversion R+IX coarsens all the way to X.
//	URIX — IRIX plus the RIX and U modes of Figure 2 (matrices verbatim).

// mglProto implements the shared MGL behavior; mode fields differ per
// variant.
type mglProto struct {
	name       string
	table      *lock.Table
	ir, ix     lock.Mode // intention read / write (both = I for IRX)
	r, x       lock.Mode // subtree read / exclusive
	u          lock.Mode // update mode (URIX only, ModeNone otherwise)
	es, eu, ex lock.Mode
}

// IRX, IRIX, and URIX are the MGL* group protocols.
var (
	IRX  = register(newIRX())
	IRIX = register(newIRIX())
	URIX = register(newURIX())
)

func newIRX() *mglProto {
	compat := `
   I R X
I  + - -
R  - + -
X  - - -`
	// With a single general intention mode, a held I may hide *write*
	// activity deeper in the tree, so combining it with a subtree read can
	// only be expressed as X — single-intention locking converts coarsely.
	conv := `
   I R X
I  I X X
R  X R X
X  X X X`
	t, idx := buildTable(compat, conv, true)
	m := modes(idx, "I", "I", "R", "X", "ES", "EU", "EX")
	return &mglProto{name: "IRX", table: t,
		ir: m[0], ix: m[1], r: m[2], x: m[3], es: m[4], eu: m[5], ex: m[6]}
}

func newIRIX() *mglProto {
	compat := `
    IR IX R X
IR  +  +  + -
IX  +  +  - -
R   +  -  + -
X   -  -  - -`
	// Without an RIX mode, holding a subtree read and intending a write
	// below it can only be expressed as X — the coarsening URIX removes.
	conv := `
    IR IX R X
IR  IR IX R X
IX  IX IX X X
R   R  X  R X
X   X  X  X X`
	t, idx := buildTable(compat, conv, true)
	m := modes(idx, "IR", "IX", "R", "X", "ES", "EU", "EX")
	return &mglProto{name: "IRIX", table: t,
		ir: m[0], ix: m[1], r: m[2], x: m[3], es: m[4], eu: m[5], ex: m[6]}
}

// figure2Compat and figure2Conv are Figure 2 of the paper, verbatim (held
// mode = row, request = column): URIX's matrices, which Node2PLa borrows.
const figure2Compat = `
     IR IX R RIX U X
IR   +  +  + +   - -
IX   +  +  - -   - -
R    +  -  + -   - -
RIX  +  -  - -   - -
U    +  -  + -   - -
X    -  -  - -   - -`

const figure2Conv = `
     IR  IX  R   RIX U X
IR   IR  IX  R   RIX U X
IX   IX  IX  RIX RIX X X
R    R   RIX R   RIX R X
RIX  RIX RIX RIX RIX X X
U    U   X   U   X   U X
X    X   X   X   X   X X`

func newURIX() *mglProto {
	t, idx := buildTable(figure2Compat, figure2Conv, true)
	m := modes(idx, "IR", "IX", "R", "X", "U", "ES", "EU", "EX")
	return &mglProto{name: "URIX", table: t,
		ir: m[0], ix: m[1], r: m[2], x: m[3], u: m[4], es: m[5], eu: m[6], ex: m[7]}
}

// Name implements Protocol.
func (p *mglProto) Name() string { return p.name }

// Group implements Protocol.
func (p *mglProto) Group() string { return "MGL*" }

// DepthAware implements Protocol.
func (p *mglProto) DepthAware() bool { return true }

// Table implements Protocol.
func (p *mglProto) Table() lock.ModeTable { return p.table }

// ReadNode implements Protocol: IR on the node (or R on the lock-depth
// ancestor) plus IR along the ancestor path — identical for navigation and
// direct jumps.
func (p *mglProto) ReadNode(c *Ctx, id splid.ID, acc Access) error {
	tgt, sub := depthTarget(c, id)
	m := p.ir
	if sub {
		m = p.r
	}
	return lockPathAndNode(c, tgt, p.ir, m, c.Short)
}

// WriteNode implements Protocol: X on the node (whose subtree is just its
// string child) or on the lock-depth ancestor, with IX along the path.
func (p *mglProto) WriteNode(c *Ctx, id splid.ID) error {
	tgt, _ := depthTarget(c, id)
	return lockPathAndNode(c, tgt, p.ix, p.x, false)
}

// ReadLevel implements Protocol. MGL has no level locks: the parent and
// every child are locked individually (or the whole subtree once the
// lock depth is exceeded) — more requests for the same isolation,
// exactly the overhead taDOM's LR mode eliminates.
func (p *mglProto) ReadLevel(c *Ctx, parent splid.ID, children []splid.ID) error {
	tgt, sub := depthTarget(c, parent)
	if sub {
		return lockPathAndNode(c, tgt, p.ir, p.r, c.Short)
	}
	if err := lockPathAndNode(c, parent, p.ir, p.ir, c.Short); err != nil {
		return err
	}
	// The child list itself must be a repeatable observation: lock the
	// traversal edges too (taDOM's LR mode makes all of this one request).
	if err := lockOne(c, edgeRes(parent, EdgeFirstChild), p.es, c.Short); err != nil {
		return err
	}
	for _, ch := range children {
		chTgt, chSub := depthTarget(c, ch)
		m := p.ir
		if chSub {
			m = p.r
		}
		if err := lockOne(c, nodeRes(chTgt), m, c.Short); err != nil {
			return err
		}
		if !chSub {
			if err := lockOne(c, edgeRes(ch, EdgeNextSibling), p.es, c.Short); err != nil {
				return err
			}
		}
	}
	return nil
}

// ListsChildren implements Protocol: without level locks every child is
// locked by its label.
func (p *mglProto) ListsChildren() bool { return true }

// ReadTree implements Protocol: R on the subtree root plus IR on the path.
func (p *mglProto) ReadTree(c *Ctx, id splid.ID, acc Access) error {
	tgt, _ := depthTarget(c, id)
	return lockPathAndNode(c, tgt, p.ir, p.r, c.Short)
}

// Insert implements Protocol: X on the new node's slot, IX on the path, and
// exclusive locks on the navigation edges the insertion redirects.
func (p *mglProto) Insert(c *Ctx, parent, newID, left, right splid.ID) error {
	tgt, sub := depthTarget(c, newID)
	if err := lockPathAndNode(c, tgt, p.ix, p.x, false); err != nil {
		return err
	}
	if sub {
		return nil // edges inside the locked subtree are covered
	}
	return lockBoundaryEdges(c, p.ex, c.Depth, parent, left, right)
}

// DeleteTree implements Protocol: X on the subtree root, IX on the path,
// exclusive edge locks on the boundary. No subtree scan is needed — the
// group's decisive advantage in CLUSTER2.
func (p *mglProto) DeleteTree(c *Ctx, id, left, right splid.ID) error {
	tgt, sub := depthTarget(c, id)
	if err := lockPathAndNode(c, tgt, p.ix, p.x, false); err != nil {
		return err
	}
	if sub {
		return nil
	}
	return lockBoundaryEdges(c, p.ex, c.Depth, id.Parent(), left, right)
}

// Rename implements Protocol. MGL cannot separate a node's name from its
// content (Section 5.2): renaming locks the whole subtree exclusively.
func (p *mglProto) Rename(c *Ctx, id splid.ID) error {
	tgt, _ := depthTarget(c, id)
	return lockPathAndNode(c, tgt, p.ix, p.x, false)
}

// ReadEdge implements Protocol: a shared edge lock, unless the edge lies
// below the lock depth (then the covering subtree lock isolates it).
func (p *mglProto) ReadEdge(c *Ctx, id splid.ID, e Edge) error {
	if c.Depth >= 0 && level0(id) > c.Depth {
		return nil
	}
	return lockOne(c, edgeRes(id, e), p.es, c.Short)
}

// UpdateTree implements Protocol: U on the subtree root for URIX; IRX and
// IRIX have no update mode and fall back to a plain subtree read.
func (p *mglProto) UpdateTree(c *Ctx, id splid.ID, acc Access) error {
	if p.u == lock.ModeNone {
		return p.ReadTree(c, id, acc)
	}
	tgt, _ := depthTarget(c, id)
	return lockPathAndNode(c, tgt, p.ir, p.u, c.Short)
}
