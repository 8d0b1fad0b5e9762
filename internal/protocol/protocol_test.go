package protocol

import (
	"strings"
	"testing"

	"repro/internal/lock"
	"repro/internal/splid"
	"repro/internal/tx"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"Node2PL", "NO2PL", "OO2PL", "Node2PLa",
		"IRX", "IRIX", "URIX",
		"taDOM2", "taDOM2+", "taDOM3", "taDOM3+",
		"snapshot",
	}
	got := Names()
	if len(got) != 12 {
		t.Fatalf("registered %d protocols: %v", len(got), got)
	}
	for i, name := range want {
		if got[i] != name {
			t.Errorf("protocol %d = %s, want %s", i, got[i], name)
		}
		p, err := Parse(name)
		if err != nil || p.Name() != name {
			t.Errorf("Parse(%s): %v", name, err)
		}
	}
	if _, err := Parse("nope"); err == nil {
		t.Error("unknown protocol should error")
	}
}

func TestGroups(t *testing.T) {
	groups := map[string]string{
		"Node2PL": "*-2PL", "NO2PL": "*-2PL", "OO2PL": "*-2PL", "Node2PLa": "*-2PL",
		"IRX": "MGL*", "IRIX": "MGL*", "URIX": "MGL*",
		"taDOM2": "taDOM*", "taDOM2+": "taDOM*", "taDOM3": "taDOM*", "taDOM3+": "taDOM*",
	}
	depth := map[string]bool{
		"Node2PL": false, "NO2PL": false, "OO2PL": false, "Node2PLa": true,
		"IRX": true, "IRIX": true, "URIX": true,
		"taDOM2": true, "taDOM2+": true, "taDOM3": true, "taDOM3+": true,
	}
	for name, g := range groups {
		p, _ := Parse(name)
		if p.Group() != g {
			t.Errorf("%s group = %s, want %s", name, p.Group(), g)
		}
		if p.DepthAware() != depth[name] {
			t.Errorf("%s DepthAware = %v", name, p.DepthAware())
		}
	}
}

// TestTaDOM2MatchesPaperFigures verifies the generated taDOM2 table against
// the verbatim matrices of Figures 3a and 4.
func TestTaDOM2MatchesPaperFigures(t *testing.T) {
	p := TaDOM2.(*tadomProto)
	header, compatRows := parseMatrix(taDOM2Figure3a)
	for _, row := range compatRows {
		held := p.idx[row[0]]
		for c, cell := range row[1:] {
			req := p.idx[header[c]]
			want := cell == "+"
			if got := p.table.Compatible(held, req); got != want {
				t.Errorf("compat(%s, %s) = %v, Figure 3a says %v", row[0], header[c], got, want)
			}
		}
	}
	_, convRows := parseMatrix(taDOM2Figure4)
	for _, row := range convRows {
		held := p.idx[row[0]]
		for c, cell := range row[1:] {
			req := p.idx[header[c]]
			want := p.idx[cell]
			if got := p.table.Convert(held, req); got != want {
				t.Errorf("convert(%s, %s) = %s, Figure 4 says %s",
					row[0], header[c], p.table.Name(got), cell)
			}
		}
	}
}

// TestTableInvariants checks the structural properties every protocol's
// matrices must satisfy.
func TestTableInvariants(t *testing.T) {
	for _, p := range All() {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			tab := p.Table().(*lock.Table)
			n := tab.NumModes()
			for a := lock.Mode(1); int(a) < n; a++ {
				// Conversion is reflexive and never weakens below either input.
				if tab.Convert(a, a) != a {
					t.Errorf("Convert(%s,%s) != %s", tab.Name(a), tab.Name(a), tab.Name(a))
				}
				for b := lock.Mode(1); int(b) < n; b++ {
					c := tab.Convert(a, b)
					if c == lock.ModeNone {
						t.Fatalf("Convert(%s,%s) = none", tab.Name(a), tab.Name(b))
					}
					// taDOM2/taDOM3 fan-out conversions (Figure 4's IX_NR,
					// CX_NR, IX_SR, CX_SR) intentionally weaken the node
					// lock: the lost coverage is rebuilt as explicit child
					// locks by the protocol layer, which this table-level
					// check cannot see.
					if isFanoutCell(p.Name(), tab, a, b) {
						continue
					}
					// The converted mode must be at least as restrictive as
					// both inputs: whatever conflicts with a or b must
					// conflict with c.
					for x := lock.Mode(1); int(x) < n; x++ {
						if !tab.Compatible(a, x) && tab.Compatible(c, x) &&
							sameNamespace(tab, a, b, x) {
							t.Errorf("%s absorbs %s but Convert=%s re-admits %s",
								tab.Name(a), tab.Name(b), tab.Name(c), tab.Name(x))
						}
						if !tab.Compatible(b, x) && tab.Compatible(c, x) &&
							sameNamespace(tab, a, b, x) {
							t.Errorf("request %s on held %s: Convert=%s re-admits %s",
								tab.Name(b), tab.Name(a), tab.Name(c), tab.Name(x))
						}
					}
				}
			}
		})
	}
}

// isFanoutCell reports whether (held, req) is one of the subscripted
// conversion cells of the non-plus taDOM protocols, where the table result
// is deliberately weaker and the protocol layer compensates with child
// locks.
func isFanoutCell(proto string, tab *lock.Table, a, b lock.Mode) bool {
	if proto != "taDOM2" && proto != "taDOM3" {
		return false
	}
	an, bn := tab.Name(a), tab.Name(b)
	levelOrSub := func(s string) bool { return s == "LR" || s == "SR" }
	intent := func(s string) bool { return s == "IX" || s == "CX" }
	return levelOrSub(an) && intent(bn) || intent(an) && levelOrSub(bn)
}

// sameNamespace filters the cross-namespace placeholder cells of the *-2PL
// tables (structure/content/ID locks live on disjoint resources, so their
// cross conversions are never consulted).
func sameNamespace(tab *lock.Table, ms ...lock.Mode) bool {
	space := func(m lock.Mode) int {
		name := tab.Name(m)
		switch {
		case name == "T" || name == "M":
			return 1
		case name == "CS" || name == "CX":
			return 2
		case strings.HasPrefix(name, "ID"):
			return 3
		case strings.HasPrefix(name, "E") && len(name) == 2:
			return 4
		default:
			return 0
		}
	}
	s := space(ms[0])
	for _, m := range ms[1:] {
		if space(m) != s {
			return false
		}
	}
	return true
}

// TestExclusiveModesConflictWithEverything: each protocol's strongest mode
// admits nothing within its namespace.
func TestExclusiveModesConflictWithEverything(t *testing.T) {
	cases := map[string]string{
		"IRX": "X", "IRIX": "X", "URIX": "X", "Node2PLa": "X",
		"taDOM2": "SX", "taDOM2+": "SX", "taDOM3": "SX", "taDOM3+": "SX",
	}
	for name, xname := range cases {
		p, _ := Parse(name)
		tab := p.Table().(*lock.Table)
		var x lock.Mode
		for m := lock.Mode(1); int(m) < tab.NumModes(); m++ {
			if tab.Name(m) == xname {
				x = m
			}
		}
		if x == lock.ModeNone {
			t.Fatalf("%s: mode %s not found", name, xname)
		}
		for m := lock.Mode(1); int(m) < tab.NumModes(); m++ {
			if strings.HasPrefix(tab.Name(m), "E") && len(tab.Name(m)) == 2 {
				continue // edge namespace
			}
			if tab.Compatible(x, m) || tab.Compatible(m, x) {
				t.Errorf("%s: %s compatible with %s", name, xname, tab.Name(m))
			}
		}
	}
}

// fakeTree is a TreeAccess over a static structure description.
type fakeTree struct {
	children map[string][]string
	idOwners map[string][]string
	subtrees map[string][]string
}

func (f *fakeTree) Children(id splid.ID) ([]splid.ID, error) {
	return parseAll(f.children[id.String()]), nil
}
func (f *fakeTree) ElementsWithIDAttribute(id splid.ID) ([]splid.ID, error) {
	return parseAll(f.idOwners[id.String()]), nil
}
func (f *fakeTree) SubtreeNodes(id splid.ID) ([]splid.ID, error) {
	if ss, ok := f.subtrees[id.String()]; ok {
		return parseAll(ss), nil
	}
	return []splid.ID{id}, nil // leaf subtree: just the node itself
}
func parseAll(ss []string) []splid.ID {
	out := make([]splid.ID, len(ss))
	for i, s := range ss {
		out[i] = splid.MustParse(s)
	}
	return out
}

// harness builds a lock manager + two transactions for one protocol.
type harness struct {
	p    Protocol
	lm   *lock.Manager
	tm   *tx.Manager
	tree *fakeTree
}

func newHarness(t *testing.T, name string) *harness {
	t.Helper()
	p, err := Parse(name)
	if err != nil {
		t.Fatal(err)
	}
	lm := lock.NewManager(p.Table(), lock.Options{Timeout: 200 * 1e6}) // 200ms
	return &harness{
		p:  p,
		lm: lm,
		tm: tx.NewManager(lm),
		tree: &fakeTree{
			children: map[string][]string{
				"1.3.3": {"1.3.3.3", "1.3.3.5", "1.3.3.7"},
			},
			idOwners: map[string][]string{
				"1.3.3": {"1.3.3", "1.3.3.5"},
			},
			subtrees: map[string][]string{
				"1.3.3": {"1.3.3", "1.3.3.3", "1.3.3.5", "1.3.3.7"},
			},
		},
	}
}

func (h *harness) ctx(t *tx.Txn, depth int) *Ctx {
	return &Ctx{LM: h.lm, Txn: t, Depth: depth, Tree: h.tree}
}

// canBoth reports whether op2 under t2 succeeds after op1 under t1 (blocked
// requests fail via the 200ms timeout).
func (h *harness) canBoth(op1, op2 func(*Ctx) error) (bool, error) {
	t1 := h.tm.Begin(tx.LevelRepeatable)
	t2 := h.tm.Begin(tx.LevelRepeatable)
	defer t1.Abort()
	defer t2.Abort()
	if err := op1(h.ctx(t1, -1)); err != nil {
		return false, err
	}
	err := op2(h.ctx(t2, -1))
	if err == lock.ErrLockTimeout || err == lock.ErrDeadlockVictim {
		return false, nil
	}
	return err == nil, err
}

func TestReadersShareEverywhere(t *testing.T) {
	node := splid.MustParse("1.3.3.5")
	for _, name := range Names() {
		h := newHarness(t, name)
		ok, err := h.canBoth(
			func(c *Ctx) error { return h.p.ReadNode(c, node, Navigate) },
			func(c *Ctx) error { return h.p.ReadNode(c, node, Navigate) },
		)
		if err != nil {
			t.Errorf("%s: %v", name, err)
		} else if !ok {
			t.Errorf("%s: concurrent readers of the same node blocked", name)
		}
	}
}

func TestWriterExcludesReaderOfSameNode(t *testing.T) {
	// A content write and a fragment read of the same node must conflict
	// under every protocol at repeatable-read isolation.
	node := splid.MustParse("1.3.3.5")
	for _, name := range Names() {
		h := newHarness(t, name)
		ok, err := h.canBoth(
			func(c *Ctx) error { return h.p.WriteNode(c, node) },
			func(c *Ctx) error { return h.p.ReadTree(c, node, Navigate) },
		)
		if err != nil {
			t.Errorf("%s: %v", name, err)
		} else if ok {
			t.Errorf("%s: fragment read succeeded despite concurrent content write", name)
		}
	}
}

func TestSubtreeDeleteExcludesInnerReader(t *testing.T) {
	// T1 reads a node inside the subtree; T2 deletes the subtree: conflict.
	sub := splid.MustParse("1.3.3")
	inner := splid.MustParse("1.3.3.5")
	for _, name := range Names() {
		h := newHarness(t, name)
		ok, err := h.canBoth(
			func(c *Ctx) error { return h.p.ReadTree(c, inner, Navigate) },
			func(c *Ctx) error {
				return h.p.DeleteTree(c, sub, splid.Null, splid.MustParse("1.3.5"))
			},
		)
		if err != nil {
			t.Errorf("%s: %v", name, err)
		} else if ok {
			t.Errorf("%s: subtree delete succeeded under an inner fragment reader", name)
		}
	}
}

func TestJumpReaderBlocksDelete(t *testing.T) {
	// T1 jumps to an element inside the subtree (index access), T2 deletes
	// the subtree. Every protocol must detect the conflict — the *-2PL
	// group via the IDX scan, the others via the intention path.
	sub := splid.MustParse("1.3.3")
	inner := splid.MustParse("1.3.3.5") // owns an ID attribute in fakeTree
	for _, name := range Names() {
		h := newHarness(t, name)
		ok, err := h.canBoth(
			func(c *Ctx) error { return h.p.ReadTree(c, inner, Jump) },
			func(c *Ctx) error {
				return h.p.DeleteTree(c, sub, splid.Null, splid.MustParse("1.3.5"))
			},
		)
		if err != nil {
			t.Errorf("%s: %v", name, err)
		} else if ok {
			t.Errorf("%s: delete ignored a jumped-in reader", name)
		}
	}
}

func TestDisjointSubtreesDontConflict(t *testing.T) {
	// A reader in one book and a writer in another must not block in the
	// fine-granular protocols (the *-2PL parent-locking variants may be
	// coarser; Node2PL blocks same-level but not disjoint-parent nodes).
	readT := splid.MustParse("1.3.3.3.3")  // inside book 1 (parent 1.3.3.3)
	writeT := splid.MustParse("1.3.5.3.3") // inside book 2
	for _, name := range Names() {
		h := newHarness(t, name)
		ok, err := h.canBoth(
			func(c *Ctx) error { return h.p.ReadNode(c, readT, Navigate) },
			func(c *Ctx) error { return h.p.WriteNode(c, writeT) },
		)
		if err != nil {
			t.Errorf("%s: %v", name, err)
		} else if !ok {
			t.Errorf("%s: operations in disjoint subtrees blocked each other", name)
		}
	}
}

func TestLockDepthCoarsens(t *testing.T) {
	// At depth 0 every protocol that honors depth degenerates to document
	// locks: a reader and a writer anywhere in the tree conflict.
	readT := splid.MustParse("1.3.3.3.3")
	writeT := splid.MustParse("1.5.3.3")
	for _, name := range Names() {
		p, _ := Parse(name)
		if !p.DepthAware() {
			continue
		}
		h := newHarness(t, name)
		t1 := h.tm.Begin(tx.LevelRepeatable)
		t2 := h.tm.Begin(tx.LevelRepeatable)
		if err := h.p.ReadTree(h.ctx(t1, 0), readT, Navigate); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		err := h.p.WriteNode(h.ctx(t2, 0), writeT)
		if err != lock.ErrLockTimeout && err != lock.ErrDeadlockVictim {
			t.Errorf("%s: depth 0 should force a document-level conflict, got %v", name, err)
		}
		t1.Abort()
		t2.Abort()
	}
}

func TestTaDOM3RenameOnlyLocksNode(t *testing.T) {
	// taDOM3/3+ rename a node while another transaction reads deeper inside
	// it (IR path); taDOM2/2+ and the MGL protocols cannot.
	topic := splid.MustParse("1.3.3")
	deep := splid.MustParse("1.3.3.5.3")
	expectOK := map[string]bool{
		"taDOM3": true, "taDOM3+": true,
		"taDOM2": false, "taDOM2+": false,
		"IRX": false, "IRIX": false, "URIX": false, "Node2PLa": false,
	}
	for name, want := range expectOK {
		h := newHarness(t, name)
		ok, err := h.canBoth(
			func(c *Ctx) error { return h.p.ReadNode(c, deep, Navigate) },
			func(c *Ctx) error { return h.p.Rename(c, topic) },
		)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if ok != want {
			t.Errorf("%s: rename under deep reader = %v, want %v", name, ok, want)
		}
	}
}

func TestTaDOM2FanoutConversion(t *testing.T) {
	// The LR -> CX conversion of taDOM2 must leave NR locks on every direct
	// child (rule CX_NR of Figure 4); taDOM2+ instead converts to the
	// combined LRCX mode without touching the children.
	parent := splid.MustParse("1.3.3")
	children := []splid.ID{
		splid.MustParse("1.3.3.3"), splid.MustParse("1.3.3.5"), splid.MustParse("1.3.3.7"),
	}

	h2 := newHarness(t, "taDOM2")
	t1 := h2.tm.Begin(tx.LevelRepeatable)
	c := h2.ctx(t1, -1)
	if err := h2.p.ReadLevel(c, parent, children); err != nil {
		t.Fatal(err)
	}
	// Delete one child: CX on parent triggers the fan-out.
	if err := h2.p.DeleteTree(c, children[1], children[0], children[2]); err != nil {
		t.Fatal(err)
	}
	td2 := h2.p.(*tadomProto)
	for i, ch := range children {
		got := h2.lm.HeldMode(t1.LockTx(), nodeRes(ch))
		if i == 1 {
			if got != td2.sx {
				t.Errorf("deleted child holds %s, want SX", h2.p.Table().Name(got))
			}
		} else if got != td2.nr {
			t.Errorf("child %d holds %s, want NR after fan-out", i, h2.p.Table().Name(got))
		}
	}
	if got := h2.lm.HeldMode(t1.LockTx(), nodeRes(parent)); got != td2.cx {
		t.Errorf("parent holds %s, want CX", h2.p.Table().Name(got))
	}
	t1.Abort()

	h2p := newHarness(t, "taDOM2+")
	t2 := h2p.tm.Begin(tx.LevelRepeatable)
	c2 := h2p.ctx(t2, -1)
	if err := h2p.p.ReadLevel(c2, parent, children); err != nil {
		t.Fatal(err)
	}
	if err := h2p.p.DeleteTree(c2, children[1], children[0], children[2]); err != nil {
		t.Fatal(err)
	}
	td2p := h2p.p.(*tadomProto)
	if got := h2p.lm.HeldMode(t2.LockTx(), nodeRes(parent)); h2p.p.Table().Name(got) != "LRCX" {
		t.Errorf("taDOM2+ parent holds %s, want LRCX", h2p.p.Table().Name(got))
	}
	for i, ch := range children {
		if i == 1 {
			continue
		}
		if got := h2p.lm.HeldMode(t2.LockTx(), nodeRes(ch)); got != lock.ModeNone {
			t.Errorf("taDOM2+ fan-out lock %s on child %d (should be none)",
				h2p.p.Table().Name(got), i)
		}
	}
	_ = td2p
	t2.Abort()
}

func TestEdgeLockConflicts(t *testing.T) {
	// Protocols with edge locks: reading a sibling edge conflicts with an
	// insert that redirects it.
	parent := splid.MustParse("1.3.3")
	left := splid.MustParse("1.3.3.3")
	right := splid.MustParse("1.3.3.5")
	newID := splid.MustParse("1.3.3.4.3")
	for _, name := range []string{"OO2PL", "IRX", "IRIX", "URIX", "taDOM2", "taDOM2+", "taDOM3", "taDOM3+"} {
		h := newHarness(t, name)
		ok, err := h.canBoth(
			func(c *Ctx) error { return h.p.ReadEdge(c, left, EdgeNextSibling) },
			func(c *Ctx) error { return h.p.Insert(c, parent, newID, left, right) },
		)
		if err != nil {
			t.Errorf("%s: %v", name, err)
		} else if ok {
			t.Errorf("%s: insert ignored a traversed edge", name)
		}
	}
}

func TestCombinedModesReachable(t *testing.T) {
	// taDOM3+: NR + IX converts to the combined NRIX mode (keeping the node
	// read explicit), LR + CX to LRCX, SR + IX to SRIX.
	h := newHarness(t, "taDOM3+")
	p := h.p.(*tadomProto)
	parent := splid.MustParse("1.3.3")
	children := []splid.ID{splid.MustParse("1.3.3.3"), splid.MustParse("1.3.3.5"), splid.MustParse("1.3.3.7")}

	t1 := h.tm.Begin(tx.LevelRepeatable)
	c := h.ctx(t1, -1)
	// NR on the book node (jump), then a write deeper inside: the path IX on
	// the book meets the held NR.
	if err := h.p.ReadNode(c, parent, Jump); err != nil {
		t.Fatal(err)
	}
	if err := h.p.WriteNode(c, splid.MustParse("1.3.3.5.3")); err != nil {
		t.Fatal(err)
	}
	if got := h.p.Table().Name(h.lm.HeldMode(t1.LockTx(), nodeRes(parent))); got != "NRIX" {
		t.Errorf("book holds %s, want NRIX", got)
	}
	t1.Abort()

	// LR then a child delete: LRCX.
	t2 := h.tm.Begin(tx.LevelRepeatable)
	c2 := h.ctx(t2, -1)
	if err := h.p.ReadLevel(c2, parent, children); err != nil {
		t.Fatal(err)
	}
	if err := h.p.DeleteTree(c2, children[1], children[0], children[2]); err != nil {
		t.Fatal(err)
	}
	if got := h.p.Table().Name(h.lm.HeldMode(t2.LockTx(), nodeRes(parent))); got != "LRCX" {
		t.Errorf("parent holds %s, want LRCX", got)
	}
	t2.Abort()

	// SR then a write inside the fragment: SRIX on the fragment root.
	t3 := h.tm.Begin(tx.LevelRepeatable)
	c3 := h.ctx(t3, -1)
	if err := h.p.ReadTree(c3, parent, Navigate); err != nil {
		t.Fatal(err)
	}
	if err := h.p.WriteNode(c3, splid.MustParse("1.3.3.5.3")); err != nil {
		t.Fatal(err)
	}
	got := h.p.Table().Name(h.lm.HeldMode(t3.LockTx(), nodeRes(parent)))
	if got != "SRIX" && got != "SRCX" {
		t.Errorf("fragment root holds %s, want SRIX/SRCX", got)
	}
	t3.Abort()
	_ = p
}

func TestUpdateModeReachable(t *testing.T) {
	// UpdateTree materializes the protocols' update modes: SU for taDOM,
	// U for URIX and Node2PLa; IRX/IRIX fall back to subtree reads.
	sub := splid.MustParse("1.3.3")
	expect := map[string]string{
		"taDOM2": "SU", "taDOM2+": "SU", "taDOM3": "SU", "taDOM3+": "SU",
		"URIX": "U", "IRIX": "R", "IRX": "R",
	}
	for name, want := range expect {
		h := newHarness(t, name)
		t1 := h.tm.Begin(tx.LevelRepeatable)
		if err := h.p.UpdateTree(h.ctx(t1, -1), sub, Navigate); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := h.p.Table().Name(h.lm.HeldMode(t1.LockTx(), nodeRes(sub))); got != want {
			t.Errorf("%s: holds %s, want %s", name, got, want)
		}
		t1.Abort()
	}
	// Node2PLa anchors the U on the parent.
	h := newHarness(t, "Node2PLa")
	t1 := h.tm.Begin(tx.LevelRepeatable)
	if err := h.p.UpdateTree(h.ctx(t1, -1), sub, Navigate); err != nil {
		t.Fatal(err)
	}
	if got := h.p.Table().Name(h.lm.HeldMode(t1.LockTx(), nodeRes(splid.MustParse("1.3")))); got != "U" {
		t.Errorf("Node2PLa parent holds %s, want U", got)
	}
	t1.Abort()

	// Two concurrent update intents on the same subtree serialize (that is
	// the whole point of the mode).
	h2 := newHarness(t, "taDOM3+")
	ok, err := h2.canBoth(
		func(c *Ctx) error { return h2.p.UpdateTree(c, sub, Navigate) },
		func(c *Ctx) error { return h2.p.UpdateTree(c, sub, Navigate) },
	)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("two SU holders on one subtree must conflict")
	}
	// But an update intent admits plain readers.
	ok, err = h2.canBoth(
		func(c *Ctx) error { return h2.p.UpdateTree(c, sub, Navigate) },
		func(c *Ctx) error { return h2.p.ReadTree(c, sub, Navigate) },
	)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("a held SU must admit subtree readers")
	}
}
