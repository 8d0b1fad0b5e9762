package figures

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/lock"
	"repro/internal/node"
	"repro/internal/pagestore"
	"repro/internal/protocol"
	"repro/internal/splid"
	"repro/internal/tamix"
	"repro/internal/tx"
)

// claimTxns is how many CLUSTER1 transactions each cell of the lock-request
// table runs, and claimSeed the seed of their draw.
const (
	claimTxns = 1000
	claimSeed = 1
)

// claimDepths are the lock depths of the table: document locks, the knee, and
// the benchmark's depth (bench's protocol sweep counts at depth 7).
var claimDepths = []int{0, 2, 7}

// TestClaims holds the paper's claims that are counts, which a seeded serial
// run reproduces exactly, so they can be compared with equality:
//
//   - lock requests per committed CLUSTER1 transaction, for every contestant
//     at lock depths 0, 2 and 7 (the work behind Figures 7-10's shapes, and
//     claims 4-7's lock-overhead side), against testdata/lock_requests.golden;
//   - claim 9: TArenameTopic's rename holds the topic node-exclusive (NX,
//     which a reader of the topic's subtree passes with IR) under taDOM3 and
//     taDOM3+, and subtree-exclusive (SX, which it does not) under taDOM2 and
//     taDOM2+ — held modes, since both hold one lock per rename;
//   - claim 10: TAdelBook scans the doomed subtree for elements owning an ID
//     attribute under the pure *-2PL protocols, and under no other.
//
// A change that moves a count on purpose regenerates the golden file from the
// table this test prints on a mismatch, and says why in its change log.
//
// Mutants (run by hand, not committed): taDOM's read path locking the
// ancestors of the node instead of the lock-depth target (lock depth ignored
// on the path) fails the depth-0 and depth-2 columns; Node2PLa locking its
// anchor without the intention path fails every Node2PLa cell; taDOM3's NX
// mapped to SX, or NX made incompatible with IR in the taDOM3 tables, fails
// the RenameModes rows of taDOM3 and taDOM3+ (and no lock-request cell).
func TestClaims(t *testing.T) {
	t.Run("LockRequests", func(t *testing.T) {
		got := lockRequestTable(t)
		want, err := os.ReadFile("testdata/lock_requests.golden")
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("lock requests per committed transaction moved; got\n%s\nwant\n%s", got, want)
		}
	})
	t.Run("RenameModes", func(t *testing.T) {
		for _, p := range protocol.All() {
			if !strings.HasPrefix(p.Name(), "taDOM") {
				continue
			}
			want := renameHold{"SX", false}
			if strings.HasPrefix(p.Name(), "taDOM3") {
				want = renameHold{"NX", true}
			}
			for _, got := range renameHolds(t, p) {
				if got != want {
					t.Errorf("%s: TArenameTopic holds the topic %s (a subtree reader's IR passes: %v); want %s (%v)",
						p.Name(), got.mode, got.readerPasses, want.mode, want.readerPasses)
				}
			}
		}
	})
	t.Run("IDXScans", func(t *testing.T) {
		for _, p := range protocol.All() {
			scans := delBookScans(t, p)
			pure2PL := p.Group() == "*-2PL" && p.Name() != "Node2PLa"
			if pure2PL != (scans > 0) {
				t.Errorf("%s (%s): %d IDX subtree scans in %d TAdelBook transactions; want them only under the pure *-2PL protocols",
					p.Name(), p.Group(), scans, delBookTxns)
			}
		}
	})
}

// lockRequestTable runs the table's cells and renders them as the golden
// file holds them.
func lockRequestTable(t *testing.T) string {
	o := quick()
	var b strings.Builder
	fmt.Fprintf(&b, "# lock requests per committed CLUSTER1 transaction: %d transactions, one worker, seed %d, doc %g, repeatable\n",
		claimTxns, claimSeed, o.DocScale)
	fmt.Fprintf(&b, "%-10s", "protocol")
	for _, d := range claimDepths {
		fmt.Fprintf(&b, " %9s", fmt.Sprintf("depth %d", d))
	}
	b.WriteString("\n")
	for _, p := range protocol.All() {
		fmt.Fprintf(&b, "%-10s", p.Name())
		for _, depth := range claimDepths {
			doc, cat, err := tamix.GenerateBib(pagestore.NewMemBackend(), tamix.Scaled(o.DocScale))
			if err != nil {
				t.Fatal(err)
			}
			eng, err := core.Wrap(doc, nil, core.Config{Protocol: p.Name(), LockDepth: &depth})
			if err != nil {
				t.Fatal(err)
			}
			mgr := eng.Manager()
			err = tamix.Serial(mgr, cat, tamix.Cluster1Mix(), tx.LevelRepeatable, claimSeed, claimTxns)
			if err == nil {
				err = mgr.Audit()
			}
			requests := mgr.LockManager().Stats().Requests
			if cerr := eng.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				t.Fatalf("%s at depth %d: %v", p.Name(), depth, err)
			}
			fmt.Fprintf(&b, " %9.3f", float64(requests)/claimTxns)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// delBookTxns is how many TAdelBook transactions the scan check runs.
const delBookTxns = 3

// delBookScans runs TAdelBook serially under p and counts the protocol's
// calls for the elements owning an ID attribute inside a subtree.
func delBookScans(t *testing.T, p protocol.Protocol) int {
	doc, cat, err := tamix.GenerateBib(pagestore.NewMemBackend(), tamix.Scaled(quick().DocScale))
	if err != nil {
		t.Fatal(err)
	}
	defer doc.Close()
	scans := 0
	mgr := node.New(doc, scanCounter{p, &scans}, node.Options{Depth: 4})
	defer mgr.Close()
	if err := tamix.Serial(mgr, cat, map[tamix.TxType]int{tamix.TAdelBook: 1}, tx.LevelRepeatable, claimSeed, delBookTxns); err != nil {
		t.Fatalf("%s: %v", p.Name(), err)
	}
	return scans
}

// scanCounter counts the ID-attribute subtree scans its protocol's DeleteTree
// asks the document for.
type scanCounter struct {
	protocol.Protocol
	n *int
}

func (s scanCounter) DeleteTree(c *protocol.Ctx, id, left, right splid.ID) error {
	tree := c.Tree
	c.Tree = countingTree{tree, s.n}
	defer func() { c.Tree = tree }()
	return s.Protocol.DeleteTree(c, id, left, right)
}

type countingTree struct {
	protocol.TreeAccess
	n *int
}

func (t countingTree) ElementsWithIDAttribute(id splid.ID) ([]splid.ID, error) {
	*t.n++
	return t.TreeAccess.ElementsWithIDAttribute(id)
}

// renameTxns is how many TArenameTopic transactions the held-mode check runs.
const renameTxns = 3

// renameHold is the lock a rename leaves on its node: the held mode's name,
// and whether another transaction's IR (the intention of a reader below the
// node) is compatible with it.
type renameHold struct {
	mode         string
	readerPasses bool
}

// renameHolds runs TArenameTopic serially under p and returns the lock each
// rename holds on its node.
func renameHolds(t *testing.T, p protocol.Protocol) []renameHold {
	doc, cat, err := tamix.GenerateBib(pagestore.NewMemBackend(), tamix.Scaled(quick().DocScale))
	if err != nil {
		t.Fatal(err)
	}
	defer doc.Close()
	var holds []renameHold
	mgr := node.New(doc, renameRecorder{p, &holds}, node.Options{Depth: 7})
	defer mgr.Close()
	if err := tamix.Serial(mgr, cat, map[tamix.TxType]int{tamix.TArenameTopic: 1}, tx.LevelRepeatable, claimSeed, renameTxns); err != nil {
		t.Fatalf("%s: %v", p.Name(), err)
	}
	if len(holds) != renameTxns {
		t.Fatalf("%s: %d renames in %d TArenameTopic transactions", p.Name(), len(holds), renameTxns)
	}
	return holds
}

// renameRecorder records the lock its protocol's Rename leaves on the node.
type renameRecorder struct {
	protocol.Protocol
	holds *[]renameHold
}

func (r renameRecorder) Rename(c *protocol.Ctx, id splid.ID) error {
	if err := r.Protocol.Rename(c, id); err != nil {
		return err
	}
	table := c.LM.Table()
	held := c.LM.HeldMode(c.Txn.LockTx(), lock.Resource(id.Key())) // a node's lock resource is its key
	ir := lock.ModeNone
	for m := lock.Mode(1); int(m) < table.NumModes(); m++ {
		if table.Name(m) == "IR" {
			ir = m
		}
	}
	*r.holds = append(*r.holds, renameHold{table.Name(held), ir != lock.ModeNone && table.Compatible(held, ir)})
	return nil
}
