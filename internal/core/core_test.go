package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/node"
	"repro/internal/pagestore"
	"repro/internal/protocol"
	"repro/internal/tx"
)

const sampleXML = `
<topics>
  <topic id="t1">
    <book id="b1" year="2005">
      <title>Contest of XML Lock Protocols</title>
      <history><lend person="p1"/></history>
    </book>
    <book id="b2" year="2004">
      <title>Node Labeling Schemes</title>
      <history/>
    </book>
  </topic>
</topics>`

func newEngine(t testing.TB, cfg core.Config) *core.Engine {
	t.Helper()
	cfg.RootName = "bib"
	eng, err := core.Open(pagestore.NewMemBackend(), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	if err := eng.Load(strings.NewReader(sampleXML)); err != nil {
		t.Fatal(err)
	}
	return eng
}

// commitTxn runs fn in one repeatable-read transaction on the engine's node
// manager: it commits when fn returns nil and aborts when it fails.
func commitTxn(eng *core.Engine, fn func(m *node.Manager, txn *tx.Txn) error) error {
	m := eng.Manager()
	txn := m.Begin(tx.LevelRepeatable)
	if err := fn(m, txn); err != nil {
		txn.Abort()
		return err
	}
	return txn.Commit()
}

func TestOpenDefaults(t *testing.T) {
	eng := newEngine(t, core.Config{})
	if name := eng.Manager().Protocol().Name(); name != "taDOM3+" {
		t.Errorf("default protocol = %s", name)
	}
}

func TestOpenRejectsUnknownProtocol(t *testing.T) {
	_, err := core.Open(pagestore.NewMemBackend(), nil, core.Config{Protocol: "MySQL"})
	if err == nil {
		t.Fatal("expected error")
	}
}

// TestExecReadWrite: a committed update is read back by the next
// transaction, and both count as committed in the engine's registry.
func TestExecReadWrite(t *testing.T) {
	eng := newEngine(t, core.Config{})
	err := commitTxn(eng, func(m *node.Manager, txn *tx.Txn) error {
		book, err := m.JumpToID(txn, "b1")
		if err != nil {
			return err
		}
		year, err := m.AttributeValue(txn, book.ID, "year")
		if err != nil {
			return err
		}
		if string(year) != "2005" {
			return fmt.Errorf("year = %q", year)
		}
		title, err := m.FirstChild(txn, book.ID)
		if err != nil {
			return err
		}
		txt, err := m.FirstChild(txn, title.ID)
		if err != nil {
			return err
		}
		return m.SetValue(txn, txt.ID, []byte("Contest (2nd ed.)"))
	})
	if err != nil {
		t.Fatal(err)
	}
	// Visible in a fresh transaction.
	err = commitTxn(eng, func(m *node.Manager, txn *tx.Txn) error {
		book, _ := m.JumpToID(txn, "b1")
		title, _ := m.FirstChild(txn, book.ID)
		txt, _ := m.FirstChild(txn, title.ID)
		v, err := m.Value(txn, txt.ID)
		if err != nil {
			return err
		}
		if string(v) != "Contest (2nd ed.)" {
			return fmt.Errorf("value = %q", v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	st := eng.Metrics()
	if st.CounterValue("tx.committed") != 2 || st.CounterValue("tx.aborted") != 0 {
		t.Errorf("stats = %+v", st.Counters)
	}
}

// TestSessionStructuralOps: inserts, appends and a subtree delete through
// the node manager, each seen by the next transaction.
func TestSessionStructuralOps(t *testing.T) {
	eng := newEngine(t, core.Config{})
	voc := eng.Manager().Document().Vocabulary()
	err := commitTxn(eng, func(m *node.Manager, txn *tx.Txn) error {
		book, err := m.JumpToID(txn, "b2")
		if err != nil {
			return err
		}
		hist, err := m.LastChild(txn, book.ID)
		if err != nil {
			return err
		}
		lend, err := m.AppendElement(txn, hist.ID, "lend")
		if err != nil {
			return err
		}
		if err := m.SetAttribute(txn, lend.ID, "person", []byte("p7")); err != nil {
			return err
		}
		isbn, err := m.InsertElementBefore(txn, book.ID, hist.ID, "isbn")
		if err != nil {
			return err
		}
		if _, err := m.AppendText(txn, isbn.ID, []byte("3-16-148410-0")); err != nil {
			return err
		}
		kids, err := m.GetChildren(txn, book.ID)
		if err != nil {
			return err
		}
		if len(kids) != 3 { // title, isbn, history
			return fmt.Errorf("children = %d", len(kids))
		}
		if name := voc.Name(kids[1].Name); name != "isbn" {
			return fmt.Errorf("middle child = %s", name)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Delete the other book entirely.
	err = commitTxn(eng, func(m *node.Manager, txn *tx.Txn) error {
		book, err := m.JumpToID(txn, "b1")
		if err != nil {
			return err
		}
		return m.DeleteSubtree(txn, book.ID)
	})
	if err != nil {
		t.Fatal(err)
	}
	err = commitTxn(eng, func(m *node.Manager, txn *tx.Txn) error {
		if _, err := m.JumpToID(txn, "b1"); err == nil {
			return errors.New("b1 should be gone")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestExportXML(t *testing.T) {
	eng := newEngine(t, core.Config{})
	doc := eng.Manager().Document()
	var buf bytes.Buffer
	if err := doc.ExportXML(&buf, doc.Root()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, frag := range []string{"<bib>", `id="b1"`, "Contest of XML Lock Protocols"} {
		if !strings.Contains(out, frag) {
			t.Errorf("export missing %q", frag)
		}
	}
}

func TestEveryProtocol(t *testing.T) {
	for _, name := range protocol.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			eng := newEngine(t, core.Config{Protocol: name})
			err := commitTxn(eng, func(m *node.Manager, txn *tx.Txn) error {
				book, err := m.JumpToID(txn, "b1")
				if err != nil {
					return err
				}
				_, err = m.ReadFragment(txn, book.ID, false)
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestStatsCounters(t *testing.T) {
	eng := newEngine(t, core.Config{})
	before := eng.Metrics()
	err := commitTxn(eng, func(m *node.Manager, txn *tx.Txn) error {
		_, err := m.JumpToID(txn, "b1")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	after := eng.Metrics()
	if b, a := before.CounterValue("tx.committed"), after.CounterValue("tx.committed"); a != b+1 {
		t.Errorf("committed: %d -> %d", b, a)
	}
	if after.CounterValue("lock.requests") <= before.CounterValue("lock.requests") {
		t.Error("lock requests should grow")
	}
	if after.CounterValue("buffer.hits") == 0 {
		t.Error("buffer counters missing: the document does not report into the engine's registry")
	}
	if eng.Manager().Document().Size() == 0 {
		t.Error("node count missing")
	}
}
