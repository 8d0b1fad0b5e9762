package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/pagestore"
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

func newEngine(t testing.TB, cfg Config) *Engine {
	t.Helper()
	cfg.RootName = "bib"
	eng, err := Open(pagestore.NewMemBackend(), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	if err := eng.Load(strings.NewReader(sampleXML)); err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestOpenDefaults(t *testing.T) {
	eng := newEngine(t, Config{})
	if eng.ProtocolName() != "taDOM3+" {
		t.Errorf("default protocol = %s", eng.ProtocolName())
	}
	if len(Protocols()) != 12 {
		t.Errorf("Protocols() = %v", Protocols())
	}
}

func TestOpenRejectsUnknownProtocol(t *testing.T) {
	_, err := Open(pagestore.NewMemBackend(), nil, Config{Protocol: "MySQL"})
	if err == nil {
		t.Fatal("expected error")
	}
}

func TestExecReadWrite(t *testing.T) {
	eng := newEngine(t, Config{})
	err := eng.Exec(Repeatable, func(s *Session) error {
		book, err := s.JumpToID("b1")
		if err != nil {
			return err
		}
		year, err := s.AttributeValue(book.ID, "year")
		if err != nil {
			return err
		}
		if string(year) != "2005" {
			return fmt.Errorf("year = %q", year)
		}
		title, err := s.FirstChild(book.ID)
		if err != nil {
			return err
		}
		txt, err := s.FirstChild(title.ID)
		if err != nil {
			return err
		}
		return s.SetValue(txt.ID, []byte("Contest (2nd ed.)"))
	})
	if err != nil {
		t.Fatal(err)
	}
	// Visible in a fresh transaction.
	err = eng.Exec(Repeatable, func(s *Session) error {
		book, _ := s.JumpToID("b1")
		title, _ := s.FirstChild(book.ID)
		txt, _ := s.FirstChild(title.ID)
		v, err := s.Value(txt.ID)
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

func TestExecAbortsOnError(t *testing.T) {
	eng := newEngine(t, Config{})
	boom := errors.New("boom")
	err := eng.Exec(Repeatable, func(s *Session) error {
		book, err := s.JumpToID("b1")
		if err != nil {
			return err
		}
		if err := s.SetAttribute(book.ID, "year", []byte("1999")); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	eng.Exec(Repeatable, func(s *Session) error {
		book, _ := s.JumpToID("b1")
		v, _ := s.AttributeValue(book.ID, "year")
		if string(v) != "2005" {
			t.Errorf("year after rollback = %q", v)
		}
		return nil
	})
}

func TestExecRetriesDeadlocks(t *testing.T) {
	depth := 7
	eng := newEngine(t, Config{Protocol: "taDOM2", LockDepth: &depth, LockTimeout: time.Second})
	// Two transactions updating two books in opposite order; Exec's retry
	// must absorb the deadlock aborts.
	update := func(first, second string) error {
		return eng.Exec(Repeatable, func(s *Session) error {
			for _, id := range []string{first, second} {
				book, err := s.JumpToID(id)
				if err != nil {
					return err
				}
				if err := s.SetAttribute(book.ID, "year", []byte("2006")); err != nil {
					return err
				}
				time.Sleep(10 * time.Millisecond)
			}
			return nil
		})
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() { defer wg.Done(); errs[0] = update("b1", "b2") }()
	go func() { defer wg.Done(); errs[1] = update("b2", "b1") }()
	wg.Wait()
	if errs[0] != nil || errs[1] != nil {
		t.Fatalf("errs = %v / %v", errs[0], errs[1])
	}
}

func TestSessionStructuralOps(t *testing.T) {
	eng := newEngine(t, Config{})
	err := eng.Exec(Repeatable, func(s *Session) error {
		book, err := s.JumpToID("b2")
		if err != nil {
			return err
		}
		hist, err := s.LastChild(book.ID)
		if err != nil {
			return err
		}
		lend, err := s.AppendElement(hist.ID, "lend")
		if err != nil {
			return err
		}
		if err := s.SetAttribute(lend.ID, "person", []byte("p7")); err != nil {
			return err
		}
		isbn, err := s.InsertElementBefore(book.ID, hist.ID, "isbn")
		if err != nil {
			return err
		}
		if _, err := s.AppendText(isbn.ID, []byte("3-16-148410-0")); err != nil {
			return err
		}
		kids, err := s.Children(book.ID)
		if err != nil {
			return err
		}
		if len(kids) != 3 { // title, isbn, history
			return fmt.Errorf("children = %d", len(kids))
		}
		if s.Name(kids[1]) != "isbn" {
			return fmt.Errorf("middle child = %s", s.Name(kids[1]))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Delete the other book entirely.
	err = eng.Exec(Repeatable, func(s *Session) error {
		book, err := s.JumpToID("b1")
		if err != nil {
			return err
		}
		return s.DeleteSubtree(book.ID)
	})
	if err != nil {
		t.Fatal(err)
	}
	err = eng.Exec(Repeatable, func(s *Session) error {
		if _, err := s.JumpToID("b1"); err == nil {
			return errors.New("b1 should be gone")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestExportXML(t *testing.T) {
	eng := newEngine(t, Config{})
	var buf bytes.Buffer
	if err := eng.ExportXML(&buf, eng.Root()); err != nil {
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
	for _, name := range Protocols() {
		name := name
		t.Run(name, func(t *testing.T) {
			eng := newEngine(t, Config{Protocol: name})
			err := eng.Exec(Repeatable, func(s *Session) error {
				book, err := s.JumpToID("b1")
				if err != nil {
					return err
				}
				_, err = s.ReadFragment(book.ID)
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestStatsCounters(t *testing.T) {
	eng := newEngine(t, Config{})
	before := eng.Metrics()
	eng.Exec(Repeatable, func(s *Session) error {
		_, err := s.JumpToID("b1")
		return err
	})
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
	if eng.Size() == 0 {
		t.Error("node count missing")
	}
}
