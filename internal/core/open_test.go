package core_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/figures"
	"repro/internal/node"
	"repro/internal/pagestore"
	"repro/internal/protocol"
	"repro/internal/storage"
	"repro/internal/tamix"
	"repro/internal/tx"
	"repro/internal/wal"
)

const bibXML = `<topic id="t1"><book id="b1" year="2005"><title>Contest of XML Lock Protocols</title></book></topic>`

// media is one persistent store: open returns its page backend and, when the
// store has a log, its segment store — the same bytes on every call.
type media struct {
	name   string
	logged bool
	open   func(t *testing.T) (pagestore.Backend, wal.SegmentStore)
}

func memMedia(logged bool) media {
	backend := pagestore.NewMemBackend()
	var segs wal.SegmentStore
	if logged {
		segs = wal.NewMemSegmentStore()
	}
	return media{fmt.Sprintf("memory/log=%v", logged), logged, func(*testing.T) (pagestore.Backend, wal.SegmentStore) {
		return backend, segs
	}}
}

func fileMedia(dir string, logged bool) media {
	return media{fmt.Sprintf("file/log=%v", logged), logged, func(t *testing.T) (pagestore.Backend, wal.SegmentStore) {
		backend, err := pagestore.OpenFile(filepath.Join(dir, "bib.xtc"))
		if err != nil {
			t.Fatal(err)
		}
		if !logged {
			return backend, nil
		}
		segs, err := wal.NewFileSegmentStore(filepath.Join(dir, "bib.wal"))
		if err != nil {
			t.Fatal(err)
		}
		return backend, segs
	}}
}

func openEngine(t *testing.T, m media, cfg core.Config) *core.Engine {
	t.Helper()
	backend, segs := m.open(t)
	eng, err := core.Open(backend, segs, cfg)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return eng
}

func yearOfB1(eng *core.Engine) (string, error) {
	var year []byte
	err := commitTxn(eng, func(m *node.Manager, txn *tx.Txn) error {
		book, err := m.JumpToID(txn, "b1")
		if err != nil {
			return err
		}
		year, err = m.AttributeValue(txn, book.ID, "year")
		return err
	})
	return string(year), err
}

// wantNoOpRestart: over a store that was closed cleanly, the restart Open
// always runs finds every delta already on its page and nobody to roll back.
func wantNoOpRestart(t *testing.T, rep *storage.RecoveryReport) {
	t.Helper()
	if rep == nil {
		t.Fatal("a logged store was reopened without a restart")
	}
	if rep.RedoneOps != 0 || len(rep.Losers) != 0 || rep.UndoneOps != 0 {
		t.Errorf("restart of a cleanly closed store redid %d deltas, rolled back %v (%d ops)",
			rep.RedoneOps, rep.Losers, rep.UndoneOps)
	}
}

// TestOpenFreshAndReopen: an empty store gets a document, with or without a
// log and on either medium; a committed update survives Close and is there
// for the next Open, which may name another protocol.
func TestOpenFreshAndReopen(t *testing.T) {
	for _, m := range []media{
		memMedia(false), memMedia(true),
		fileMedia(t.TempDir(), false), fileMedia(t.TempDir(), true),
	} {
		m := m
		t.Run(m.name, func(t *testing.T) {
			eng := openEngine(t, m, core.Config{RootName: "bib"})
			if eng.Recovery() != nil {
				t.Error("creating a document reported a restart")
			}
			if err := eng.Load(strings.NewReader(bibXML)); err != nil {
				t.Fatal(err)
			}
			err := commitTxn(eng, func(mgr *node.Manager, txn *tx.Txn) error {
				book, err := mgr.JumpToID(txn, "b1")
				if err != nil {
					return err
				}
				return mgr.SetAttribute(txn, book.ID, "year", []byte("2006"))
			})
			if err != nil {
				t.Fatal(err)
			}
			if forced := eng.Metrics().CounterValue("wal.forces") > 0; forced != m.logged {
				t.Errorf("commit forced a log: %v, store has a log: %v", forced, m.logged)
			}
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}

			eng = openEngine(t, m, core.Config{Protocol: "URIX"})
			defer eng.Close()
			if name := eng.Manager().Protocol().Name(); name != "URIX" {
				t.Errorf("protocol = %s", name)
			}
			if m.logged {
				wantNoOpRestart(t, eng.Recovery())
			} else if eng.Recovery() != nil {
				t.Error("a store without a log reported a restart")
			}
			if year, err := yearOfB1(eng); err != nil || year != "2006" {
				t.Errorf("after reopen year = %q, %v; want the committed 2006", year, err)
			}
		})
	}
}

// TestGeneratedDocumentReopens: a generated document, whose leaves the
// ordered load filled (btree's rightmost append split), closes and opens
// again through Open as a document that verifies and answers a jump.
func TestGeneratedDocumentReopens(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bib.xtc")
	backend, err := pagestore.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	doc, cat, err := tamix.GenerateBib(backend, tamix.Scaled(0.05))
	if err != nil {
		t.Fatal(err)
	}
	st, err := doc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if err := doc.Close(); err != nil {
		t.Fatal(err)
	}
	m := media{open: func(t *testing.T) (pagestore.Backend, wal.SegmentStore) {
		b, err := pagestore.OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b, nil
	}}
	eng := openEngine(t, m, core.Config{})
	defer eng.Close()
	reopened, err := eng.Manager().Document().Stats()
	if err != nil {
		t.Fatal(err)
	}
	if reopened.DocTree != st.DocTree {
		t.Errorf("document tree reopened as %+v, was %+v", reopened.DocTree, st.DocTree)
	}
	if err := eng.Manager().Document().Verify(); err != nil {
		t.Fatal(err)
	}
	err = commitTxn(eng, func(m *node.Manager, txn *tx.Txn) error {
		book, err := m.JumpToID(txn, cat.BookIDs[len(cat.BookIDs)/2])
		if err != nil {
			return err
		}
		_, err = m.GetAttributes(txn, book.ID)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestOpenRejectsUnstampedCorruptPage: a page of a generated document whose
// checksum field reads 0 — the value of a page nobody wrote — but whose bytes
// are not all zero makes Open or Verify fail with an error, whichever page it
// is: a zeroed checksum is no way to smuggle a flipped byte past the check.
func TestOpenRejectsUnstampedCorruptPage(t *testing.T) {
	dir := t.TempDir()
	backend, err := pagestore.OpenFile(filepath.Join(dir, "bib.xtc"))
	if err != nil {
		t.Fatal(err)
	}
	doc, _, err := tamix.GenerateBib(backend, tamix.Scaled(0.01))
	if err != nil {
		t.Fatal(err)
	}
	if err := doc.Close(); err != nil {
		t.Fatal(err)
	}
	image, err := os.ReadFile(filepath.Join(dir, "bib.xtc"))
	if err != nil {
		t.Fatal(err)
	}
	for page := 0; page < len(image)/pagestore.PageSize; page++ {
		mutated := bytes.Clone(image)
		p := mutated[page*pagestore.PageSize : (page+1)*pagestore.PageSize]
		clear(p[8:12]) // the header's checksum field
		p[corruptOff] ^= 0xFF
		path := filepath.Join(dir, fmt.Sprintf("m%d.xtc", page))
		if err := os.WriteFile(path, mutated, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := openAndVerify(path); err == nil {
			t.Errorf("page %d: a flipped byte under a zeroed checksum opened and verified", page)
		}
	}
}

// corruptOff is the byte TestOpenRejectsUnstampedCorruptPage flips, past the
// page header.
const corruptOff = pagestore.PageHeaderSize + 2

// openAndVerify opens the document file at path and verifies it, turning a
// panic into an error that says so.
func openAndVerify(path string) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	backend, err := pagestore.OpenFile(path)
	if err != nil {
		return err
	}
	eng, err := core.Open(backend, nil, core.Config{})
	if err != nil {
		return err
	}
	defer eng.Close()
	return eng.Manager().Document().Verify()
}

// TestOpenRestartsCrashResidue: what a crash burst leaves behind — pages with
// an arbitrary subset of write-backs (one of them torn, in the second seed)
// and a log with a torn tail — is opened like any other store, and nobody asks
// for recovery: the result owes every acknowledged commit and nothing else.
// Opening that result again is a no-op. (A residue opened WITHOUT its log is
// not in the table: the pages are then taken as they are, and nothing is
// promised about them.)
func TestOpenRestartsCrashResidue(t *testing.T) {
	for name, cfg := range map[string]tamix.CrashConfig{
		"log-crash":       {Seed: 3, Faults: &fault.Plan{Schedule: []fault.Fault{{Site: fault.LogAppend, N: 59}}}},
		"torn-write-back": {Seed: 1003, Faults: &fault.Plan{Schedule: []fault.Fault{{Site: fault.PageWrite, N: 4, Permanent: true, Torn: true}}}},
	} {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			out, err := tamix.CrashBurst(cfg)
			if err != nil {
				t.Fatal(err)
			}
			m := media{logged: true, open: func(*testing.T) (pagestore.Backend, wal.SegmentStore) { return out.Backend, out.Segments }}
			engCfg := core.Config{BufferFrames: out.Opts.BufferFrames}

			eng := openEngine(t, m, engCfg)
			rep := eng.Recovery()
			if rep == nil {
				t.Fatal("a crashed store was opened without a restart")
			}
			if out.CommittedTxns > 0 && len(rep.Committed) == 0 {
				t.Errorf("%d commits acknowledged but none in the log", out.CommittedTxns)
			}
			owed := out.Expected(rep)
			if err := tamix.AuditRecovered(eng.Manager().Document(), owed); err != nil {
				t.Errorf("audit (commits %d, pending %d, losers %v): %v", out.CommittedTxns, out.PendingTxns, rep.Losers, err)
			}
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}

			eng = openEngine(t, m, engCfg)
			defer eng.Close()
			wantNoOpRestart(t, eng.Recovery())
			if err := tamix.AuditRecovered(eng.Manager().Document(), owed); err != nil {
				t.Errorf("audit after the second open: %v", err)
			}
		})
	}
}

// TestOpenRefusesLogWithoutPages: a log that holds records belongs to some
// document; an empty backend next to it is a lost file, not a fresh start.
func TestOpenRefusesLogWithoutPages(t *testing.T) {
	m := memMedia(true)
	eng := openEngine(t, m, core.Config{})
	if err := eng.Load(strings.NewReader(bibXML)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	_, segs := m.open(t)
	if eng, err := core.Open(pagestore.NewMemBackend(), segs, core.Config{}); err == nil {
		eng.Close()
		t.Fatal("a non-empty log over an empty backend opened as a fresh document")
	}
}

// TestCloseStopsEveryGoroutine: an engine's goroutines (the lock manager's
// deadlock detector, the log's flusher) end with Close, for every way an
// engine is opened — 20 of them here, and the one-engine-per-protocol pass
// of Figure 11.
func TestCloseStopsEveryGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	names := protocol.Names()
	for i := 0; i < 20; i++ {
		eng := openEngine(t, memMedia(i%2 == 0), core.Config{Protocol: names[i%len(names)]})
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := figures.Figure11(figures.Options{DocScale: 0.01}); err != nil {
		t.Fatal(err)
	}
	// A goroutine that has been told to stop may take a moment to be gone.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines before, %d after 20 engines and a Figure 11 pass:\n%s",
			base, n, buf[:runtime.Stack(buf, true)])
	}
}
