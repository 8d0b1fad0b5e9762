package node

// Undo-equivalence oracle: there is one undo, so every way of rolling a
// transaction back must land on the same bytes.
//
// A seeded mix of every mutating node operation — SetValue, Rename,
// AppendElement, AppendText, InsertElementBefore, SetAttribute (new and
// existing, the id attribute included) and DeleteSubtree (leaves and whole
// sections) — runs as ONE transaction over a document that already went
// through a relabel. The values are a quarter page each, as in
// storage/redo_oracle_test.go, so the transaction splits leaves (the long
// run also internal pages), interns new names and reindexes ID attributes.
// Then three routes back are compared with the export taken before the
// transaction began, each followed by Document.Verify:
//
//	(i)   Txn.Abort at runtime, WAL attached (payloads from the txn's list);
//	(ii)  a clone of the pages and the forced log, crashed before the abort,
//	      through storage.Recover (payloads from the log records);
//	(iii) Txn.Abort at runtime with no WAL attached at all.
//
// The oracle was shown to bite by mutation: with setValueLocked's payload
// carrying the new value instead of the old one, all three routes fail (see
// the PR 15 row of CHANGES.md).

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/pagestore"
	"repro/internal/protocol"
	"repro/internal/splid"
	"repro/internal/storage"
	"repro/internal/tx"
	"repro/internal/wal"
	"repro/internal/xmlmodel"
)

// undoKid is one regular child of a section: a text or a nested element.
type undoKid struct {
	id   splid.ID
	text bool
}

type undoSection struct {
	id   splid.ID
	kids []undoKid
}

// undoRun drives the random transaction of one oracle run.
type undoRun struct {
	t        *testing.T
	m        *Manager
	txn      *tx.Txn
	rng      *rand.Rand
	sections []undoSection
	names    int
	done     map[string]int // operations performed, by kind
}

func (r *undoRun) must(err error) {
	r.t.Helper()
	if err != nil {
		r.t.Fatal(err)
	}
}

func (r *undoRun) value() []byte {
	v := make([]byte, 1700+r.rng.Intn(200))
	for i := range v {
		v[i] = 'a' + byte(r.rng.Intn(26))
	}
	return v
}

// name returns an element name: mostly one of a few, now and then a new one,
// which grows the vocabulary and so rewrites the metadata page.
func (r *undoRun) name() string {
	if r.rng.Intn(20) == 0 {
		r.names++
		return fmt.Sprintf("kind%d", r.names)
	}
	return [...]string{"section", "chapter", "note"}[r.rng.Intn(3)]
}

// step performs one random update through the node manager.
func (r *undoRun) step() {
	m, txn, root := r.m, r.txn, r.m.Document().Root()
	si := r.rng.Intn(len(r.sections))
	s := &r.sections[si]
	k := r.rng.Intn(100)
	if len(s.kids) == 0 && k >= 40 {
		k = 0
	}
	var ki int
	if len(s.kids) > 0 {
		ki = r.rng.Intn(len(s.kids))
	}
	switch {
	case k < 36:
		n, err := m.AppendText(txn, s.id, r.value())
		r.must(err)
		s.kids = append(s.kids, undoKid{n.ID, true})
		r.done["AppendText"]++
	case k < 40:
		n, err := m.AppendElement(txn, root, r.name())
		r.must(err)
		r.sections = append(r.sections, undoSection{id: n.ID})
		r.done["AppendElement"]++
	case k < 46:
		n, err := m.InsertElementBefore(txn, s.id, s.kids[ki].id, r.name())
		r.must(err)
		s.kids = append(s.kids[:ki], append([]undoKid{{n.ID, false}}, s.kids[ki:]...)...)
		r.done["InsertElementBefore"]++
	case k < 49:
		n, err := m.InsertElementBefore(txn, root, s.id, r.name())
		r.must(err)
		r.sections = append(r.sections, undoSection{id: n.ID})
		r.done["InsertElementBefore"]++
	case k < 63:
		attr := [...]string{storage.IDAttrName, "lang", "rev"}[r.rng.Intn(3)]
		old, err := m.Document().AttributeByName(s.id, attr)
		r.must(err)
		r.must(m.SetAttribute(txn, s.id, attr, []byte(fmt.Sprintf("%s-%d", attr, r.rng.Int63()))))
		if old.ID.IsNull() {
			r.done["SetAttribute/new"]++
		} else {
			r.done["SetAttribute/existing"]++
		}
		if attr == storage.IDAttrName {
			r.done["SetAttribute/id"]++
		}
	case k < 78:
		if !s.kids[ki].text {
			r.must(m.Rename(txn, s.kids[ki].id, r.name()))
			r.done["Rename"]++
			return
		}
		r.must(m.SetValue(txn, s.kids[ki].id, r.value()))
		r.done["SetValue"]++
	case k < 85:
		r.must(m.Rename(txn, s.id, r.name()))
		r.done["Rename"]++
	case k < 96:
		r.must(m.DeleteSubtree(txn, s.kids[ki].id))
		s.kids = append(s.kids[:ki], s.kids[ki+1:]...)
		r.done["DeleteSubtree/leaf"]++
	default:
		if len(r.sections) < 4 {
			return
		}
		r.must(m.DeleteSubtree(txn, s.id))
		r.sections = append(r.sections[:si], r.sections[si+1:]...)
		r.done["DeleteSubtree/section"]++
	}
}

// undoBase builds the pre-transaction document: a few sections with text
// children and attributes (an id attribute on every other one), one of them
// relabelled, so the transaction works on relabelled SPLIDs too.
func undoBase(t *testing.T, backend pagestore.Backend, seed int64) (*storage.Document, []undoSection) {
	t.Helper()
	d, err := storage.Create(backend, "doc", storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	b := d.NewBuilder()
	for s := 0; s < 8; s++ {
		b.StartElement("section")
		if s%2 == 0 {
			b.Attribute(storage.IDAttrName, fmt.Sprintf("s-%d", s))
		}
		if s%3 == 0 {
			b.Attribute("lang", "en")
		}
		for k := 0; k < 3; k++ {
			v := make([]byte, 600+rng.Intn(200))
			for i := range v {
				v[i] = 'A' + byte(rng.Intn(26))
			}
			b.Text(string(v))
		}
		b.EndElement()
	}
	if b.Err() != nil {
		t.Fatal(b.Err())
	}
	first, err := d.FirstChild(d.Root())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.RelabelSubtree(first.ID); err != nil {
		t.Fatal(err)
	}
	var sections []undoSection
	err = d.ScanChildren(d.Root(), func(n xmlmodel.Node) bool {
		sections = append(sections, undoSection{id: n.ID})
		return true
	})
	for i := range sections {
		s := &sections[i]
		if err == nil {
			err = d.ScanChildren(s.id, func(n xmlmodel.Node) bool {
				s.kids = append(s.kids, undoKid{n.ID, true})
				return true
			})
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	return d, sections
}

func exportDoc(t *testing.T, d *storage.Document) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := d.ExportXML(&buf, d.Root()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// undoOracle runs one seeded transaction of ops operations on a fresh
// document, with or without a WAL, rolls it back by every route open to that
// configuration, and reports the routes whose result differs from the
// pre-transaction export (or fails Document.Verify).
func undoOracle(t *testing.T, seed int64, ops int, withWAL bool) (failed []string, done map[string]int) {
	t.Helper()
	backend := pagestore.NewMemBackend()
	d, sections := undoBase(t, backend, seed)
	defer d.Close()
	var segs *wal.MemSegmentStore
	var log *wal.Log
	if withWAL {
		segs = wal.NewMemSegmentStore()
		var err error
		if log, err = wal.Open(segs, wal.Config{}); err != nil {
			t.Fatal(err)
		}
		if err := d.AttachWAL(log); err != nil {
			t.Fatal(err)
		}
	}
	m := New(d, protocol.TaDOM3Plus, Options{Depth: -1})
	defer m.Close()
	if log != nil {
		m.TxManager().SetWAL(log)
	}
	before := exportDoc(t, d)
	pages := backend.NumPages()

	r := &undoRun{t: t, m: m, txn: m.Begin(tx.LevelRepeatable), rng: rand.New(rand.NewSource(seed)),
		sections: sections, done: map[string]int{}}
	for i := 0; i < ops; i++ {
		r.step()
	}
	if bytes.Equal(exportDoc(t, d), before) {
		t.Fatal("the transaction changed nothing")
	}
	if d.Store().Backend().NumPages() == pages {
		t.Error("the transaction allocated no page: no leaf split")
	}
	check := func(route string, doc *storage.Document) {
		if err := doc.Verify(); err != nil {
			t.Logf("seed %d, %s: verify: %v", seed, route, err)
			failed = append(failed, route)
		} else if !bytes.Equal(exportDoc(t, doc), before) {
			t.Logf("seed %d, %s: export differs from the pre-transaction export", seed, route)
			failed = append(failed, route)
		}
	}

	if withWAL {
		// Route (ii): what a crash right here leaves behind — the pages the
		// buffer happened to write back, and the forced log.
		r.must(log.Force(log.NextLSN()))
		crashedPages, crashedLog := backend.Clone(), segs.Clone()
		crashedLog.Crash()
		log2, err := wal.Open(crashedLog, wal.Config{})
		r.must(err)
		recovered, rep, err := storage.Recover(crashedPages, log2, storage.Options{})
		r.must(err)
		if len(rep.Losers) != 1 || rep.Losers[0] != r.txn.ID() {
			t.Errorf("recovery rolled back %v, want the one open transaction %d", rep.Losers, r.txn.ID())
		}
		check("recover", recovered)
		r.must(recovered.Close())
		r.must(log2.Close())
	}
	// Routes (i) and (iii): the runtime abort.
	r.must(r.txn.Abort())
	route := "abort"
	if !withWAL {
		route = "abort-nowal"
	}
	check(route, d)
	if err := m.Audit(); err != nil {
		t.Errorf("seed %d: %v", seed, err)
	}
	if log != nil {
		r.must(log.Close())
	}
	return failed, r.done
}

// TestUndoEquivalenceOracle: runtime abort with a log, recovery of a crash
// before the abort, and runtime abort without a log all restore the
// pre-transaction document.
func TestUndoEquivalenceOracle(t *testing.T) {
	seeds := 24
	if testing.Short() {
		seeds = 6
	}
	for seed := 0; seed < seeds; seed++ {
		seed := int64(seed)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			ops := 250
			if seed == 0 && !testing.Short() {
				ops = 3200 // deep enough to split internal pages inside the transaction
			}
			var failed []string
			var done map[string]int
			for _, withWAL := range []bool{true, false} {
				f, d := undoOracle(t, 7300+seed, ops, withWAL)
				failed, done = append(failed, f...), d
			}
			if len(failed) > 0 {
				t.Fatalf("routes %v do not restore the pre-transaction document", failed)
			}
			for _, kind := range []string{"AppendText", "AppendElement", "InsertElementBefore",
				"SetAttribute/new", "SetAttribute/existing", "SetAttribute/id", "SetValue", "Rename",
				"DeleteSubtree/leaf", "DeleteSubtree/section"} {
				if done[kind] == 0 {
					t.Errorf("the run performed no %s (%v)", kind, done)
				}
			}
		})
	}
}
