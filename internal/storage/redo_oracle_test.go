package storage

// Redo-completeness oracle: the log alone must reproduce the buffer pool.
//
// A seeded random sequence of all eight write operations runs on a logged
// document whose pages never leave the buffer (no flusher). A copy of the
// backend taken at WAL attach is then recovered from the log, the live
// store is flushed, and the two backends must agree byte for byte. Any
// change a write path makes without declaring the page first
// (Frame.MarkDirty before the first byte changes) is a change the capture
// never sees — an empty diff, nothing logged — and shows up here as a page
// that differs. TestRedoOracleCatchesLateDeclaration proves that by
// mutation.

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/pagestore"
	"repro/internal/splid"
	"repro/internal/wal"
	"repro/internal/xmlmodel"
)

// oracleSection is one child element of the root and its text children.
type oracleSection struct {
	id    splid.ID
	texts []splid.ID
}

// oracleRun drives the random write sequence of one oracle run.
type oracleRun struct {
	t        *testing.T
	d        *Document
	log      *wal.Log
	rng      *rand.Rand
	txn      uint64
	sections []oracleSection
	lastRoot splid.ID // greatest label handed out under the root
	names    int      // fresh names interned so far (vocabulary growth)
}

func (r *oracleRun) must(err error) {
	r.t.Helper()
	if err != nil {
		r.t.Fatal(err)
	}
}

func (r *oracleRun) value() []byte {
	v := make([]byte, 1700+r.rng.Intn(200))
	r.rng.Read(v)
	return v
}

// name returns an element name: mostly one of a few, now and then a new one,
// which grows the vocabulary and so rewrites the metadata page.
func (r *oracleRun) name() string {
	if r.rng.Intn(40) == 0 {
		r.names++
		return fmt.Sprintf("kind%d", r.names)
	}
	return [...]string{"section", "chapter", "note"}[r.rng.Intn(3)]
}

func (r *oracleRun) addSection() {
	if r.lastRoot.IsNull() {
		r.lastRoot = r.d.Allocator().FirstChild(r.d.Root())
	} else {
		r.lastRoot = r.d.Allocator().NextSibling(r.lastRoot)
	}
	_, err := r.d.ForTx(r.txn).InsertElement(r.lastRoot, r.name())
	r.must(err)
	r.sections = append(r.sections, oracleSection{id: r.lastRoot})
}

func (r *oracleRun) addText(s *oracleSection) {
	alloc := r.d.Allocator()
	id := alloc.FirstChild(s.id)
	if n := len(s.texts); n > 0 {
		id = alloc.NextSibling(s.texts[n-1])
	}
	_, err := r.d.ForTx(r.txn).InsertText(id, r.value())
	r.must(err)
	s.texts = append(s.texts, id)
}

func (r *oracleRun) subtree(id splid.ID) []xmlmodel.Node {
	var nodes []xmlmodel.Node
	r.must(r.d.ScanSubtree(id, func(n xmlmodel.Node) bool {
		nodes = append(nodes, n)
		return true
	}))
	return nodes
}

// step performs one random write operation. The mix grows the document:
// most operations add a text node of a quarter page, so leaves split every
// few inserts and the run ends several hundred leaves wide.
func (r *oracleRun) step() {
	tx := r.d.ForTx(r.txn)
	if len(r.sections) < 24 {
		r.addSection()
		return
	}
	i := r.rng.Intn(len(r.sections))
	s := &r.sections[i]
	if len(s.texts) == 0 {
		r.addText(s)
		return
	}
	j := r.rng.Intn(len(s.texts))
	switch k := r.rng.Intn(100); {
	case k < 1:
		r.addSection()
	case k < 70:
		r.addText(s)
	case k < 76:
		attr := [...]string{IDAttrName, "lang", "rev"}[r.rng.Intn(3)]
		_, err := tx.SetAttribute(s.id, attr, []byte(fmt.Sprintf("%s-%d", attr, r.rng.Int63())))
		r.must(err)
	case k < 88:
		r.must(tx.SetValue(s.texts[j], r.value()))
	case k < 92:
		r.must(tx.Rename(s.id, r.name()))
	case k < 96:
		_, err := tx.DeleteSubtree(s.texts[j])
		r.must(err)
		s.texts = append(s.texts[:j], s.texts[j+1:]...)
	case k < 98:
		nodes := r.subtree(s.id)
		n, err := tx.DeleteSubtree(s.id)
		r.must(err)
		if n != len(nodes) {
			r.t.Fatalf("DeleteSubtree removed %d nodes, scan saw %d", n, len(nodes))
		}
		r.must(tx.RestoreSubtree(nodes))
	default:
		root, err := r.d.RelabelSubtree(s.id)
		r.must(err)
		s.id, s.texts = root, s.texts[:0]
		r.must(r.d.ScanChildren(root, func(n xmlmodel.Node) bool {
			s.texts = append(s.texts, n.ID)
			return true
		}))
	}
}

// steps runs n operations, committing the running transaction every 50.
func (r *oracleRun) steps(n int) {
	for i := 0; i < n; i++ {
		r.step()
		if i%50 == 49 {
			commitTxn(r.t, r.log, r.txn)
			r.txn++
		}
	}
}

// oracleOps is the run length at which the document tree reaches depth 3.
const oracleOps = 3200

// redoOracle runs a write sequence of about ops operations for seed —
// calling mutate, if any, after the deletes — and returns the pages on which
// the flushed live store and the store recovered from the log alone
// disagree.
func redoOracle(t *testing.T, seed int64, ops int, mutate func(d *Document)) []pagestore.PageID {
	t.Helper()
	backend := pagestore.NewMemBackend()
	segs := wal.NewMemSegmentStore()
	d, log := newLoggedDoc(t, backend, segs)
	defer d.Close()
	baseline := backend.Clone() // AttachWAL has just flushed: the log starts here

	r := &oracleRun{t: t, d: d, log: log, rng: rand.New(rand.NewSource(seed)), txn: 1}
	// Grow (leaf splits, then internal splits), thin out (whole leaves empty
	// onto the free list), then grow again by less than was freed.
	r.steps(ops)
	grown := backend.NumPages()
	for len(r.sections) > 3 {
		_, err := d.ForTx(r.txn).DeleteSubtree(r.sections[0].id)
		r.must(err)
		r.sections = r.sections[1:]
	}
	if mutate != nil {
		mutate(d)
	}
	r.steps(ops / 8)
	commitTxn(t, log, r.txn)

	st, err := d.doc.Stats()
	r.must(err)
	if ops >= oracleOps && st.Depth < 3 {
		t.Errorf("document tree depth %d: the run split no internal page", st.Depth)
	}
	if n := backend.NumPages(); n != grown {
		t.Errorf("backend grew from %d to %d pages after the deletes: freed pages were not reused", grown, n)
	}
	if r.names == 0 {
		t.Error("the run interned no new name: the metadata page was never rewritten")
	}

	log2, err := wal.Open(segs.Clone(), wal.Config{})
	r.must(err)
	recovered, rep, err := Recover(baseline, log2, Options{})
	r.must(err)
	defer recovered.Close()
	if len(rep.Losers) != 0 {
		t.Fatalf("recovery rolled back %v; every transaction of the run committed", rep.Losers)
	}
	r.must(recovered.Verify())
	r.must(d.Flush())

	if ln, rn := backend.NumPages(), baseline.NumPages(); ln != rn {
		t.Fatalf("live store has %d pages, recovered store %d", ln, rn)
	}
	var diverged []pagestore.PageID
	live, redone := make([]byte, pagestore.PageSize), make([]byte, pagestore.PageSize)
	for id := pagestore.PageID(0); id < backend.NumPages(); id++ {
		r.must(backend.ReadPage(id, live))
		r.must(baseline.ReadPage(id, redone))
		if !bytes.Equal(live, redone) {
			diverged = append(diverged, id)
		}
	}
	return diverged
}

// TestRedoOracle: everything the write paths change is in the log.
func TestRedoOracle(t *testing.T) {
	seeds, ops := 2, oracleOps
	if testing.Short() {
		seeds, ops = 1, oracleOps/2
	}
	for seed := 0; seed < seeds; seed++ {
		seed := int64(seed)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			if diverged := redoOracle(t, 4100+seed, ops, nil); len(diverged) != 0 {
				t.Fatalf("pages %v differ between the live store and the store redone from the log", diverged)
			}
		})
	}
}

// TestRedoOracleCatchesLateDeclaration shows the oracle bites. One logged
// operation flips an unused byte of the document tree's root page; declared
// first, the flip is logged and the oracle stays quiet; declared after the
// byte changed — the order every btree site had before write intents — the
// pre-image already holds the flip, the diff is empty, and the oracle must
// name the page.
func TestRedoOracleCatchesLateDeclaration(t *testing.T) {
	const unusedOff = pagestore.PageHeaderSize + 1 // btree page header, byte 1
	for _, declareFirst := range []bool{true, false} {
		var page pagestore.PageID
		diverged := redoOracle(t, 4200, oracleOps/4, func(d *Document) {
			err := d.ForTx(SystemTxn).logOp(func() ([]byte, error) {
				page = d.doc.Root()
				f, err := d.store.Fix(page)
				if err != nil {
					return nil, err
				}
				defer d.store.Unfix(f)
				if declareFirst {
					f.MarkDirty()
				}
				f.Data()[unusedOff] ^= 0xFF
				f.MarkDirty()
				return nil, nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
		switch {
		case declareFirst && len(diverged) != 0:
			t.Errorf("declared before writing: pages %v diverge, want none", diverged)
		case !declareFirst && (len(diverged) != 1 || diverged[0] != page):
			t.Errorf("declared after writing page %d: oracle reports %v, want exactly that page", page, diverged)
		}
	}
}
