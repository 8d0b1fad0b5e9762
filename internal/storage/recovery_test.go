package storage

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/fault"
	"repro/internal/pagestore"
	"repro/internal/splid"
	"repro/internal/wal"
)

// newLoggedDoc builds a fresh document on backend with a WAL attached.
func newLoggedDoc(t *testing.T, backend pagestore.Backend, segs wal.SegmentStore) (*Document, *wal.Log) {
	t.Helper()
	d, err := Create(backend, "bib", Options{})
	if err != nil {
		t.Fatal(err)
	}
	log, err := wal.Open(segs, wal.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AttachWAL(log); err != nil {
		t.Fatal(err)
	}
	return d, log
}

// commitTxn force-writes a commit record for txn.
func commitTxn(t *testing.T, log *wal.Log, txn uint64) {
	t.Helper()
	lsn, err := log.AppendCommit(txn)
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Force(lsn); err != nil {
		t.Fatal(err)
	}
}

// snapshotPages copies every page of backend.
func snapshotPages(t *testing.T, backend pagestore.Backend) [][]byte {
	t.Helper()
	n := int(backend.NumPages())
	out := make([][]byte, n)
	for i := 0; i < n; i++ {
		p := make([]byte, pagestore.PageSize)
		if err := backend.ReadPage(pagestore.PageID(i), p); err != nil {
			t.Fatal(err)
		}
		out[i] = p
	}
	return out
}

func TestRecoverCommittedVisibleUncommittedRolledBack(t *testing.T) {
	backend := pagestore.NewMemBackend()
	segs := wal.NewMemSegmentStore()
	d, log := newLoggedDoc(t, backend, segs)
	alloc := d.Allocator()

	// Transaction 1 commits durably.
	e1 := alloc.FirstChild(d.Root())
	t1 := d.ForTx(1)
	if _, err := t1.InsertElement(e1, "book"); err != nil {
		t.Fatal(err)
	}
	if _, err := t1.SetAttribute(e1, "id", []byte("b1")); err != nil {
		t.Fatal(err)
	}
	commitTxn(t, log, 1)

	// Transaction 2 mutates — including changes to committed state — and
	// its dirty pages even reach the disk, but it never commits.
	e2 := alloc.NextSibling(e1)
	t2 := d.ForTx(2)
	if _, err := t2.InsertElement(e2, "article"); err != nil {
		t.Fatal(err)
	}
	if err := t2.Rename(e1, "journal"); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(); err != nil { // loser changes hit stable storage
		t.Fatal(err)
	}

	log.CrashNow()
	segs.Crash()

	log2, err := wal.Open(segs, wal.Config{})
	if err != nil {
		t.Fatal(err)
	}
	d2, rep, err := Recover(backend, log2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()

	if !rep.Committed[1] {
		t.Error("txn 1 not seen as committed")
	}
	if len(rep.Losers) != 1 || rep.Losers[0] != 2 {
		t.Errorf("Losers = %v, want [2]", rep.Losers)
	}
	if rep.UndoneOps == 0 {
		t.Error("no undo applied for the loser")
	}

	n, err := d2.GetNode(e1)
	if err != nil {
		t.Fatalf("committed element lost: %v", err)
	}
	if got := d2.Vocabulary().Name(n.Name); got != "book" {
		t.Errorf("loser rename survived: element named %q, want book", got)
	}
	a, err := d2.AttributeByName(e1, "id")
	if err != nil || a.ID.IsNull() {
		t.Fatalf("committed attribute lost: %v", err)
	}
	if v, err := d2.Value(a.ID); err != nil || string(v) != "b1" {
		t.Errorf("attribute value = %q, %v; want b1", v, err)
	}
	if ok, _ := d2.Exists(e2); ok {
		t.Error("uncommitted element visible after recovery")
	}
	if err := d2.Verify(); err != nil {
		t.Errorf("Verify after recovery: %v", err)
	}
}

func TestRecoverIdempotent(t *testing.T) {
	backend := pagestore.NewMemBackend()
	segs := wal.NewMemSegmentStore()
	d, log := newLoggedDoc(t, backend, segs)
	alloc := d.Allocator()

	e1 := alloc.FirstChild(d.Root())
	if _, err := d.ForTx(1).InsertElement(e1, "book"); err != nil {
		t.Fatal(err)
	}
	commitTxn(t, log, 1)
	e2 := alloc.NextSibling(e1)
	if _, err := d.ForTx(2).InsertElement(e2, "article"); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	log.CrashNow()
	segs.Crash()

	log2, err := wal.Open(segs, wal.Config{})
	if err != nil {
		t.Fatal(err)
	}
	d2, rep1, err := Recover(backend, log2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep1.Losers) != 1 {
		t.Fatalf("first recovery Losers = %v", rep1.Losers)
	}
	want := snapshotPages(t, backend)

	// Crash again immediately and recover a second time: the rolled-back
	// loser is ended, so the second pass must change nothing.
	_ = d2
	log2.CrashNow()
	segs.Crash()
	log3, err := wal.Open(segs, wal.Config{})
	if err != nil {
		t.Fatal(err)
	}
	d3, rep2, err := Recover(backend, log3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d3.Close()
	if len(rep2.Losers) != 0 || rep2.UndoneOps != 0 {
		t.Errorf("second recovery rolled back again: losers %v, undone %d",
			rep2.Losers, rep2.UndoneOps)
	}
	got := snapshotPages(t, backend)
	if len(got) != len(want) {
		t.Fatalf("page count changed: %d -> %d", len(want), len(got))
	}
	for i := range want {
		if !bytes.Equal(want[i], got[i]) {
			t.Errorf("page %d not byte-identical after repeated recovery", i)
		}
	}
	if err := d3.Verify(); err != nil {
		t.Errorf("Verify: %v", err)
	}
}

func TestRecoverInterruptedMidRedo(t *testing.T) {
	// Committed work that never reached the disk forces redo writes; a torn
	// write injected into the FIRST recovery attempt leaves a page whose
	// checksum fails, and the retry must heal it from the logged full image.
	plan := &fault.Plan{Schedule: []fault.Fault{{Site: fault.PageWrite, N: 1, Permanent: true, Torn: true}}}
	fb := &pagestore.FaultBackend{Backend: pagestore.NewMemBackend(), Plan: plan}
	segs := wal.NewMemSegmentStore()
	d, log := newLoggedDoc(t, fb, segs)
	alloc := d.Allocator()

	e1 := alloc.FirstChild(d.Root())
	var kids []splid.ID
	if _, err := d.ForTx(1).InsertElement(e1, "book"); err != nil {
		t.Fatal(err)
	}
	prev := alloc.FirstChild(e1)
	for i := 0; i < 20; i++ {
		if _, err := d.ForTx(1).InsertElement(prev, "title"); err != nil {
			t.Fatal(err)
		}
		kids = append(kids, prev)
		prev = alloc.NextSibling(prev)
	}
	commitTxn(t, log, 1)
	// No Flush: the committed pages exist only in the log.
	log.CrashNow()
	segs.Crash()

	log2, err := wal.Open(segs, wal.Config{})
	if err != nil {
		t.Fatal(err)
	}
	plan.Arm()
	if _, _, err := Recover(fb, log2, Options{}); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("interrupted recovery error = %v, want injected fault", err)
	}
	plan.Disarm()

	d2, _, err := Recover(fb, log2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	for _, id := range kids {
		if ok, _ := d2.Exists(id); !ok {
			t.Fatalf("committed node %v missing after interrupted recovery", id)
		}
	}
	if err := d2.Verify(); err != nil {
		t.Errorf("Verify: %v", err)
	}
}

func TestRecoverHealsCorruptPages(t *testing.T) {
	// Corrupt every page the log holds a full image for (the first-touch
	// image rule covers every page written back during the WAL epoch) and
	// demand that recovery rebuilds each one from the log.
	backend := pagestore.NewMemBackend()
	segs := wal.NewMemSegmentStore()
	d, log := newLoggedDoc(t, backend, segs)
	alloc := d.Allocator()

	e1 := alloc.FirstChild(d.Root())
	if _, err := d.ForTx(1).InsertElement(e1, "book"); err != nil {
		t.Fatal(err)
	}
	prev := alloc.FirstChild(e1)
	var kids []splid.ID
	for i := 0; i < 20; i++ {
		if _, err := d.ForTx(1).InsertElement(prev, "title"); err != nil {
			t.Fatal(err)
		}
		kids = append(kids, prev)
		prev = alloc.NextSibling(prev)
	}
	commitTxn(t, log, 1)
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	log.CrashNow()
	segs.Crash()

	log2, err := wal.Open(segs, wal.Config{})
	if err != nil {
		t.Fatal(err)
	}
	imaged := map[pagestore.PageID]bool{}
	if err := log2.Scan(func(r wal.Record) error {
		if r.Type != wal.RecOp {
			return nil
		}
		_, deltas, err := wal.DecodeOp(r.Payload)
		if err != nil {
			return err
		}
		for _, dl := range deltas {
			if dl.FullImage() {
				imaged[dl.Page] = true
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(imaged) == 0 {
		t.Fatal("no full-page images in the log")
	}
	for id := range imaged {
		p := make([]byte, pagestore.PageSize)
		if err := backend.ReadPage(id, p); err != nil {
			t.Fatal(err)
		}
		p[5000] ^= 0xFF // simulated bit rot / torn write residue
		if err := backend.WritePage(id, p); err != nil {
			t.Fatal(err)
		}
	}

	d2, rep, err := Recover(backend, log2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if rep.HealedPages != len(imaged) {
		t.Errorf("HealedPages = %d, want %d", rep.HealedPages, len(imaged))
	}
	for _, id := range kids {
		if ok, _ := d2.Exists(id); !ok {
			t.Fatalf("committed node %v missing after healing", id)
		}
	}
	if err := d2.Verify(); err != nil {
		t.Errorf("Verify: %v", err)
	}
}
