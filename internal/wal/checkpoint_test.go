package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/pagestore"
)

func TestCheckpointCodecRoundTrip(t *testing.T) {
	cases := []*Checkpoint{
		{RedoLSN: 1},
		{RedoLSN: 4096, Dirty: []pagestore.DirtyPage{{Page: 3, RecLSN: 4096}}},
		{
			RedoLSN: 123456789,
			Dirty: []pagestore.DirtyPage{
				{Page: 0, RecLSN: 123456789},
				{Page: 7, RecLSN: 900000000},
				{Page: 4_000_000_000, RecLSN: 1},
			},
			Active: []AttEntry{
				{Txn: 1, FirstLSN: 200000000},
				{Txn: 18446744073709551615, FirstLSN: 999999999},
			},
		},
	}
	for i, ck := range cases {
		got, err := DecodeCheckpoint(EncodeCheckpoint(ck))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		got.LSN = ck.LSN // LSN travels in the record header, not the payload
		if !reflect.DeepEqual(got, ck) {
			t.Fatalf("case %d: round trip %+v, want %+v", i, got, ck)
		}
	}
}

func TestDecodeCheckpointHostile(t *testing.T) {
	valid := EncodeCheckpoint(&Checkpoint{
		RedoLSN: 500,
		Dirty:   []pagestore.DirtyPage{{Page: 1, RecLSN: 500}, {Page: 2, RecLSN: 600}},
		Active:  []AttEntry{{Txn: 9, FirstLSN: 450}},
	})

	badVersion := append([]byte(nil), valid...)
	badVersion[0] = 99

	// A dirty count claiming ~357M entries in a few bytes: must be rejected
	// by length validation before any allocation happens.
	hugeDirty := append([]byte(nil), valid[:13]...)
	binary.LittleEndian.PutUint32(hugeDirty[9:], 0xFFFFFFF)

	hugeActive := append([]byte(nil), valid[:13]...)
	binary.LittleEndian.PutUint32(hugeActive[9:], 0) // no dirty entries
	hugeActive = append(hugeActive, 0xFF, 0xFF, 0xFF, 0x0F)

	cases := map[string][]byte{
		"empty":             nil,
		"too short":         valid[:5],
		"header only":       valid[:12],
		"bad version":       badVersion,
		"huge dirty count":  hugeDirty,
		"huge active count": hugeActive,
		"truncated dirty":   valid[:20],
		"missing att count": valid[:len(valid)-17],
		"truncated att":     valid[:len(valid)-1],
		"trailing byte":     append(append([]byte(nil), valid...), 0),
		"trailing bytes":    append(append([]byte(nil), valid...), 1, 2, 3),
	}
	for name, p := range cases {
		if _, err := DecodeCheckpoint(p); !errors.Is(err, ErrCorruptCheckpoint) {
			t.Errorf("%s: err = %v, want ErrCorruptCheckpoint", name, err)
		}
	}
	if _, err := DecodeCheckpoint(valid); err != nil {
		t.Fatalf("valid payload rejected: %v", err)
	}
}

func TestMasterRecordRoundTrip(t *testing.T) {
	store := NewMemSegmentStore()
	if m, ok := readMaster(store); ok {
		t.Fatalf("fresh store has a master: %+v", m)
	}
	want := masterRec{ckptLSN: 777, truncLSN: 555, keepIdx: 3, keepBase: 400}
	if err := store.WriteMaster(encodeMaster(want)); err != nil {
		t.Fatal(err)
	}
	got, ok := readMaster(store)
	if !ok || got != want {
		t.Fatalf("readMaster = %+v, %v; want %+v, true", got, ok, want)
	}

	// Flip one byte anywhere in the record: the CRC (or magic) must catch it.
	enc := encodeMaster(want)
	for i := range enc {
		bad := append([]byte(nil), enc...)
		bad[i] ^= 0x40
		if err := store.WriteMaster(bad); err != nil {
			t.Fatal(err)
		}
		if m, ok := readMaster(store); ok {
			t.Fatalf("corrupt master (byte %d) accepted: %+v", i, m)
		}
	}
	// Truncated master: rejected, not mis-parsed.
	if err := store.WriteMaster(enc[:masterSize-8]); err != nil {
		t.Fatal(err)
	}
	if _, ok := readMaster(store); ok {
		t.Fatal("truncated master accepted")
	}
}

func TestFileStoreMasterDurability(t *testing.T) {
	dir := t.TempDir()
	store, err := NewFileSegmentStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if data, err := store.ReadMaster(); err != nil || data != nil {
		t.Fatalf("fresh file store master = %v, %v; want nil, nil", data, err)
	}
	want := masterRec{ckptLSN: 42, truncLSN: 17, keepIdx: 1, keepBase: 9}
	if err := store.WriteMaster(encodeMaster(want)); err != nil {
		t.Fatal(err)
	}
	// A fresh handle on the same directory sees the same master (the write
	// went through temp+rename, so there is no half-written window).
	store2, err := NewFileSegmentStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := readMaster(store2)
	if !ok || got != want {
		t.Fatalf("reopened master = %+v, %v; want %+v, true", got, ok, want)
	}
}

// numSegs counts the store's live segments.
func numSegs(t *testing.T, store SegmentStore) int {
	t.Helper()
	idxs, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	return len(idxs)
}

// fillLog appends n op records of the given payload size under one
// transaction per record, committing each so the ATT stays empty. Each
// commit is forced individually to keep group-commit batches small enough
// that the log actually rotates segments.
func fillLog(t *testing.T, l *Log, n, size int) LSN {
	t.Helper()
	payload := bytes.Repeat([]byte{0xAB}, size)
	var last LSN
	for i := 0; i < n; i++ {
		txn := uint64(i + 1)
		if _, err := l.Append(RecOp, txn, payload); err != nil {
			t.Fatal(err)
		}
		lsn, err := l.AppendCommit(txn)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Force(lsn); err != nil {
			t.Fatal(err)
		}
		last = lsn
	}
	return last
}

func TestCheckpointGCsSegmentsAndReanchors(t *testing.T) {
	store := NewMemSegmentStore()
	l, err := Open(store, Config{SegmentSize: 1024, Retain: 1})
	if err != nil {
		t.Fatal(err)
	}
	fillLog(t, l, 40, 100) // ~4.5KiB of records across several segments
	if numSegs(t, store) < 3 {
		t.Fatalf("only %d segments; test needs rotation", numSegs(t, store))
	}
	before := numSegs(t, store)

	lsn, err := l.Checkpoint(nil)
	if err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.Checkpoints != 1 || st.CheckpointLSN != lsn {
		t.Fatalf("stats = %+v, want 1 checkpoint at %d", st, lsn)
	}
	if st.SegmentsGCed == 0 || numSegs(t, store) >= before {
		t.Fatalf("no GC: %d segments before, %d after, %d collected",
			before, numSegs(t, store), st.SegmentsGCed)
	}
	ck := l.LatestCheckpoint()
	if ck == nil || ck.LSN != lsn || len(ck.Active) != 0 {
		t.Fatalf("LatestCheckpoint = %+v", ck)
	}

	// The truncated log must reopen: bases re-anchor from the master record
	// even though segment 0 is gone, the checkpoint is found again, and both
	// appending and scanning from the checkpoint keep working.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(store, Config{SegmentSize: 1024, Retain: 1})
	if err != nil {
		t.Fatal(err)
	}
	ck2 := l2.LatestCheckpoint()
	if ck2 == nil || ck2.LSN != lsn {
		t.Fatalf("reopened checkpoint = %+v, want LSN %d", ck2, lsn)
	}
	post, err := l2.Append(RecCommit, 999, nil)
	if err != nil {
		t.Fatal(err)
	}
	if post <= lsn {
		t.Fatalf("post-reopen LSN %d not above checkpoint %d", post, lsn)
	}
	if err := l2.Force(post); err != nil {
		t.Fatal(err)
	}
	var got []LSN
	if err := l2.ScanFrom(ck2.RedoLSN, func(r Record) error {
		got = append(got, r.LSN)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || got[len(got)-1] != post {
		t.Fatalf("scan from redo LSN saw %d records, last %v, want last %d",
			len(got), got, post)
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("scan order broken: %v", got)
		}
	}
}

// TestCheckpointCrashSites crashes a checkpoint in each of its three
// windows: after the forced record (no checkpoint completes), after the
// master (complete, nothing removed), and after the second segment removal
// (exactly two removed) — GC counts one occurrence per removal.
func TestCheckpointCrashSites(t *testing.T) {
	for _, tc := range []struct {
		f           fault.Fault
		ckpts, gced uint64
	}{
		{fault.Fault{Site: fault.CkptForced, N: 1}, 0, 0},
		{fault.Fault{Site: fault.CkptMaster, N: 1}, 1, 0},
		{fault.Fault{Site: fault.CkptGC, N: 2}, 1, 2},
	} {
		t.Run(tc.f.Site.String(), func(t *testing.T) {
			plan := &fault.Plan{Schedule: []fault.Fault{tc.f}}
			l, err := Open(NewMemSegmentStore(), Config{SegmentSize: 1024, Retain: 1, Faults: plan})
			if err != nil {
				t.Fatal(err)
			}
			fillLog(t, l, 40, 100)
			plan.Arm()
			if _, err := l.Checkpoint(nil); !errors.Is(err, ErrCrashed) || !l.Crashed() {
				t.Fatalf("checkpoint = %v, want the log crashed", err)
			}
			if st := l.Stats(); st.Checkpoints != tc.ckpts || st.SegmentsGCed != tc.gced {
				t.Errorf("crash left %d checkpoints and %d segments collected, want %d and %d",
					st.Checkpoints, st.SegmentsGCed, tc.ckpts, tc.gced)
			}
			if plan.Injected() != 1 {
				t.Errorf("plan injected %d faults, want 1", plan.Injected())
			}
		})
	}
}

func TestCheckpointRetainKeepsNewestSegments(t *testing.T) {
	store := NewMemSegmentStore()
	l, err := Open(store, Config{SegmentSize: 1024, Retain: 64})
	if err != nil {
		t.Fatal(err)
	}
	fillLog(t, l, 40, 100)
	before := numSegs(t, store)
	if _, err := l.Checkpoint(nil); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.SegmentsGCed != 0 || numSegs(t, store) < before {
		t.Fatalf("retain 64 still collected %d of %d segments", st.SegmentsGCed, before)
	}
}

func TestCheckpointActiveTxnPinsSegments(t *testing.T) {
	store := NewMemSegmentStore()
	l, err := Open(store, Config{SegmentSize: 1024, Retain: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Transaction 1000 logs its first record in segment 0 and never
	// finishes (fillLog's own transactions all commit).
	const loser = 1000
	if _, err := l.Append(RecOp, loser, []byte("loser-first-record")); err != nil {
		t.Fatal(err)
	}
	fillLog(t, l, 40, 100)
	before := numSegs(t, store)
	if before < 3 {
		t.Fatalf("only %d segments; test needs rotation", before)
	}
	if _, err := l.Checkpoint(nil); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.SegmentsGCed != 0 || numSegs(t, store) < before {
		t.Fatalf("GC ran over an active transaction's records (%d collected)", st.SegmentsGCed)
	}
	if st.ActiveTxns != 1 {
		t.Fatalf("ActiveTxns = %d, want 1", st.ActiveTxns)
	}
	ck := l.LatestCheckpoint()
	if len(ck.Active) != 1 || ck.Active[0].Txn != loser {
		t.Fatalf("checkpoint ATT = %+v, want the loser", ck.Active)
	}

	// Ending the transaction unpins its records: the next checkpoint GCs.
	elsn, err := l.AppendEnd(loser)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Force(elsn); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Checkpoint(nil); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.SegmentsGCed == 0 {
		t.Fatal("segments stayed pinned after the transaction ended")
	}
}

// failMasterStore refuses master writes, simulating a full or failing disk
// at the worst moment.
type failMasterStore struct {
	*MemSegmentStore
	removed int
}

func (s *failMasterStore) WriteMaster([]byte) error {
	return errors.New("injected: master write failed")
}

func (s *failMasterStore) Remove(index uint64) error {
	s.removed++
	return s.MemSegmentStore.Remove(index)
}

func TestNoGCWithoutDurableMaster(t *testing.T) {
	store := &failMasterStore{MemSegmentStore: NewMemSegmentStore()}
	l, err := Open(store, Config{SegmentSize: 1024, Retain: 1})
	if err != nil {
		t.Fatal(err)
	}
	fillLog(t, l, 40, 100)
	if _, err := l.Checkpoint(nil); err == nil {
		t.Fatal("checkpoint succeeded despite master write failure")
	}
	if store.removed != 0 {
		t.Fatalf("%d segments removed although the master never became durable", store.removed)
	}
	if st := l.Stats(); st.Checkpoints != 0 || st.SegmentsGCed != 0 {
		t.Fatalf("stats advanced on a failed checkpoint: %+v", st)
	}
	if l.LatestCheckpoint() != nil {
		t.Fatal("failed checkpoint became the latest checkpoint")
	}
}

func TestCheckpointConcurrentWithAppends(t *testing.T) {
	store := NewMemSegmentStore()
	l, err := Open(store, Config{SegmentSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		payload := bytes.Repeat([]byte{1}, 64)
		for i := 0; i < 300; i++ {
			txn := uint64(i + 1)
			if _, err := l.Append(RecOp, txn, payload); err != nil {
				return
			}
			lsn, err := l.AppendCommit(txn)
			if err != nil {
				return
			}
			_ = l.Force(lsn)
		}
	}()
	for i := 0; i < 10; i++ {
		if _, err := l.Checkpoint(nil); err != nil {
			t.Fatalf("checkpoint %d: %v", i, err)
		}
	}
	<-done
	if st := l.Stats(); st.Checkpoints != 10 {
		t.Fatalf("Checkpoints = %d, want 10", st.Checkpoints)
	}
	// Every record from the final checkpoint's redo LSN on must scan clean.
	ck := l.LatestCheckpoint()
	if err := l.ScanFrom(ck.RedoLSN, func(Record) error { return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointSurvivesLogWithOnlyCheckpoints(t *testing.T) {
	// Degenerate but legal: a log whose only traffic is checkpoints must
	// keep checkpointing and reopening without ever GCing itself hollow.
	store := NewMemSegmentStore()
	l, err := Open(store, Config{SegmentSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	var last LSN
	for i := 0; i < 5; i++ {
		lsn, err := l.Checkpoint(nil)
		if err != nil {
			t.Fatalf("checkpoint %d: %v", i, err)
		}
		if lsn <= last {
			t.Fatalf("checkpoint LSNs not increasing: %d after %d", lsn, last)
		}
		last = lsn
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(store, Config{SegmentSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if ck := l2.LatestCheckpoint(); ck == nil || ck.LSN != last {
		t.Fatalf("reopened checkpoint = %+v, want LSN %d", ck, last)
	}
}

func TestCheckpointStatsString(t *testing.T) {
	// Guard the fmt contract the CLIs rely on: Stats fields exist and are
	// plain integers (a compile-time check more than a runtime one).
	st := Stats{Checkpoints: 1, SegmentsGCed: 2, CheckpointLSN: 3, TruncLSN: 4, ActiveTxns: 5}
	s := fmt.Sprintf("%d %d %d %d %d",
		st.Checkpoints, st.SegmentsGCed, st.CheckpointLSN, st.TruncLSN, st.ActiveTxns)
	if s != "1 2 3 4 5" {
		t.Fatal(s)
	}
}
