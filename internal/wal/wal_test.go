package wal

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/pagestore"
)

func TestAppendForceScanRoundTrip(t *testing.T) {
	store := NewMemSegmentStore()
	l, err := Open(store, Config{})
	if err != nil {
		t.Fatal(err)
	}
	type want struct {
		lsn LSN
		typ byte
		txn uint64
		pay string
	}
	var wants []want
	for i := 0; i < 20; i++ {
		pay := fmt.Sprintf("payload-%d", i)
		lsn, err := l.Append(RecOp, uint64(i%3+1), []byte(pay))
		if err != nil {
			t.Fatal(err)
		}
		wants = append(wants, want{lsn, RecOp, uint64(i%3 + 1), pay})
	}
	clsn, err := l.AppendCommit(7)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Force(clsn); err != nil {
		t.Fatal(err)
	}
	var got []Record
	if err := l.Scan(func(r Record) error { got = append(got, r); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(wants)+1 {
		t.Fatalf("scanned %d records, want %d", len(got), len(wants)+1)
	}
	for i, w := range wants {
		r := got[i]
		if r.LSN != w.lsn || r.Type != w.typ || r.Txn != w.txn || string(r.Payload) != w.pay {
			t.Fatalf("record %d = %+v, want %+v", i, r, w)
		}
	}
	last := got[len(got)-1]
	if last.Type != RecCommit || last.Txn != 7 || last.LSN != clsn {
		t.Fatalf("commit record = %+v", last)
	}
	// LSNs are dense byte offsets.
	for i := 1; i < len(got); i++ {
		if got[i].LSN != got[i-1].LSN+LSN(frameSize(len(got[i-1].Payload))) {
			t.Fatalf("LSN gap between records %d and %d", i-1, i)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSegmentRotationAndReopen(t *testing.T) {
	store := NewMemSegmentStore()
	l, err := Open(store, Config{SegmentSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xEE}, 64)
	var lsns []LSN
	for i := 0; i < 40; i++ {
		lsn, err := l.Append(RecOp, 1, payload)
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
		// Force each record so batches stay small and rotation triggers.
		if err := l.Force(lsn); err != nil {
			t.Fatal(err)
		}
	}
	if st := l.Stats(); st.Rotations < 5 {
		t.Errorf("Rotations = %d, want several with 256-byte segments", st.Rotations)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := store.List()
	if len(segs) < 5 {
		t.Fatalf("segments on disk = %d", len(segs))
	}

	// Reopen: LSNs continue where they left off, all records scannable.
	l2, err := Open(store, Config{SegmentSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	n := 0
	if err := l2.Scan(func(r Record) error {
		if r.LSN != lsns[n] {
			return fmt.Errorf("record %d LSN %d, want %d", n, r.LSN, lsns[n])
		}
		n++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n != len(lsns) {
		t.Fatalf("reopened scan saw %d records, want %d", n, len(lsns))
	}
	lsn, err := l2.Append(RecEnd, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lsn != lsns[len(lsns)-1]+LSN(frameSize(64)) {
		t.Errorf("post-reopen LSN %d does not continue the sequence", lsn)
	}
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	store := NewMemSegmentStore()
	l, err := Open(store, Config{})
	if err != nil {
		t.Fatal(err)
	}
	lsn, _ := l.Append(RecOp, 1, []byte("keep me"))
	if err := l.Force(lsn); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Smash a partial frame onto the tail, as a crash mid-write would.
	segs, _ := store.List()
	last := segs[len(segs)-1]
	seg := store.segs[last]
	clean := len(seg.buf)
	seg.buf = append(seg.buf, 0xDE, 0xAD, 0xBE)
	seg.synced = len(seg.buf)

	l2, err := Open(store, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got, _ := store.ReadAll(last); len(got) != clean {
		t.Errorf("torn tail not truncated: %d bytes, want %d", len(got), clean)
	}
	n := 0
	if err := l2.Scan(func(r Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("scan after truncation saw %d records, want 1", n)
	}
}

func TestCorruptionBeforeTailRejected(t *testing.T) {
	store := NewMemSegmentStore()
	l, err := Open(store, Config{SegmentSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		lsn, _ := l.Append(RecOp, 1, bytes.Repeat([]byte{byte(i)}, 48))
		if err := l.Force(lsn); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := store.List()
	if len(segs) < 2 {
		t.Fatalf("need multiple segments, have %d", len(segs))
	}
	// Flip a byte in the first segment: corruption before later segments.
	store.segs[segs[0]].buf[10] ^= 0xFF
	if _, err := Open(store, Config{}); !errors.Is(err, ErrCorruptLog) {
		t.Fatalf("Open on mid-log corruption = %v, want ErrCorruptLog", err)
	}
}

// TestCrashAtPlannedAppend: a plan that schedules the third append crashes
// the log there, exactly once — the first two appends pass, the third and
// everything after fail with ErrCrashed, except a force of what was already
// durable — and a power failure keeps only what was synced.
func TestCrashAtPlannedAppend(t *testing.T) {
	store := NewMemSegmentStore()
	plan := &fault.Plan{Schedule: []fault.Fault{{Site: fault.LogAppend, N: 3}}}
	plan.Arm()
	l, err := Open(store, Config{Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	l1, err := l.Append(RecOp, 1, []byte("one"))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Force(l1); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(RecOp, 1, []byte("two")); err != nil {
		t.Fatal(err) // second append accepted, never forced
	}
	if _, err := l.Append(RecOp, 1, []byte("three")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("third append = %v, want ErrCrashed", err)
	}
	if !l.Crashed() {
		t.Fatal("log not crashed")
	}
	if _, err := l.Append(RecCommit, 1, nil); !errors.Is(err, ErrCrashed) {
		t.Errorf("append after crash = %v", err)
	}
	if err := l.Force(l1 + 1000); !errors.Is(err, ErrCrashed) {
		t.Errorf("force after crash = %v", err)
	}
	// A record synced before the crash stays durable, and Force says so.
	if err := l.Force(l1); err != nil {
		t.Errorf("force of a record synced before the crash = %v", err)
	}
	// FlushTo(0) must fail too: the WAL rule uses it as the write-back
	// barrier, and after a crash nothing may be written back.
	if err := l.FlushTo(0); !errors.Is(err, ErrCrashed) {
		t.Errorf("FlushTo(0) after crash = %v", err)
	}
	if plan.Fired(fault.LogAppend) != 1 || plan.Seen(fault.LogAppend) != 3 {
		t.Errorf("plan fired %d of %d appends, want 1 of 3 (a crashed log consults no plan)",
			plan.Fired(fault.LogAppend), plan.Seen(fault.LogAppend))
	}

	// Power failure: only synced bytes survive; record two was pending.
	store.Crash()
	l2, err := Open(store, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	var pays []string
	if err := l2.Scan(func(r Record) error { pays = append(pays, string(r.Payload)); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(pays) != 1 || pays[0] != "one" {
		t.Fatalf("surviving records = %q, want [one]", pays)
	}
}

// TestCrashPlanDisarmedAndSeeded: a disarmed plan that would fail every
// append passes them all, and two logs under equal seeds crash at the same
// append.
func TestCrashPlanDisarmedAndSeeded(t *testing.T) {
	crashAt := func(plan *fault.Plan) int {
		l, err := Open(NewMemSegmentStore(), Config{Faults: plan})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		for i := 1; i <= 500; i++ {
			if _, err := l.Append(RecOp, 1, []byte("x")); errors.Is(err, ErrCrashed) {
				return i
			} else if err != nil {
				t.Fatal(err)
			}
		}
		return 0
	}
	plan := func(seed int64, p float64) *fault.Plan {
		plan := &fault.Plan{Seed: seed}
		plan.Prob[fault.LogAppend] = p
		return plan
	}
	if n := crashAt(plan(1, 1)); n != 0 {
		t.Fatalf("disarmed plan crashed the log at append %d", n)
	}
	a, b := plan(7, 0.05), plan(7, 0.05)
	a.Arm()
	b.Arm()
	if na, nb := crashAt(a), crashAt(b); na == 0 || na != nb {
		t.Fatalf("seed 7 crashed the log at appends %d and %d", na, nb)
	}
}

// delayStore wraps MemSegmentStore with a slow Sync so concurrent commits
// pile up behind the flusher and share fsyncs.
type delayStore struct {
	*MemSegmentStore
	delay time.Duration
}

type delaySegment struct {
	Segment
	delay time.Duration
}

func (s *delayStore) Create(index uint64) (Segment, error) {
	seg, err := s.MemSegmentStore.Create(index)
	if err != nil {
		return nil, err
	}
	return &delaySegment{Segment: seg, delay: s.delay}, nil
}

func (s *delaySegment) Sync() error {
	time.Sleep(s.delay)
	return s.Segment.Sync()
}

func TestGroupCommitSharesSyncs(t *testing.T) {
	store := &delayStore{MemSegmentStore: NewMemSegmentStore(), delay: 200 * time.Microsecond}
	l, err := Open(store, Config{})
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 8, 16
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				lsn, err := l.Append(RecCommit, uint64(w+1), nil)
				if err != nil {
					t.Error(err)
					return
				}
				if err := l.Force(lsn); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := l.Stats()
	if st.Appends != writers*perWriter {
		t.Fatalf("Appends = %d", st.Appends)
	}
	if st.Syncs >= st.Appends {
		t.Errorf("group commit ineffective: %d syncs for %d appends", st.Syncs, st.Appends)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	n := 0
	l2, _ := Open(store.MemSegmentStore, Config{})
	defer l2.Close()
	l2.Scan(func(Record) error { n++; return nil }) //nolint:errcheck
	if n != writers*perWriter {
		t.Errorf("scan saw %d records, want %d", n, writers*perWriter)
	}
}

func TestEncodeDecodeOp(t *testing.T) {
	undo := []byte("logical undo payload")
	deltas := []pagestore.PageDelta{
		{Page: 3, Off: 16, Data: []byte("abc")},
		{Page: 9, Off: pagestore.PageHeaderSize, Data: bytes.Repeat([]byte{7}, pagestore.PageSize-pagestore.PageHeaderSize)},
		{Page: 4, Off: 8000, Data: []byte{1, 2, 3, 4}},
	}
	enc := EncodeOp(undo, deltas)
	u2, d2, err := DecodeOp(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(u2, undo) {
		t.Error("undo payload mismatch")
	}
	if len(d2) != len(deltas) {
		t.Fatalf("decoded %d deltas", len(d2))
	}
	for i := range deltas {
		if d2[i].Page != deltas[i].Page || d2[i].Off != deltas[i].Off || !bytes.Equal(d2[i].Data, deltas[i].Data) {
			t.Errorf("delta %d mismatch", i)
		}
	}
	if !d2[1].FullImage() || d2[0].FullImage() {
		t.Error("FullImage misclassified")
	}
	// Truncated payloads must error, not panic.
	for cut := 0; cut < len(enc); cut += 7 {
		if _, _, err := DecodeOp(enc[:cut]); err == nil && cut < len(enc) {
			t.Fatalf("DecodeOp accepted %d-byte prefix", cut)
		}
	}
}

// TestAppendOpMatchesEncodeOp pins the in-place encoder to the record
// format: the payload AppendOp writes straight into the log is byte for byte
// what EncodeOp builds, and it survives a scan.
func TestAppendOpMatchesEncodeOp(t *testing.T) {
	l, err := Open(NewMemSegmentStore(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	undo := []byte("undo")
	page := bytes.Repeat([]byte{0xC3}, pagestore.PageSize)
	deltas := []pagestore.PageDelta{
		{Page: 2, Off: 40, Data: page[40:57]}, // aliases a page, as storage's deltas do
		{Page: 5, Off: pagestore.PageHeaderSize, Data: page[pagestore.PageHeaderSize:]},
	}
	lsn, err := l.AppendOp(9, undo, deltas)
	if err != nil {
		t.Fatal(err)
	}
	if want := lsn + LSN(frameSize(len(EncodeOp(undo, deltas)))); l.NextLSN() != want {
		t.Errorf("NextLSN = %d after the op record, want %d", l.NextLSN(), want)
	}
	if err := l.Force(lsn); err != nil {
		t.Fatal(err)
	}
	var got []Record
	if err := l.Scan(func(r Record) error { got = append(got, r); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].LSN != lsn || got[0].Type != RecOp || got[0].Txn != 9 {
		t.Fatalf("scan = %+v, want the one op record at LSN %d", got, lsn)
	}
	if !bytes.Equal(got[0].Payload, EncodeOp(undo, deltas)) {
		t.Error("AppendOp's payload differs from EncodeOp's")
	}
}

// TestAppendOpRejectsOversizedOp: the payload counts deltas, and a delta's
// bytes, in 16 bits. An operation beyond either limit used to wrap silently
// and log a record that redoes a fraction of it; it must fail instead, and
// append nothing.
func TestAppendOpRejectsOversizedOp(t *testing.T) {
	l, err := Open(NewMemSegmentStore(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	one := []byte{1}
	many := make([]pagestore.PageDelta, 1<<16)
	for i := range many {
		many[i] = pagestore.PageDelta{Page: pagestore.PageID(i), Off: pagestore.PageHeaderSize, Data: one}
	}
	long := []pagestore.PageDelta{{Page: 1, Off: pagestore.PageHeaderSize, Data: make([]byte, 1<<16)}}
	for name, deltas := range map[string][]pagestore.PageDelta{"65536 deltas": many, "65536-byte delta": long} {
		if _, err := l.AppendOp(1, []byte("undo"), deltas); !errors.Is(err, ErrOpTooLarge) {
			t.Errorf("%s: AppendOp = %v, want ErrOpTooLarge", name, err)
		}
	}
	if st := l.Stats(); st.Appends != 0 || st.Next != 1 || st.ActiveTxns != 0 {
		t.Errorf("rejected ops left a trace in the log: %+v", st)
	}
	// The largest representable operation still goes through, whole.
	lsn, err := l.AppendOp(1, nil, many[:1<<16-1])
	if err != nil {
		t.Fatalf("65535 deltas: %v", err)
	}
	if err := l.Force(lsn); err != nil {
		t.Fatal(err)
	}
	err = l.Scan(func(r Record) error {
		_, deltas, err := DecodeOp(r.Payload)
		if err == nil && len(deltas) != 1<<16-1 {
			err = fmt.Errorf("decoded %d deltas, want %d", len(deltas), 1<<16-1)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestForceOnEmptyLog(t *testing.T) {
	l, err := Open(NewMemSegmentStore(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	done := make(chan error, 1)
	go func() { done <- l.Force(0) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Force(0) on empty log blocked")
	}
}
