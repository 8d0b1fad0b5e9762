package pagestore

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"repro/internal/fault"
)

// newFaultedMem wraps a memory backend of the given size in plan, which it
// arms.
func newFaultedMem(t *testing.T, plan *fault.Plan, pages int) (*FaultBackend, *MemBackend) {
	t.Helper()
	mem := NewMemBackend()
	for i := 0; i < pages; i++ {
		if _, err := mem.Allocate(); err != nil {
			t.Fatal(err)
		}
	}
	plan.Arm()
	return &FaultBackend{Backend: mem, Plan: plan}, mem
}

// writeFault schedules the first page write to fail.
func writeFault(permanent, torn bool) *fault.Plan {
	return &fault.Plan{Schedule: []fault.Fault{{Site: fault.PageWrite, N: 1, Permanent: permanent, Torn: torn}}}
}

func TestFaultClassification(t *testing.T) {
	te := &fault.Error{Fault: fault.Fault{Site: fault.PageRead}, Where: "page 3"}
	pe := &fault.Error{Fault: fault.Fault{Site: fault.PageWrite, Permanent: true}, Where: "page 4"}
	if !IsTransient(te) || IsPermanent(te) {
		t.Errorf("transient fault classified as %s", Classify(te))
	}
	if IsTransient(pe) || !IsPermanent(pe) {
		t.Errorf("permanent fault classified as %s", Classify(pe))
	}
	if !errors.Is(te, fault.ErrInjected) {
		t.Error("fault.Error does not unwrap to fault.ErrInjected")
	}
	// Wrapping must preserve the classification.
	wrapped := errors.Join(errors.New("context"), te)
	if !IsTransient(wrapped) {
		t.Error("wrapping lost the transient classification")
	}
	if Classify(errors.New("plain")) != "unclassified" {
		t.Error("plain error should be unclassified")
	}
	// Retry exhaustion flips transient to permanent even though the
	// original transient error stays in the chain.
	ex := &RetryExhaustedError{Attempts: 6, Err: te}
	if IsTransient(ex) || !IsPermanent(ex) {
		t.Errorf("exhausted retry classified as %s", Classify(ex))
	}
	if !errors.Is(ex, fault.ErrInjected) {
		t.Error("RetryExhaustedError lost the error chain")
	}
}

// TestFaultScheduleDeterministic: each scheduled page fault fires exactly
// once, at its occurrence, with its class.
func TestFaultScheduleDeterministic(t *testing.T) {
	plan := &fault.Plan{Schedule: []fault.Fault{
		{Site: fault.PageRead, N: 2},
		{Site: fault.PageWrite, N: 1, Permanent: true},
	}}
	fb, _ := newFaultedMem(t, plan, 4)
	buf := make([]byte, PageSize)

	if err := fb.ReadPage(0, buf); err != nil {
		t.Fatalf("read 1 should pass: %v", err)
	}
	err := fb.ReadPage(1, buf)
	if !IsTransient(err) {
		t.Fatalf("read 2 should fail transient, got %v", err)
	}
	if err := fb.ReadPage(2, buf); err != nil {
		t.Fatalf("read 3 should pass: %v", err)
	}
	if err := fb.WritePage(0, buf); !IsPermanent(err) {
		t.Fatalf("write 1 should fail permanent, got %v", err)
	}
	if err := fb.WritePage(0, buf); err != nil {
		t.Fatalf("write 2 should pass: %v", err)
	}
	if plan.Fired(fault.PageRead) != 1 || plan.Fired(fault.PageWrite) != 1 || plan.Injected() != 2 {
		t.Errorf("fired %d reads, %d writes, %d in all", plan.Fired(fault.PageRead),
			plan.Fired(fault.PageWrite), plan.Injected())
	}
}

func TestFaultDisarmedPassesThrough(t *testing.T) {
	plan := &fault.Plan{}
	plan.Prob[fault.PageRead], plan.Prob[fault.PageWrite], plan.Prob[fault.PageSync], plan.Prob[fault.PageAlloc] = 1, 1, 1, 1
	fb, _ := newFaultedMem(t, plan, 1)
	plan.Disarm()
	buf := make([]byte, PageSize)
	if err := fb.ReadPage(0, buf); err != nil {
		t.Errorf("disarmed read failed: %v", err)
	}
	if err := fb.WritePage(0, buf); err != nil {
		t.Errorf("disarmed write failed: %v", err)
	}
	if _, err := fb.Allocate(); err != nil {
		t.Errorf("disarmed allocate failed: %v", err)
	}
	if err := fb.Sync(); err != nil {
		t.Errorf("disarmed sync failed: %v", err)
	}
	if plan.Injected() != 0 || plan.Seen(fault.PageRead) != 0 {
		t.Errorf("disarmed ops counted: %d injected, %d reads seen", plan.Injected(), plan.Seen(fault.PageRead))
	}
}

// TestFaultProbabilisticSeededReproducible: equal seeds fail the same reads
// with the same classes.
func TestFaultProbabilisticSeededReproducible(t *testing.T) {
	run := func() []string {
		plan := &fault.Plan{Seed: 42, Permanent: 0.5}
		plan.Prob[fault.PageRead] = 0.3
		fb, _ := newFaultedMem(t, plan, 8)
		buf := make([]byte, PageSize)
		var fires []string
		for i := 0; i < 200; i++ {
			if err := fb.ReadPage(PageID(i%8), buf); err != nil {
				fires = append(fires, err.Error())
			}
		}
		return fires
	}
	a, b := run(), run()
	if !slices.Equal(a, b) {
		t.Errorf("same seed diverged: %q vs %q", a, b)
	}
	if len(a) == 0 || len(a) == 200 {
		t.Errorf("implausible injection count: %d of 200", len(a))
	}
}

func TestTornWritePersistsPrefix(t *testing.T) {
	plan := writeFault(false, true)
	fb, mem := newFaultedMem(t, plan, 1)

	old := bytes.Repeat([]byte{0xAA}, PageSize)
	plan.Disarm()
	if err := fb.WritePage(0, old); err != nil {
		t.Fatal(err)
	}
	plan.Arm()

	img := bytes.Repeat([]byte{0xBB}, PageSize)
	err := fb.WritePage(0, img)
	var fe *fault.Error
	if !errors.As(err, &fe) || !fe.Torn {
		t.Fatalf("want torn fault.Error, got %v", err)
	}
	got := make([]byte, PageSize)
	if err := mem.ReadPage(0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:TornPrefix], img[:TornPrefix]) {
		t.Error("torn write did not persist the new prefix")
	}
	if !bytes.Equal(got[TornPrefix:], old[TornPrefix:]) {
		t.Error("torn write touched the tail")
	}
	if plan.TornWrites() != 1 {
		t.Errorf("TornWrites = %d", plan.TornWrites())
	}
}

func TestBufferRetryAbsorbsTransientFaults(t *testing.T) {
	// Every odd read fails transient; the retry loop must hide that from
	// Fix entirely.
	plan := &fault.Plan{}
	for n := uint64(1); n <= 40; n += 2 {
		plan.Schedule = append(plan.Schedule, fault.Fault{Site: fault.PageRead, N: n})
	}
	fb, _ := newFaultedMem(t, plan, 8)
	s := Open(fb, 2) // tiny pool forces repeated backend reads
	for i := 0; i < 16; i++ {
		f, err := s.Fix(PageID(i % 8))
		if err != nil {
			t.Fatalf("Fix(%d): %v", i%8, err)
		}
		s.Unfix(f)
	}
	st := s.Stats()
	if st.Retries == 0 || st.Retries != plan.Fired(fault.PageRead) {
		t.Errorf("Retries = %d, want one per injected read fault (%d)", st.Retries, plan.Fired(fault.PageRead))
	}
	if st.RetryFailures != 0 {
		t.Errorf("RetryFailures = %d", st.RetryFailures)
	}
}

func TestBufferRetryEscalatesAfterBudget(t *testing.T) {
	plan := &fault.Plan{}
	plan.Prob[fault.PageRead] = 1 // every read fails
	fb, _ := newFaultedMem(t, plan, 1)
	s := Open(fb, 2)
	_, err := s.Fix(0)
	if err == nil {
		t.Fatal("Fix succeeded through a 100% fault rate")
	}
	if !IsPermanent(err) || IsTransient(err) {
		t.Errorf("exhausted Fix error classified as %s: %v", Classify(err), err)
	}
	var exhausted *RetryExhaustedError
	if !errors.As(err, &exhausted) || exhausted.Attempts != retryMax+1 {
		t.Errorf("Fix error = %v, want %d attempts exhausted", err, retryMax+1)
	}
	if st := s.Stats(); st.Retries != retryMax || st.RetryFailures != 1 {
		t.Errorf("stats = %+v, want %d retries and 1 failure", st, retryMax)
	}
	if seen := plan.Seen(fault.PageRead); seen != retryMax+1 {
		t.Errorf("backend saw %d reads, want %d", seen, retryMax+1)
	}
	// The failed frame must not linger: a later Fix with injection off
	// reads cleanly.
	plan.Disarm()
	f, err := s.Fix(0)
	if err != nil {
		t.Fatalf("Fix after disarm: %v", err)
	}
	s.Unfix(f)
}

func TestBufferRetryNeverRetriesPermanent(t *testing.T) {
	plan := &fault.Plan{Permanent: 1}
	plan.Prob[fault.PageRead] = 1
	fb, _ := newFaultedMem(t, plan, 1)
	s := Open(fb, 2)
	if _, err := s.Fix(0); !IsPermanent(err) {
		t.Fatalf("want permanent fault, got %v", err)
	}
	if st := s.Stats(); st.Retries != 0 {
		t.Errorf("permanent fault was retried %d times", st.Retries)
	}
	if plan.Seen(fault.PageRead) != 1 {
		t.Errorf("backend saw %d reads, want 1", plan.Seen(fault.PageRead))
	}
}

func TestTornWriteHealedByRetry(t *testing.T) {
	// A transient torn write leaves a half-new page, but the retry rewrites
	// the full image: the store's view stays consistent.
	plan := writeFault(false, true)
	fb, mem := newFaultedMem(t, plan, 1)
	s := Open(fb, 2)

	f, err := s.Fix(0)
	if err != nil {
		t.Fatal(err)
	}
	img := bytes.Repeat([]byte{0xCD}, PageSize)
	copy(f.Data(), img)
	f.MarkDirty()
	s.Unfix(f)
	if err := s.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	got := make([]byte, PageSize)
	if err := mem.ReadPage(0, got); err != nil {
		t.Fatal(err)
	}
	// The body must match; the header's checksum field is owned by the
	// write-back path and is stamped over whatever the test wrote there.
	if !bytes.Equal(got[PageHeaderSize:], img[PageHeaderSize:]) {
		t.Error("retry did not heal the torn page")
	}
	if err := VerifyChecksum(0, got); err != nil {
		t.Errorf("healed page fails checksum: %v", err)
	}
	if plan.TornWrites() != 1 {
		t.Errorf("TornWrites = %d", plan.TornWrites())
	}
}

func TestFixRejectsCorruptPageAsPermanent(t *testing.T) {
	// A permanently-failing torn write leaves a half-new page on disk with
	// a checksum that matches neither half. A later cold Fix of that page
	// must refuse to serve the garbage: it fails with a ChecksumError that
	// classifies as permanent (retrying the read cannot help), and the
	// frame is not cached.
	plan := writeFault(true, true)
	fb, _ := newFaultedMem(t, plan, 1)
	s := Open(fb, 2)

	// Establish a valid stamped page, then overwrite it with a torn image.
	plan.Disarm()
	f, err := s.Fix(0)
	if err != nil {
		t.Fatal(err)
	}
	copy(f.Data(), bytes.Repeat([]byte{0xAA}, PageSize))
	f.MarkDirty()
	s.Unfix(f)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	plan.Arm()
	f, err = s.Fix(0)
	if err != nil {
		t.Fatal(err)
	}
	copy(f.Data()[PageHeaderSize:], bytes.Repeat([]byte{0xBB}, PageSize-PageHeaderSize))
	f.MarkDirty()
	s.Unfix(f)
	if err := s.Flush(); err == nil {
		t.Fatal("permanent write fault did not surface through Flush")
	}
	if plan.TornWrites() != 1 {
		t.Fatalf("TornWrites = %d, want 1", plan.TornWrites())
	}

	// Cold read: a fresh store must detect the torn page.
	s2 := Open(fb, 2)
	_, err = s2.Fix(0)
	var ce *ChecksumError
	if !errors.As(err, &ce) {
		t.Fatalf("Fix of torn page = %v, want ChecksumError", err)
	}
	if ce.Page != 0 {
		t.Errorf("ChecksumError.Page = %d", ce.Page)
	}
	if IsTransient(err) || !IsPermanent(err) {
		t.Errorf("checksum failure classified as %s, want permanent", Classify(err))
	}
	// The poisoned frame must not be cached: a second Fix re-reads and
	// fails identically instead of serving garbage.
	if _, err := s2.Fix(0); !errors.As(err, &ce) {
		t.Errorf("second Fix = %v, want ChecksumError again", err)
	}
}

func TestFixRejectsPageWithLostFirstSector(t *testing.T) {
	// A tear that lost the first sector zeroes the header, checksum field
	// included. Every written page is stamped and a stamp is never 0, so a
	// zero field on a page with other bytes set is corruption, not an
	// unstamped page.
	mem := NewMemBackend()
	s := Open(mem, 2)
	f, err := s.FixNew()
	if err != nil {
		t.Fatal(err)
	}
	id := f.ID()
	copy(f.Data()[PageHeaderSize:], bytes.Repeat([]byte{0xAA}, PageSize-PageHeaderSize))
	f.MarkDirty()
	s.Unfix(f)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, PageSize)
	if err := mem.ReadPage(id, raw); err != nil {
		t.Fatal(err)
	}
	clear(raw[:PageHeaderSize])
	if err := mem.WritePage(id, raw); err != nil {
		t.Fatal(err)
	}
	var ce *ChecksumError
	if _, err := Open(mem, 2).Fix(id); !errors.As(err, &ce) || ce.Stored != 0 {
		t.Fatalf("Fix of a page with a zeroed header = %v, want ChecksumError with stored 0", err)
	}
	// A page the backend zero-extended and nobody wrote stays readable.
	if err := VerifyChecksum(id, make([]byte, PageSize)); err != nil {
		t.Errorf("all-zero page: %v", err)
	}
}
