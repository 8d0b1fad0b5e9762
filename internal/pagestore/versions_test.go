package pagestore

import (
	"strings"
	"testing"
)

// newVersionedPage opens a store with versioning on and one clean page
// stamped with pageLSN lsn.
func newVersionedPage(t *testing.T, lsn uint64) (*Store, PageID) {
	t.Helper()
	s := Open(NewMemBackend(), 8)
	t.Cleanup(func() { s.Close() })
	f, err := s.FixNew()
	if err != nil {
		t.Fatal(err)
	}
	SetPageLSN(f.Data(), lsn)
	f.MarkDirty()
	id := f.ID()
	s.Unfix(f)
	s.SetSnapshotSource(func() uint64 { return 0 })
	return s, id
}

// TestFixAtSurvivesUnchangedCaptureClose is the deterministic form of the
// TestLoopbackTaMixAllProtocols/snapshot flake: a snapshot reader loads the
// in-flux flag of a page a capture declared for writing but never changed (a
// write that stores what was there, an operation that fails first), and the
// capture closes — lowering the flag, then dropping the open chain entry —
// before the reader consults the chain. The reader must fall back to the
// (settled, visible) live frame instead of reporting a hole in the version
// chain, and one second look must be enough: Close lowers the flag before it
// drops the entry, so a page is never in flux with an empty chain.
func TestFixAtSurvivesUnchangedCaptureClose(t *testing.T) {
	s, id := newVersionedPage(t, 5)

	c := s.BeginCapture(0)
	f, err := s.Fix(id)
	if err != nil {
		t.Fatal(err)
	}
	if f.influx.Load() || s.RetainedVersions() != 0 {
		t.Fatalf("a plain Fix entered the capture: influx=%v versions=%d", f.influx.Load(), s.RetainedVersions())
	}
	f.MarkDirty() // declared, flag up, open chain entry — and then no change
	s.Unfix(f)
	if !f.influx.Load() || s.RetainedVersions() != 1 {
		t.Fatalf("write intent did not enter the capture: influx=%v versions=%d", f.influx.Load(), s.RetainedVersions())
	}

	parked := 0
	s.fixAtParked = func() {
		if parked++; parked == 1 {
			c.Close()
		}
	}
	data, f, err := s.FixAt(id, 10)
	if err != nil {
		t.Fatalf("FixAt across an unchanged capture close: %v", err)
	}
	defer s.Unfix(f)
	if parked != 1 {
		t.Errorf("reader parked %d times, want 1 (second look must hit the live frame)", parked)
	}
	if got := PageLSN(data); got != 5 {
		t.Errorf("FixAt returned pageLSN %d, want the live page at 5", got)
	}
	if n := s.RetainedVersions(); n != 0 {
		t.Errorf("unchanged capture left %d chain entries", n)
	}
}

// TestFixAtConfirmedMissStaysAnError pins the other half of the contract: a
// settled page (flag down) stamped after the snapshot with no covering chain
// entry is a genuine hole, reported on the first look.
func TestFixAtConfirmedMissStaysAnError(t *testing.T) {
	s, id := newVersionedPage(t, 5)
	parked := 0
	s.fixAtParked = func() { parked++ }
	_, _, err := s.FixAt(id, 3)
	if err == nil || !strings.Contains(err.Error(), "covers snapshot LSN 3") {
		t.Fatalf("FixAt below the page's only image: err = %v, want a coverage error", err)
	}
	if parked != 1 {
		t.Errorf("confirmed miss retried: parked %d times, want 1", parked)
	}
}
