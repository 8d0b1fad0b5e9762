//go:build !race

// Allocation-regression guards for the Fix paths. The race detector
// instruments allocations, so these run only in the non-race suite (make
// verify runs both).

package pagestore

import "testing"

// TestAllocFixHit pins a Fix hit and its Unfix at zero allocations: the page
// table lookup, the pin CAS, the hit count and the unpin allocate nothing.
// A miss that evicts a clean frame into an allocated table chunk allocates
// nothing either.
func TestAllocFixHit(t *testing.T) {
	s := Open(NewMemBackend(), 64)
	defer s.Close()
	ids := make([]PageID, 256) // four times the pool
	for i := range ids {
		f := newPage(t, s, byte(i))
		ids[i] = f.ID()
		s.Unfix(f)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	fix := func(id PageID) {
		f, err := s.Fix(id)
		if err != nil {
			panic(err)
		}
		s.Unfix(f)
	}
	hot := ids[len(ids)-1]
	fix(hot)
	if avg := testing.AllocsPerRun(1000, func() { fix(hot) }); avg != 0 {
		t.Errorf("Fix hit + Unfix: %.2f allocations, want 0", avg)
	}
	i := 0
	if avg := testing.AllocsPerRun(1000, func() { fix(ids[i%128]); i++ }); avg != 0 {
		t.Errorf("Fix miss + Unfix: %.2f allocations, want 0", avg)
	}
	if st := s.Stats(); st.Misses < 1000 {
		t.Errorf("%d misses: the miss loop hit the buffer", st.Misses)
	}
}
