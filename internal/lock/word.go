package lock

import "fmt"

// Packed granted-group word: the lock-free fast path's summary of one
// resource's granted group, small enough to update with a single
// compare-and-swap. Layout (uint64):
//
//	bit 63        seal   — fast path disabled; the slow path owns the head
//	bits 48..62   epoch  — bumped on every publish, fast or slow (ABA insurance)
//	bits 0..47    modes  — bit m-1 set iff some transaction holds mode m
//
// The mode field is a *bitset*, not the per-mode counters one might first
// reach for: the taDOM3+ table has 23 modes (20 node modes plus 3 edge
// modes), so even 2-bit counters would not leave room for an epoch. A bitset
// loses the holder count, which has one consequence: the fast path can add
// holders freely but can only *remove* the sole holder. A general fast
// release would have to clear a mode bit, which is wrong whenever two
// transactions hold the same mode; the sole-holder release (tryFastRelease)
// instead CASes the whole bitset to zero after proving — under the head's
// inflight drain — that exactly one entry is chained. All other releases go
// through the slow path, which recomputes the word from the authoritative
// holder chain under the partition mutex. The epoch bump on *every* grant is
// what makes the release CAS sound: a same-mode second grant leaves the
// bitset unchanged, so without the bump the release's CAS could not detect
// it and would wrongly empty the word.
//
// The compatibility test collapses to one AND: a request for mode r is
// compatible with every current holder iff word&incompat[r] == 0, where
// incompat[r] is the precomputed union of the bits of all modes incompatible
// with r (in the held→requested direction — the matrices are asymmetric).
// This is exact, not conservative: compatibility against a *group* is the
// conjunction of per-holder compatibilities, and a disjunction over set bits
// computes exactly that.
const (
	wordSealed     = uint64(1) << 63
	wordEpochShift = 48
	wordEpochMask  = uint64(1)<<15 - 1
	wordModeMask   = uint64(1)<<wordEpochShift - 1

	// maxFastModes is the largest mode index the word can represent; a
	// manager refuses a table with more modes rather than approximate.
	maxFastModes = 48
)

// fastTable is the packed-word view of a ModeTable: per-mode bit masks and
// precomputed incompatibility unions. Immutable after construction.
type fastTable struct {
	bit      [maxFastModes + 1]uint64
	incompat [maxFastModes + 1]uint64
}

// newFastTable derives the packed encoding from a mode table; a table with
// more modes than the word holds is an error.
func newFastTable(t ModeTable) (*fastTable, error) {
	n := t.NumModes()
	if n-1 > maxFastModes {
		return nil, fmt.Errorf("lock: table has %d modes, the packed word holds %d", n-1, maxFastModes)
	}
	ft := &fastTable{}
	for m := 1; m < n; m++ {
		ft.bit[m] = uint64(1) << (m - 1)
	}
	for r := range ft.incompat {
		if r == 0 || r >= n {
			// ModeNone and out-of-range modes must never fast-grant; the slow
			// path rejects (or panics on) them exactly as before.
			ft.incompat[r] = ^uint64(0)
			continue
		}
		for h := 1; h < n; h++ {
			if !t.Compatible(Mode(h), Mode(r)) {
				ft.incompat[r] |= ft.bit[h]
			}
		}
	}
	return ft, nil
}

func wordEpoch(w uint64) uint64 { return (w >> wordEpochShift) & wordEpochMask }

// nextWord builds the published word: the holder bitset, the epoch after
// prev's, and the seal flag.
func nextWord(bits uint64, prev uint64, sealed bool) uint64 {
	w := bits&wordModeMask | ((wordEpoch(prev)+1)&wordEpochMask)<<wordEpochShift
	if sealed {
		w |= wordSealed
	}
	return w
}

// VerifyPackedCompat exhaustively checks the packed-word encoding against
// the table's compatibility matrix: for every (held, requested) mode pair,
// the single-AND word test must agree with ModeTable.Compatible. Group
// compatibility follows because the word test is a disjunction over held
// bits and group compatibility is the conjunction of pair compatibilities.
// A table too large for the word is an error: NewManager refuses it.
// Exported for protocol-table tests.
func VerifyPackedCompat(t ModeTable) error {
	ft, err := newFastTable(t)
	if err != nil {
		return err
	}
	n := t.NumModes()
	for h := 1; h < n; h++ {
		if ft.bit[h] == 0 || ft.bit[h]&wordModeMask != ft.bit[h] {
			return fmt.Errorf("lock: mode %s maps to bad word bit %#x", t.Name(Mode(h)), ft.bit[h])
		}
		for r := 1; r < n; r++ {
			got := ft.bit[h]&ft.incompat[r] == 0
			want := t.Compatible(Mode(h), Mode(r))
			if got != want {
				return fmt.Errorf("lock: packed compat(%s held, %s requested) = %v, matrix says %v",
					t.Name(Mode(h)), t.Name(Mode(r)), got, want)
			}
		}
	}
	return nil
}
