package lock

import (
	"fmt"
	"testing"
)

// TestPackedWordMatchesMatrix checks the packed-word compatibility test
// against the test table's matrix for every (held-group, requested) pair:
// the single AND over the group's word must equal the conjunction of the
// per-holder matrix answers, for every subset of held modes.
func TestPackedWordMatchesMatrix(t *testing.T) {
	table := testTable()
	ft, err := newFastTable(table)
	if err != nil {
		t.Fatal(err)
	}
	n := table.NumModes()
	for set := 0; set < 1<<(n-1); set++ {
		var word uint64
		for h := 1; h < n; h++ {
			if set&(1<<(h-1)) != 0 {
				word |= ft.bit[h]
			}
		}
		for r := 1; r < n; r++ {
			want := true
			for h := 1; h < n; h++ {
				if set&(1<<(h-1)) != 0 && !table.Compatible(Mode(h), Mode(r)) {
					want = false
				}
			}
			if got := word&ft.incompat[r] == 0; got != want {
				t.Errorf("group %b, request %s: word test %v, matrix %v",
					set, table.Name(Mode(r)), got, want)
			}
		}
	}
	if err := VerifyPackedCompat(table); err != nil {
		t.Errorf("VerifyPackedCompat: %v", err)
	}
}

// TestPackedWordRejectsSpecials pins the guard rows: ModeNone and
// out-of-range modes must never pass the fast-path compatibility test, even
// against an empty group.
func TestPackedWordRejectsSpecials(t *testing.T) {
	ft, err := newFastTable(testTable())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []int{0, testTable().NumModes(), maxFastModes} {
		if uint64(0)&ft.incompat[r] == 0 && ft.incompat[r] != ^uint64(0) {
			t.Errorf("mode %d has a grantable incompat mask %#x", r, ft.incompat[r])
		}
	}
}

// oversizeTable builds a valid table with more modes than the packed word
// can hold (everything compatible; conversion = max).
func oversizeTable(n int) *Table {
	names := make([]string, n)
	compat := make([][]bool, n)
	conv := make([][]Mode, n)
	for i := 0; i < n; i++ {
		names[i] = fmt.Sprintf("m%d", i)
		compat[i] = make([]bool, n)
		conv[i] = make([]Mode, n)
		for j := 0; j < n; j++ {
			compat[i][j] = i > 0 && j > 0
			c := Mode(i)
			if j > i {
				c = Mode(j)
			}
			conv[i][j] = c
		}
	}
	return NewTable(names, compat, conv)
}

// TestOversizedTableRejected checks that the largest table the word can
// encode is accepted and one mode more is refused: VerifyPackedCompat
// reports it and NewManager panics, so no manager runs without the CAS fast
// path.
func TestOversizedTableRejected(t *testing.T) {
	if err := VerifyPackedCompat(oversizeTable(maxFastModes + 1)); err != nil {
		t.Fatalf("largest encodable table: %v", err)
	}
	table := oversizeTable(maxFastModes + 2)
	if err := VerifyPackedCompat(table); err == nil {
		t.Fatal("VerifyPackedCompat accepted an oversized table")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewManager accepted an oversized table")
		}
	}()
	NewManager(table, Options{}).Close()
}

// FuzzModeCompat cross-checks the packed-word encoding against arbitrary
// compatibility matrices: for random tables, every (held-subset, request)
// answer of the word test must match the matrix conjunction. The conversion
// matrix is irrelevant to the encoding, so the fuzzer fixes it to max(h, r).
func FuzzModeCompat(f *testing.F) {
	f.Add(uint8(5), []byte{0xff, 0x0f, 0xa5})
	f.Add(uint8(2), []byte{0x01})
	f.Add(uint8(10), []byte{0x00})
	f.Add(uint8(48), []byte{0x35, 0x29, 0xfe, 0x11})
	f.Fuzz(func(t *testing.T, nModes uint8, bits []byte) {
		n := 2 + int(nModes)%47 // 2..48 modes incl. ModeNone => fast path active
		names := make([]string, n)
		compat := make([][]bool, n)
		conv := make([][]Mode, n)
		bit := func(k int) bool {
			if len(bits) == 0 {
				return false
			}
			return bits[(k/8)%len(bits)]&(1<<(k%8)) != 0
		}
		k := 0
		for i := 0; i < n; i++ {
			names[i] = fmt.Sprintf("m%d", i)
			compat[i] = make([]bool, n)
			conv[i] = make([]Mode, n)
			for j := 0; j < n; j++ {
				if i > 0 && j > 0 {
					compat[i][j] = bit(k)
					k++
				}
				c := Mode(i)
				if j > i {
					c = Mode(j)
				}
				conv[i][j] = c
			}
		}
		table := NewTable(names, compat, conv)
		if err := VerifyPackedCompat(table); err != nil {
			t.Fatal(err)
		}
		ft, err := newFastTable(table)
		if err != nil {
			t.Fatalf("%d modes: %v", n, err)
		}
		// Spot-check random group subsets (exhaustive for small n).
		subsets := 1 << (n - 1)
		step := 1
		if subsets > 1<<12 {
			step = subsets / (1 << 12)
		}
		for set := 0; set < subsets; set += step {
			var word uint64
			for h := 1; h < n; h++ {
				if set&(1<<(h-1)) != 0 {
					word |= ft.bit[h]
				}
			}
			for r := 1; r < n; r++ {
				want := true
				for h := 1; h < n; h++ {
					if set&(1<<(h-1)) != 0 && !table.Compatible(Mode(h), Mode(r)) {
						want = false
						break
					}
				}
				if got := word&ft.incompat[r] == 0; got != want {
					t.Fatalf("n=%d group=%b request=%d: word %v, matrix %v", n, set, r, got, want)
				}
			}
		}
	})
}
