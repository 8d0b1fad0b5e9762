//go:build !race

// Allocation-regression guard for the latch path. The race detector changes
// allocation behaviour, so this runs only in the non-race suite (make verify
// runs both).

package btree

import (
	"fmt"
	"testing"
)

// TestAllocCursorLatch pins the latch at zero allocations: a cursor opened
// and closed on a resident tree, and an Insert into a leaf with room, take
// and release the tree latch through spin.Lock, whose method-value arguments
// must stay on the stack.
func TestAllocCursorLatch(t *testing.T) {
	tr := newTree(t)
	for i := 0; i < 100; i++ {
		if err := tr.Insert([]byte(fmt.Sprintf("k%04d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	const runs = 200
	found := []byte("k0050")
	if avg := testing.AllocsPerRun(runs, func() {
		c := tr.Cursor()
		if !c.Find(found) {
			t.Fatal("k0050 not found")
		}
		c.Close()
	}); avg != 0 {
		t.Errorf("cursor open, find and close allocates %.1f times, want 0", avg)
	}
	fresh := make([][]byte, runs+1) // AllocsPerRun calls once more to warm up
	for i := range fresh {
		fresh[i] = []byte(fmt.Sprintf("m%04d", i))
	}
	i := 0
	if avg := testing.AllocsPerRun(runs, func() {
		if err := tr.Insert(fresh[i], []byte("v")); err != nil {
			t.Fatal(err)
		}
		i++
	}); avg != 0 {
		t.Errorf("Insert into a leaf with room allocates %.1f times, want 0", avg)
	}
	if st, err := tr.Stats(); err != nil || st.LeafPages != 1 {
		t.Errorf("fixture: %d leaves (%v), want the inserts to fit one", st.LeafPages, err)
	}
}

// TestAllocHintedSeek pins a hinted cursor at zero allocations, whether the
// remembered leaf answers its seek or the probe fails and it descends.
func TestAllocHintedSeek(t *testing.T) {
	tr := hintTree(t, 256, 0, 300, 1000)
	start := remember(t, tr, hintKey(100))
	for _, target := range [][]byte{hintKey(101), hintKey(250)} {
		if avg := testing.AllocsPerRun(200, func() {
			h := start
			c := tr.HintedCursor(&h)
			if !c.Find(target) {
				t.Fatalf("%s not found", target)
			}
			c.Close()
		}); avg != 0 {
			t.Errorf("a hinted seek of %s allocates %.1f times, want 0", target, avg)
		}
	}
}

// TestAllocPageRewrite pins the kernels that rebuild a page, compact and
// rewritePrefix, at zero allocations: they read the cells from a pooled copy
// of the page, and assemble each full key in a stack buffer.
func TestAllocPageRewrite(t *testing.T) {
	tr := hintTree(t, 256, 0, 7, 1000) // one leaf, keys k0000 … k0006
	want := keysOf(t, tr)
	f, err := tr.store.Fix(tr.root)
	if err != nil {
		t.Fatal(err)
	}
	f.MarkDirty()
	p := f.Data()
	for _, k := range []struct {
		name string
		run  func()
	}{
		{"compact", func() { compact(p) }},
		{"rewritePrefix", func() {
			if !rewritePrefix(p, 4) || !rewritePrefix(p, 0) {
				t.Fatal("a prefix rewrite did not fit")
			}
		}},
	} {
		if avg := testing.AllocsPerRun(100, k.run); avg != 0 {
			t.Errorf("%s allocates %.1f times, want 0", k.name, avg)
		}
	}
	tr.store.Unfix(f)
	checkAppended(t, tr, want)
}
