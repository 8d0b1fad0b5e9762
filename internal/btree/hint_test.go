package btree

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/pagestore"
)

// hintKey is the i-th key of the hint tests' trees.
func hintKey(i int) []byte { return []byte(fmt.Sprintf("k%04d", i)) }

// hintTree holds keys [from, to) with values of valLen bytes: seven to a
// leaf at 1000.
func hintTree(t *testing.T, frames, from, to, valLen int) *Tree {
	t.Helper()
	s := pagestore.Open(pagestore.NewMemBackend(), frames)
	t.Cleanup(func() { s.Close() })
	tr, err := Create(s)
	if err != nil {
		t.Fatal(err)
	}
	for i := from; i < to; i++ {
		if err := tr.Insert(hintKey(i), bytes.Repeat(hintKey(i), valLen/5)); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

// remember returns the hint a cursor leaves after finding key.
func remember(t *testing.T, tr *Tree, key []byte) Hint {
	t.Helper()
	var h Hint
	c := tr.HintedCursor(&h)
	if !c.Find(key) {
		t.Fatalf("%s not found", key)
	}
	c.Close()
	if h.t != tr {
		t.Fatal("the cursor left no hint")
	}
	return h
}

// hintedGet is View.Get on a cursor started from h.
func hintedGet(tr *Tree, h *Hint, key []byte) ([]byte, error) {
	c := tr.HintedCursor(h)
	defer c.Close()
	if !c.Find(key) {
		return nil, c.miss()
	}
	return append([]byte(nil), c.Value()...), nil
}

// checkHinted compares every seek of a cursor started from the hint stale
// with the oracle: Seek, SeekLT and Find on every key of the tree, the keys
// next to them, and the ends.
func checkHinted(t *testing.T, tr *Tree, stale Hint) {
	t.Helper()
	o := liveOracle(tr)
	var targets [][]byte
	if err := o.Ascend(nil, nil, func(k, _ []byte) bool {
		targets = append(targets, neighbours(append([]byte(nil), k...))...)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	targets = append(targets, []byte{0}, []byte{0xff})
	type seek func(c *Cursor, target []byte) bool
	for _, s := range []struct {
		name string
		move seek
		want func([]byte) ([]byte, []byte, error)
	}{
		{"Seek", (*Cursor).Seek, o.SeekGE},
		{"SeekLT", (*Cursor).SeekLT, o.SeekLT},
		{"Find", (*Cursor).Find, func(k []byte) ([]byte, []byte, error) {
			v, err := o.Get(k)
			return k, v, err
		}},
	} {
		for _, target := range targets {
			h := stale
			c := tr.HintedCursor(&h)
			ok := s.move(&c, target)
			wk, wv, werr := s.want(target)
			if ok != (werr == nil) || ok && (!bytes.Equal(c.Key(), wk) || !bytes.Equal(c.Value(), wv)) {
				t.Fatalf("hinted %s(%s) from page %d: %v at %q; oracle %q, %v", s.name, target, stale.id, ok, c.Key(), wk, werr)
			}
			c.Close()
		}
	}
	if n := tr.store.PinnedFrames(); n != 0 {
		t.Fatalf("%d frames still pinned", n)
	}
}

// fixes returns how many pages read fixes.
func fixes(tr *Tree, read func()) uint64 {
	s0 := tr.store.Stats()
	read()
	s1 := tr.store.Stats()
	return s1.Hits + s1.Misses - s0.Hits - s0.Misses
}

// TestHintedSeekFixesOneLeaf: a hinted seek whose target the remembered leaf
// brackets fixes that leaf alone; one it does not pays the probe on top of
// the descent.
func TestHintedSeekFixesOneLeaf(t *testing.T) {
	tr := hintTree(t, 256, 0, 300, 1000)
	st, _ := tr.Stats()
	if st.Depth < 2 {
		t.Fatalf("depth %d", st.Depth)
	}
	h := remember(t, tr, hintKey(100))
	if n := fixes(tr, func() {
		c := tr.HintedCursor(&h)
		if !c.Find(hintKey(101)) {
			t.Fatal("k0101 not found")
		}
		c.Close()
	}); n != 1 {
		t.Errorf("a hinted Find in the remembered leaf fixed %d pages, want 1", n)
	}
	if n := fixes(tr, func() {
		c := tr.HintedCursor(&h)
		if !c.SeekLT(hintKey(101)) || !bytes.Equal(c.Key(), hintKey(100)) {
			t.Fatal("SeekLT(k0101) missed k0100")
		}
		c.Close()
	}); n != 1 {
		t.Errorf("a hinted SeekLT in the remembered leaf fixed %d pages, want 1", n)
	}
	if n := fixes(tr, func() {
		c := tr.HintedCursor(&h)
		if !c.Find(hintKey(250)) {
			t.Fatal("k0250 not found")
		}
		c.Close()
	}); n != uint64(st.Depth)+1 {
		t.Errorf("a hinted Find elsewhere fixed %d pages, want the probe and a descent of %d", n, st.Depth)
	}
	checkHinted(t, tr, remember(t, tr, hintKey(100)))
}

// TestHintAfterSplit: the remembered leaf split, and half its keys moved to a
// new right sibling.
func TestHintAfterSplit(t *testing.T) {
	tr := hintTree(t, 256, 0, 60, 1000)
	h := remember(t, tr, hintKey(30))
	leafOf := func(k []byte) pagestore.PageID {
		c := tr.Cursor()
		defer c.Close()
		c.Find(k)
		return c.f.ID()
	}
	moved := hintKey(30)
	for i := 30; leafOf(hintKey(i)) == h.id; i++ {
		moved = hintKey(i)
	}
	for i := 0; i < 6; i++ {
		if err := tr.Insert(append(hintKey(30), byte('a'+i)), make([]byte, 1000)); err != nil {
			t.Fatal(err)
		}
	}
	if leafOf(moved) == h.id {
		t.Fatalf("fixture: %s is still in page %d", moved, h.id)
	}
	checkHinted(t, tr, h)
}

// TestHintAfterFree: the remembered leaf emptied and went to the free list,
// then came back from it as a leaf of another key range.
func TestHintAfterFree(t *testing.T) {
	tr := hintTree(t, 256, 0, 60, 1000)
	h := remember(t, tr, hintKey(30))
	c := tr.Cursor()
	c.Find(hintKey(30))
	first, last := c.Key(), []byte(nil)
	for c.Prev() && c.f.ID() == h.id {
		first = c.Key()
	}
	first = append([]byte(nil), first...)
	c.Find(hintKey(30))
	for c.Next() && c.f.ID() == h.id {
		last = append(last[:0], c.Key()...)
	}
	c.Close()
	if _, err := tr.DeleteRange(first, append(last, 0)); err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(tr.free, h.id) {
		t.Fatalf("page %d of the emptied leaf is not on the free list %v", h.id, tr.free)
	}
	checkHinted(t, tr, h)
	for i := 0; i < 10; i++ {
		if err := tr.Insert(append(hintKey(5), byte('a'+i)), make([]byte, 1000)); err != nil {
			t.Fatal(err)
		}
	}
	if slices.Contains(tr.free, h.id) {
		t.Fatalf("page %d was not reused", h.id)
	}
	checkHinted(t, tr, h)
}

// TestHintAfterReuseAsInternal: the remembered leaf emptied, the root above
// it collapsed, and the page came back from the free list as the new root.
func TestHintAfterReuseAsInternal(t *testing.T) {
	tr := hintTree(t, 256, 0, 10, 1000)
	root := tr.root
	h := remember(t, tr, hintKey(9))
	if h.id == root {
		t.Fatal("fixture: the tree is one leaf")
	}
	for i := 0; i < 10; i++ {
		c := tr.Cursor()
		c.Find(hintKey(i))
		on := c.f.ID() == h.id
		c.Close()
		if on {
			if err := tr.Delete(hintKey(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if tr.root == root || !slices.Contains(tr.free, h.id) {
		t.Fatalf("fixture: root %d (was %d), free list %v", tr.root, root, tr.free)
	}
	for i := 0; tr.root != h.id; i++ {
		if err := tr.Insert(append(hintKey(1), byte(i)), make([]byte, 1000)); err != nil {
			t.Fatal(err)
		}
		if i == 20 {
			t.Fatalf("page %d never became the root (free list %v)", h.id, tr.free)
		}
	}
	checkHinted(t, tr, h)
}

// TestHintAfterEviction: the remembered leaf left the pool. FixResident
// declines it without reading it, and the seek descends.
func TestHintAfterEviction(t *testing.T) {
	tr := hintTree(t, 16, 0, 400, 1000)
	h := remember(t, tr, hintKey(30))
	if err := tr.Ascend(hintKey(100), nil, func(_, _ []byte) bool { return true }); err != nil {
		t.Fatal(err)
	}
	s0 := tr.store.Stats()
	if f := tr.store.FixResident(h.id); f != nil {
		t.Fatalf("fixture: page %d still resident", h.id)
	}
	if s1 := tr.store.Stats(); s1 != s0 {
		t.Errorf("a declined FixResident moved the counters: %+v, then %+v", s0, s1)
	}
	checkHinted(t, tr, h)
}

// TestSnapshotIgnoresHint: a snapshot view's cursor neither reads nor writes
// the hint. The remembered live leaf brackets a key the snapshot still
// holds and the live tree no longer does.
func TestSnapshotIgnoresHint(t *testing.T) {
	store := pagestore.Open(pagestore.NewMemBackend(), 256)
	defer store.Close()
	tr, err := Create(store)
	if err != nil {
		t.Fatal(err)
	}
	pin := uint64(40)
	store.SetSnapshotSource(func() uint64 { return pin })
	var pinRoot pagestore.PageID
	for lsn := uint64(1); lsn <= 41; lsn++ {
		c := store.BeginCapture(0)
		if lsn <= 40 {
			err = tr.Insert(hintKey(int(lsn)), make([]byte, 200))
		} else {
			err = tr.Delete(hintKey(20))
		}
		if err != nil {
			t.Fatal(err)
		}
		c.Deltas()
		c.Commit(lsn)
		c.Close()
		if lsn == pin {
			pinRoot = tr.root
		}
	}
	h := remember(t, tr, hintKey(21))
	before := h
	c := tr.ViewAt(pinRoot, pin).HintedCursor(&h)
	if !c.Find(hintKey(20)) {
		t.Error("the snapshot lost k0020: its cursor read the live leaf the hint names")
	}
	c.Close()
	if h != before {
		t.Errorf("a snapshot cursor rewrote the hint: %+v, was %+v", h, before)
	}
	lc := tr.HintedCursor(&h)
	if lc.Find(hintKey(20)) {
		t.Error("fixture: the live tree still holds k0020")
	}
	lc.Close()
}
