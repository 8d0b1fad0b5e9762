package btree

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/pagestore"
	"repro/internal/splid"
)

// checkAppended walks the leaf chain from the first leaf and fails unless
// its back links match, its keys ascend across leaves and are exactly want,
// and Ascend and Len agree with it.
func checkAppended(t *testing.T, tr *Tree, want [][]byte) {
	t.Helper()
	c := tr.Cursor()
	c.Seek(nil)
	id := c.f.ID()
	c.Close()
	var chain [][]byte
	for prev := pagestore.InvalidPage; id != pagestore.InvalidPage; {
		p := pageOf(t, tr, id)
		if leafPrev(p) != prev || len(chain) > len(want) {
			t.Fatalf("leaf %d links back to %d, not %d, after %d keys", id, leafPrev(p), prev, len(chain))
		}
		for i := range nCells(p) {
			chain = append(chain, fullKey(p, i, nil))
		}
		prev, id = id, leafNext(p)
	}
	if asc := keysOf(t, tr); !slices.IsSortedFunc(chain, bytes.Compare) || !slices.EqualFunc(chain, want, bytes.Equal) ||
		!slices.EqualFunc(asc, want, bytes.Equal) || tr.Len() != len(want) {
		t.Fatalf("leaf chain %q, Ascend %q, Len %d; want %q", chain, asc, tr.Len(), want)
	}
}

// findID returns the page of the leaf holding key.
func findID(t *testing.T, tr *Tree, key []byte) pagestore.PageID {
	t.Helper()
	c := tr.Cursor()
	defer c.Close()
	if !c.Find(key) {
		t.Fatalf("%s not found", key)
	}
	return c.f.ID()
}

// keysOf returns the tree's keys in order.
func keysOf(t *testing.T, tr *Tree) [][]byte {
	t.Helper()
	var keys [][]byte
	if err := tr.Ascend(nil, nil, func(k, _ []byte) bool {
		keys = append(keys, append([]byte(nil), k...))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return keys
}

// mustAppend appends key with a 20-byte value under parent through h and
// fails unless Append wrote it, the tree holds it among its old keys, and h
// remembers the leaf that holds it. It returns the page fixes Append took:
// one when the leaf h remembered covered key, one per level of the tree
// when Append descended.
func mustAppend(t *testing.T, tr *Tree, h *Hint, key, parent []byte) uint64 {
	t.Helper()
	want := append(keysOf(t, tr), key)
	slices.SortFunc(want, bytes.Compare)
	var ok bool
	var err error
	n := fixes(tr, func() { ok, err = tr.Append(h, key, make([]byte, 20), parent) })
	if err != nil || !ok {
		t.Fatalf("Append(%s under %s) = %v, %v", key, parent, ok, err)
	}
	checkAppended(t, tr, want)
	if id := findID(t, tr, key); h.t != tr || h.id != id {
		t.Fatalf("Append remembers page %d, %s is on page %d", h.id, key, id)
	}
	return n
}

// after returns key with a byte appended: the key next to it in byte order,
// which a load appends as the first child of key.
func after(key []byte, b byte) []byte { return append(slices.Clip(key), b) }

// TestAppendBuildsTheInsertTree loads keys through Append, with Insert as
// the fallback, and compares the pages with those Insert alone writes: the
// document tree of a bib document, SPLIDs in document order each under its
// parent through one hint, and an element index over it, whose keys open
// with a name (here the level) and ascend per name, through one hint per
// name and with no parent. Append declines where Insert splits a leaf and,
// in the document tree, where the parent is on the leaf before.
func TestAppendBuildsTheInsertTree(t *testing.T) {
	docKeys, docVals := bibCells(4, 20)
	var elemKeys, elemVals [][]byte
	var names []int
	for _, k := range docKeys {
		id, err := splid.Decode(k)
		if err != nil {
			t.Fatal(err)
		}
		name := id.Level() % 6
		names = append(names, name)
		elemKeys = append(elemKeys, append([]byte{byte(name)}, k...))
		elemVals = append(elemVals, nil)
	}
	for _, c := range []struct {
		name       string
		keys, vals [][]byte
		hint       func(i int) int
		parent     func(i int) []byte
		maxDecline int // per thousand keys
	}{
		{"document", docKeys, docVals, func(int) int { return 0 }, func(i int) []byte {
			id, _ := splid.Decode(docKeys[i])
			return docKeys[i][:id.Parent().EncodedLen()]
		}, 50},
		{"element index", elemKeys, elemVals, func(i int) int { return names[i] }, func(int) []byte { return nil }, 50},
	} {
		t.Run(c.name, func(t *testing.T) {
			build := func(appendFirst bool) (*pagestore.MemBackend, int) {
				be := pagestore.NewMemBackend()
				s := pagestore.Open(be, 2048)
				defer s.Close()
				tr, err := Create(s)
				if err != nil {
					t.Fatal(err)
				}
				hints := make([]Hint, 6)
				declined := 0
				for i, k := range c.keys {
					ok := false
					if appendFirst {
						if ok, err = tr.Append(&hints[c.hint(i)], k, c.vals[i], c.parent(i)); err != nil {
							t.Fatal(err)
						}
					}
					if !ok {
						declined++
						if err := tr.Insert(k, c.vals[i]); err != nil {
							t.Fatal(err)
						}
					}
				}
				want := slices.Clone(c.keys)
				slices.SortFunc(want, bytes.Compare)
				checkAppended(t, tr, want)
				if err := s.Flush(); err != nil {
					t.Fatal(err)
				}
				return be, declined
			}
			inserted, _ := build(false)
			appended, declined := build(true)
			if inserted.NumPages() != appended.NumPages() {
				t.Fatalf("%d pages inserted, %d appended", inserted.NumPages(), appended.NumPages())
			}
			a, b := make([]byte, pagestore.PageSize), make([]byte, pagestore.PageSize)
			for id := pagestore.PageID(0); id < inserted.NumPages(); id++ {
				inserted.ReadPage(id, a)
				appended.ReadPage(id, b)
				if !bytes.Equal(a[pagestore.PageHeaderSize:], b[pagestore.PageHeaderSize:]) {
					t.Fatalf("page %d differs", id)
				}
			}
			if declined*1000 > c.maxDecline*len(c.keys) {
				t.Fatalf("Append declined %d of %d keys", declined, len(c.keys))
			}
		})
	}
}

// TestAppendWrites: a key the remembered leaf covers is written with one
// fix — between two of its keys, or past the last key of the rightmost leaf
// — with or without a parent to check. A key past the last key of a leaf
// with a right sibling, or below its first key, costs a descent after that
// fix, which writes it where it belongs and moves the memory there.
func TestAppendWrites(t *testing.T) {
	s := pagestore.Open(pagestore.NewMemBackend(), 256)
	t.Cleanup(func() { s.Close() })
	tr, err := Create(s)
	if err != nil {
		t.Fatal(err)
	}
	for i := 299; i >= 0; i-- { // descending: 50/50 splits leave room
		if err := tr.Insert(hintKey(i), make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
	}
	st, _ := tr.Stats()
	height := uint64(st.Depth)
	middle, last := remember(t, tr, hintKey(150)), remember(t, tr, hintKey(299))
	p := pageOf(t, tr, middle.id)
	inner, edge := fullKey(p, nCells(p)/2, nil), fullKey(p, nCells(p)-1, nil)
	if height < 2 || middle.id == last.id || leafNext(p) == pagestore.InvalidPage {
		t.Fatalf("fixture: height %d, leaves %d and %d", height, middle.id, last.id)
	}
	for _, c := range []struct {
		name        string
		h           Hint
		key, parent []byte
		fixes       uint64
	}{
		{"between two keys", middle, after(inner, 'm'), nil, 1},
		{"between two keys, under the key before", middle, after(inner, 'n'), inner, 1},
		{"past the end of the rightmost leaf", last, after(hintKey(299), 'z'), nil, 1},
		{"past the end, under the last key", last, after(hintKey(299), 'y'), hintKey(299), 1},
		{"past the end of a leaf in the middle", middle, after(edge, 'x'), edge, 1 + height},
		{"below the first key of the leaf", last, after(inner, 'o'), nil, 1 + height},
		{"no memory", Hint{}, after(hintKey(10), 'm'), hintKey(10), height},
	} {
		t.Run(c.name, func(t *testing.T) {
			h := c.h
			if n := mustAppend(t, tr, &h, c.key, c.parent); n != c.fixes {
				t.Errorf("Append took %d fixes, want %d", n, c.fixes)
			}
		})
	}
}

// TestAppendDeclines: a key that is stored, a parent that is not on the
// key's leaf or not stored, and a cell that does not fit are refused, with
// the memory on the key's leaf or without one, and the tree is left as it
// was.
func TestAppendDeclines(t *testing.T) {
	tr := hintTree(t, 256, 0, 64, 1000) // seven to a leaf; the rightmost is full
	last := hintKey(63)
	next := after(last, 'z')
	for _, c := range []struct {
		name             string
		key, val, parent []byte
	}{
		{"equal to the last key", last, nil, nil},
		{"equal to a key in the middle", hintKey(30), nil, nil},
		{"parent on an earlier leaf", next, nil, hintKey(1)},
		{"parent not stored", next, nil, after(hintKey(63), 'y')},
		{"does not fit", next, make([]byte, 100), last},
		{"does not fit, in the middle", after(hintKey(30), 'z'), make([]byte, 100), nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			for _, hinted := range []bool{false, true} {
				var h Hint
				if hinted {
					h = remember(t, tr, c.key[:5])
				}
				want := keysOf(t, tr)
				if ok, err := tr.Append(&h, c.key, c.val, c.parent); ok || err != nil {
					t.Fatalf("hinted %v: Append(%s under %s) = %v, %v", hinted, c.key, c.parent, ok, err)
				}
				checkAppended(t, tr, want)
			}
		})
	}
	if err := tr.Insert(next, make([]byte, 100)); err != nil { // opens a leaf
		t.Fatal(err)
	}
	h := remember(t, tr, next)
	mustAppend(t, tr, &h, after(next, 'z'), next)
}

// TestAppendAfterStaleMemory: the leaf Append remembers no longer covers the
// next key — it split, emptied and was freed, came back from the free list
// in the middle of the tree or as the root, or left the pool. Append
// descends, writes the key where it belongs and remembers that leaf.
func TestAppendAfterStaleMemory(t *testing.T) {
	setUp := func(t *testing.T, frames, n int) (*Tree, Hint) {
		tr := hintTree(t, frames, 0, n, 1000)
		var h Hint
		mustAppend(t, tr, &h, after(hintKey(n-1), 'z'), hintKey(n-1))
		return tr, h
	}
	// lastKey is the tree's last key with a byte appended.
	lastKey := func(t *testing.T, tr *Tree) []byte {
		keys := keysOf(t, tr)
		return after(keys[len(keys)-1], 'z')
	}
	// emptyLeaf deletes every key of the remembered leaf.
	emptyLeaf := func(t *testing.T, tr *Tree, h Hint) {
		for _, k := range keysOf(t, tr) {
			if findID(t, tr, k) == h.id {
				if err := tr.Delete(k); err != nil {
					t.Fatal(err)
				}
			}
		}
		if !slices.Contains(tr.free, h.id) {
			t.Fatalf("fixture: page %d is not on the free list %v", h.id, tr.free)
		}
	}
	t.Run("split", func(t *testing.T) {
		tr, h := setUp(t, 256, 60)
		for i := 0; leafNext(pageOf(t, tr, h.id)) == pagestore.InvalidPage; i++ {
			if err := tr.Insert(append(hintKey(58), byte('a'+i)), make([]byte, 1000)); err != nil {
				t.Fatal(err)
			}
		}
		mustAppend(t, tr, &h, lastKey(t, tr), nil)
	})
	t.Run("no longer brackets the key", func(t *testing.T) {
		tr, h := setUp(t, 256, 60)
		key := after(hintKey(40), 'm')
		if findID(t, tr, hintKey(40)) == h.id {
			t.Fatal("fixture: the key is on the remembered leaf")
		}
		mustAppend(t, tr, &h, key, hintKey(40))
	})
	t.Run("freed", func(t *testing.T) {
		tr, h := setUp(t, 256, 59)
		emptyLeaf(t, tr, h)
		mustAppend(t, tr, &h, lastKey(t, tr), nil)
	})
	t.Run("reused in the middle", func(t *testing.T) {
		tr, h := setUp(t, 256, 59)
		emptyLeaf(t, tr, h)
		for i := 0; slices.Contains(tr.free, h.id); i++ {
			if err := tr.Insert(append(hintKey(5), byte('a'+i)), make([]byte, 1000)); err != nil {
				t.Fatal(err)
			}
		}
		if p := pageOf(t, tr, h.id); pageKind(p) != kindLeaf || leafNext(p) == pagestore.InvalidPage {
			t.Fatalf("fixture: page %d is not a leaf in the middle", h.id)
		}
		mustAppend(t, tr, &h, lastKey(t, tr), nil)
	})
	t.Run("reused as the root", func(t *testing.T) {
		tr, h := setUp(t, 256, 9)
		emptyLeaf(t, tr, h)
		for i := 0; tr.root != h.id; i++ {
			if err := tr.Insert(append(hintKey(1), byte(i)), make([]byte, 1000)); err != nil {
				t.Fatal(err)
			}
			if i == 20 {
				t.Fatalf("page %d never became the root (free list %v)", h.id, tr.free)
			}
		}
		mustAppend(t, tr, &h, lastKey(t, tr), nil)
	})
	t.Run("evicted", func(t *testing.T) {
		tr, h := setUp(t, 16, 400)
		if err := tr.Ascend(nil, hintKey(300), func(_, _ []byte) bool { return true }); err != nil {
			t.Fatal(err)
		}
		if f := tr.store.FixResident(h.id); f != nil {
			t.Fatalf("fixture: page %d still resident", h.id)
		}
		mustAppend(t, tr, &h, lastKey(t, tr), nil)
	})
}

// pageOf returns a copy of page id.
func pageOf(t *testing.T, tr *Tree, id pagestore.PageID) []byte {
	t.Helper()
	f, err := tr.store.Fix(id)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.store.Unfix(f)
	return append([]byte(nil), f.Data()...)
}
