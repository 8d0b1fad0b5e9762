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

// mustAppend appends the tree's last key with a "z" added, under that key
// as its parent, as a document load appends a first child, and fails unless
// the append entry wrote it. Its 30 bytes fit twice more on a leaf the hint
// tests filled.
func mustAppend(t *testing.T, tr *Tree) {
	t.Helper()
	keys := keysOf(t, tr)
	last := keys[len(keys)-1]
	key := append(slices.Clip(last), 'z')
	ok, err := tr.Append(key, make([]byte, 20), last)
	if err != nil || !ok {
		t.Fatalf("Append(%s) = %v, %v", key, ok, err)
	}
	checkAppended(t, tr, append(keys, key))
}

// TestAppendBuildsTheInsertTree loads SPLIDs in document order, each under
// its parent, through Append with Insert as the fallback: the pages are
// those Insert alone writes. Append declines at a full rightmost leaf or a
// parent on an earlier leaf, for fewer than one key in twenty.
func TestAppendBuildsTheInsertTree(t *testing.T) {
	keys, vals := bibCells(4, 20)
	build := func(appendFirst bool) (*pagestore.MemBackend, int) {
		be := pagestore.NewMemBackend()
		s := pagestore.Open(be, 2048)
		defer s.Close()
		tr, err := Create(s)
		if err != nil {
			t.Fatal(err)
		}
		declined := 0
		for i, k := range keys {
			ok := false
			if appendFirst && i > 0 {
				id, err := splid.Decode(k)
				if err != nil {
					t.Fatal(err)
				}
				if ok, err = tr.Append(k, vals[i], k[:id.Parent().EncodedLen()]); err != nil {
					t.Fatal(err)
				}
			}
			if !ok {
				declined++
				if err := tr.Insert(k, vals[i]); err != nil {
					t.Fatal(err)
				}
			}
		}
		checkAppended(t, tr, keys)
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
	if declined*20 > len(keys) {
		t.Fatalf("Append declined %d of %d keys", declined, len(keys))
	}
}

// TestAppendDeclines: a key that does not sort past the last key, a parent
// that is not on the rightmost leaf, and a cell that does not fit are
// refused, and the tree is left as it was.
func TestAppendDeclines(t *testing.T) {
	tr := hintTree(t, 256, 0, 64, 1000) // the rightmost leaf is full
	last := hintKey(63)
	next := append(hintKey(63), 'z')
	for _, c := range []struct {
		name             string
		key, val, parent []byte
	}{
		{"equal to the last key", last, nil, hintKey(62)},
		{"below the last key", append(hintKey(62), 'z'), nil, hintKey(62)},
		{"parent on an earlier leaf", next, nil, hintKey(1)},
		{"parent not stored", next, nil, append(hintKey(63), 'y')},
		{"no parent", next, nil, nil},
		{"does not fit", next, make([]byte, 100), last},
	} {
		t.Run(c.name, func(t *testing.T) {
			want := keysOf(t, tr)
			if ok, err := tr.Append(c.key, c.val, c.parent); ok || err != nil {
				t.Fatalf("Append(%s under %s) = %v, %v", c.key, c.parent, ok, err)
			}
			checkAppended(t, tr, want)
		})
	}
	mustAppend(t, tr)
}

// TestAppendAfterStaleMemory: the leaf Append remembers stopped being the
// rightmost leaf — it split in the middle, emptied and was freed, came back
// from the free list in the middle of the tree or as the root, or left the
// pool. Append finds the rightmost leaf by a descent and writes there.
func TestAppendAfterStaleMemory(t *testing.T) {
	setUp := func(t *testing.T, frames, n int) (*Tree, pagestore.PageID) {
		tr := hintTree(t, frames, 0, n, 1000)
		mustAppend(t, tr)
		if tr.tail.id != findID(t, tr, append(hintKey(n-1), 'z')) {
			t.Fatalf("Append remembers page %d", tr.tail.id)
		}
		return tr, tr.tail.id
	}
	// emptyTail deletes every key of the remembered leaf.
	emptyTail := func(t *testing.T, tr *Tree, tail pagestore.PageID) {
		for _, k := range keysOf(t, tr) {
			if findID(t, tr, k) == tail {
				if err := tr.Delete(k); err != nil {
					t.Fatal(err)
				}
			}
		}
		if !slices.Contains(tr.free, tail) {
			t.Fatalf("fixture: page %d is not on the free list %v", tail, tr.free)
		}
	}
	t.Run("split", func(t *testing.T) {
		tr, tail := setUp(t, 256, 60)
		for i := 0; leafNext(pageOf(t, tr, tail)) == pagestore.InvalidPage; i++ {
			if err := tr.Insert(append(hintKey(58), byte('a'+i)), make([]byte, 1000)); err != nil {
				t.Fatal(err)
			}
		}
		mustAppend(t, tr)
	})
	t.Run("freed", func(t *testing.T) {
		tr, tail := setUp(t, 256, 59)
		emptyTail(t, tr, tail)
		mustAppend(t, tr)
	})
	t.Run("reused in the middle", func(t *testing.T) {
		tr, tail := setUp(t, 256, 59)
		emptyTail(t, tr, tail)
		for i := 0; slices.Contains(tr.free, tail); i++ {
			if err := tr.Insert(append(hintKey(5), byte('a'+i)), make([]byte, 1000)); err != nil {
				t.Fatal(err)
			}
		}
		if p := pageOf(t, tr, tail); pageKind(p) != kindLeaf || leafNext(p) == pagestore.InvalidPage {
			t.Fatalf("fixture: page %d is not a leaf in the middle", tail)
		}
		mustAppend(t, tr)
	})
	t.Run("reused as the root", func(t *testing.T) {
		tr, tail := setUp(t, 256, 9)
		emptyTail(t, tr, tail)
		for i := 0; tr.root != tail; i++ {
			if err := tr.Insert(append(hintKey(1), byte(i)), make([]byte, 1000)); err != nil {
				t.Fatal(err)
			}
			if i == 20 {
				t.Fatalf("page %d never became the root (free list %v)", tail, tr.free)
			}
		}
		mustAppend(t, tr)
	})
	t.Run("evicted", func(t *testing.T) {
		tr, tail := setUp(t, 16, 400)
		if err := tr.Ascend(nil, hintKey(300), func(_, _ []byte) bool { return true }); err != nil {
			t.Fatal(err)
		}
		if f := tr.store.FixResident(tail); f != nil {
			t.Fatalf("fixture: page %d still resident", tail)
		}
		mustAppend(t, tr)
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
