package btree

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/pagestore"
)

// oracle is the iteration code the cursor replaced, kept as the reference
// the cursor-backed reads are compared against: one root-to-leaf descent per
// call, the limit compared on every record, a private copy of each loop that
// today's Ascend, Descend and Seek* share with the cursor. It reads pages
// through a fix function, so one body serves the live tree and a snapshot.
type oracle struct {
	root pagestore.PageID
	fix  func(pagestore.PageID) ([]byte, func(), error)
}

func liveOracle(t *Tree) oracle {
	return oracle{root: t.root, fix: func(id pagestore.PageID) ([]byte, func(), error) {
		f, err := t.store.Fix(id)
		if err != nil {
			return nil, nil, err
		}
		return f.Data(), func() { t.store.Unfix(f) }, nil
	}}
}

func snapOracle(t *Tree, root pagestore.PageID, snap uint64) oracle {
	return oracle{root: root, fix: func(id pagestore.PageID) ([]byte, func(), error) {
		p, f, err := t.store.FixAt(id, snap)
		return p, func() {
			if f != nil {
				t.store.Unfix(f)
			}
		}, err
	}}
}

func (o oracle) findLeaf(key []byte) ([]byte, func(), error) {
	id := o.root
	for {
		p, rel, err := o.fix(id)
		if err != nil {
			return nil, nil, err
		}
		if pageKind(p) == kindLeaf {
			return p, rel, nil
		}
		id, _ = childPage(p, childIndexFor(p, key))
		rel()
	}
}

func (o oracle) findEdgeLeaf(dir int) ([]byte, func(), error) {
	id := o.root
	for {
		p, rel, err := o.fix(id)
		if err != nil {
			return nil, nil, err
		}
		if pageKind(p) == kindLeaf {
			return p, rel, nil
		}
		if dir < 0 || nCells(p) == 0 {
			id = child0(p)
		} else {
			id = childAt(p, nCells(p)-1)
		}
		rel()
	}
}

func (o oracle) Get(key []byte) ([]byte, error) {
	p, rel, err := o.findLeaf(key)
	if err != nil {
		return nil, err
	}
	defer rel()
	slot, found := search(p, key)
	if !found {
		return nil, ErrNotFound
	}
	_, val := cellAt(p, slot)
	return append([]byte(nil), val...), nil
}

func (o oracle) Ascend(start, limit []byte, fn func(key, val []byte) bool) error {
	var p []byte
	var rel func()
	var err error
	if start == nil {
		p, rel, err = o.findEdgeLeaf(-1)
	} else {
		p, rel, err = o.findLeaf(start)
	}
	if err != nil {
		return err
	}
	slot := 0
	if start != nil {
		slot, _ = search(p, start)
	}
	var kbuf []byte
	for {
		for ; slot < nCells(p); slot++ {
			kbuf = fullKey(p, slot, kbuf[:0])
			_, val := cellAt(p, slot)
			if limit != nil && bytes.Compare(kbuf, limit) >= 0 {
				rel()
				return nil
			}
			if !fn(kbuf, val) {
				rel()
				return nil
			}
		}
		next := leafNext(p)
		rel()
		if next == pagestore.InvalidPage {
			return nil
		}
		if p, rel, err = o.fix(next); err != nil {
			return err
		}
		slot = 0
	}
}

func (o oracle) Descend(high, low []byte, fn func(key, val []byte) bool) error {
	var p []byte
	var rel func()
	var err error
	var slot int
	if high == nil {
		if p, rel, err = o.findEdgeLeaf(1); err != nil {
			return err
		}
		slot = nCells(p) - 1
	} else {
		if p, rel, err = o.findLeaf(high); err != nil {
			return err
		}
		s, _ := search(p, high)
		slot = s - 1
	}
	var kbuf []byte
	for {
		for ; slot >= 0; slot-- {
			kbuf = fullKey(p, slot, kbuf[:0])
			_, val := cellAt(p, slot)
			if low != nil && bytes.Compare(kbuf, low) < 0 {
				rel()
				return nil
			}
			if !fn(kbuf, val) {
				rel()
				return nil
			}
		}
		prev := leafPrev(p)
		rel()
		if prev == pagestore.InvalidPage {
			return nil
		}
		if p, rel, err = o.fix(prev); err != nil {
			return err
		}
		slot = nCells(p) - 1
	}
}

// first returns a copy of the first pair a scan yields that skip lets pass.
func first(scan func(fn func(k, v []byte) bool) error, skip []byte) (key, val []byte, err error) {
	err = ErrNotFound
	serr := scan(func(k, v []byte) bool {
		if skip != nil && bytes.Equal(k, skip) {
			return true
		}
		key, val, err = append([]byte(nil), k...), append([]byte(nil), v...), nil
		return false
	})
	if serr != nil {
		return nil, nil, serr
	}
	return key, val, err
}

func (o oracle) SeekGE(target []byte) (key, val []byte, err error) {
	return first(func(fn func(k, v []byte) bool) error { return o.Ascend(target, nil, fn) }, nil)
}

func (o oracle) SeekGT(target []byte) (key, val []byte, err error) {
	return first(func(fn func(k, v []byte) bool) error { return o.Ascend(target, nil, fn) }, target)
}

func (o oracle) SeekLT(target []byte) (key, val []byte, err error) {
	return first(func(fn func(k, v []byte) bool) error { return o.Descend(target, nil, fn) }, nil)
}

func (o oracle) SeekLE(target []byte) (key, val []byte, err error) {
	if v, gerr := o.Get(target); gerr == nil {
		return append([]byte(nil), target...), v, nil
	} else if gerr != ErrNotFound {
		return nil, nil, gerr
	}
	return o.SeekLT(target)
}

// leafFirstKeys walks the leaf chain and returns each leaf's first key — the
// leaf boundaries the limit tests aim at.
func leafFirstKeys(t *testing.T, o oracle) [][]byte {
	t.Helper()
	p, rel, err := o.findEdgeLeaf(-1)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for {
		if nCells(p) > 0 {
			out = append(out, fullKey(p, 0, nil))
		}
		next := leafNext(p)
		rel()
		if next == pagestore.InvalidPage {
			return out
		}
		if p, rel, err = o.fix(next); err != nil {
			t.Fatal(err)
		}
	}
}

// neighbours returns k with the keys just below and just above it.
func neighbours(k []byte) [][]byte {
	below := append([]byte(nil), k...)
	below[len(below)-1]--
	return [][]byte{below, k, append(append([]byte(nil), k...), 0)}
}

// digest is what a scan yielded: how many pairs, and a hash over them in order.
type digest struct {
	n   int
	sum uint32
}

// collect runs a scan, stopping after stop pairs when stop > 0.
func collect(scan func(fn func(k, v []byte) bool) error, stop int) (digest, error) {
	var d digest
	err := scan(func(k, v []byte) bool {
		d.sum = crc32.Update(crc32.Update(d.sum, crc32.IEEETable, k)+1, crc32.IEEETable, v)
		d.n++
		return d.n != stop
	})
	return d, err
}

// compareReads checks every cursor-backed read of v against the oracle: the
// point reads on each probe, the scans on each probe pair, nil bounds and
// early stops included.
func compareReads(t *testing.T, v *View, o oracle, rng *rand.Rand) {
	t.Helper()
	var keys [][]byte
	if err := o.Ascend(nil, nil, func(k, _ []byte) bool {
		keys = append(keys, append([]byte(nil), k...))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	probes := [][]byte{{0}, {0xff, 0xff}}
	bounds := [][]byte{nil, {0}, {0xff, 0xff}}
	for _, k := range leafFirstKeys(t, o) { // a limit inside, at and after each leaf boundary
		probes = append(probes, neighbours(k)...)
		bounds = append(bounds, neighbours(k)...)
	}
	for i := 0; i < 40 && len(keys) > 0; i++ {
		probes = append(probes, neighbours(keys[rng.Intn(len(keys))])...)
	}
	if len(bounds) > 16 {
		rng.Shuffle(len(bounds), func(i, j int) { bounds[i], bounds[j] = bounds[j], bounds[i] })
		bounds = append(bounds[:16], nil)
	}

	type seek func([]byte) ([]byte, []byte, error)
	seeks := []struct {
		name      string
		got, want seek
	}{
		{"SeekGE", v.SeekGE, o.SeekGE}, {"SeekGT", v.SeekGT, o.SeekGT},
		{"SeekLT", v.SeekLT, o.SeekLT}, {"SeekLE", v.SeekLE, o.SeekLE},
	}
	for _, p := range append(probes, nil) {
		for _, s := range seeks {
			if p == nil && s.name == "SeekLE" {
				continue // SeekLE of no key is not a question anyone asks
			}
			gk, gv, gerr := s.got(p)
			wk, wv, werr := s.want(p)
			if !bytes.Equal(gk, wk) || !bytes.Equal(gv, wv) || gerr != werr {
				t.Fatalf("%s(%x) = %x, %x, %v; oracle %x, %x, %v", s.name, p, gk, gv, gerr, wk, wv, werr)
			}
		}
		if p == nil {
			continue
		}
		gv, gerr := v.Get(p)
		wv, werr := o.Get(p)
		has, herr := v.Has(p)
		if !bytes.Equal(gv, wv) || gerr != werr || has != (werr == nil) || herr != nil {
			t.Fatalf("Get(%x) = %x, %v, Has %v, %v; oracle %x, %v", p, gv, gerr, has, herr, wv, werr)
		}
	}
	for _, a := range bounds {
		for _, b := range bounds {
			// Remaining, asked again whenever the last count has run out,
			// cuts the range by leaves: every count is used up exactly, the
			// last one by the end of the range.
			c := v.Cursor()
			c.Limit(b)
			left, counted, visited := 0, 0, 0
			for ok := c.Seek(a); ok; ok = c.Next() {
				if left == 0 {
					if left = c.Remaining(); left < 1 {
						t.Fatalf("[%x, %x): Remaining %d on a key", a, b, left)
					}
					counted += left
				}
				left--
				visited++
			}
			c.Close()
			if want, _ := collect(func(fn func(k, v []byte) bool) error { return o.Ascend(a, b, fn) }, 0); left != 0 || counted != visited || visited != want.n {
				t.Fatalf("[%x, %x): Remaining counted %d keys (%d unused), the cursor visited %d, the oracle %d", a, b, counted, left, visited, want.n)
			}
			for _, stop := range []int{0, 1, 7} {
				got, gerr := collect(func(fn func(k, v []byte) bool) error { return v.Ascend(a, b, fn) }, stop)
				want, werr := collect(func(fn func(k, v []byte) bool) error { return o.Ascend(a, b, fn) }, stop)
				if gerr != nil || werr != nil || got != want {
					t.Fatalf("Ascend(%x, %x) stop %d: %d pairs, %v; oracle %d pairs, %v", a, b, stop, got.n, gerr, want.n, werr)
				}
				got, gerr = collect(func(fn func(k, v []byte) bool) error { return v.Descend(a, b, fn) }, stop)
				want, werr = collect(func(fn func(k, v []byte) bool) error { return o.Descend(a, b, fn) }, stop)
				if gerr != nil || werr != nil || got != want {
					t.Fatalf("Descend(%x, %x) stop %d: %d pairs, %v; oracle %d pairs, %v", a, b, stop, got.n, gerr, want.n, werr)
				}
			}
		}
	}
	if n := v.t.store.PinnedFrames(); n != 0 {
		t.Fatalf("%d frames still pinned after the reads", n)
	}
}

// treeShapes are the seeded trees of the differential test: what a mutation
// stream of n steps over a key space looks like, and how big its values are.
var treeShapes = []struct {
	name           string
	steps, space   int
	valLen         int
	deleteRangeAt  int // step at which a contiguous quarter of the key space is deleted (0: never)
	key            func(i int) []byte
	wantDepthAbove int
}{
	{name: "empty"},
	// Hundreds of short keys with a long shared prefix per leaf: prefix-compressed pages, leaf splits.
	{name: "compressed", steps: 6000, space: 4000, valLen: 6,
		key: func(i int) []byte { return []byte(fmt.Sprintf("shared/prefix/of/every/key/%06d", i)) }, wantDepthAbove: 1},
	// Four values to a leaf: hundreds of leaves, internal splits, a tree of height 3.
	{name: "tall", steps: 5000, space: 6000, valLen: 1300,
		key: func(i int) []byte { return []byte(fmt.Sprintf("%05d", i*7919%100000)) }, wantDepthAbove: 2},
	// A contiguous quarter of the keys deleted: whole leaves emptied and unlinked.
	{name: "emptied", steps: 4000, space: 3000, valLen: 300, deleteRangeAt: 3500,
		key: func(i int) []byte { return []byte(fmt.Sprintf("k%05d", i)) }, wantDepthAbove: 1},
}

// TestCursorMatchesOracle compares every cursor-backed read with the code it
// replaced, on the live tree at the end of a seeded mutation history and on a
// snapshot view pinned in the middle of it.
func TestCursorMatchesOracle(t *testing.T) {
	for _, shape := range treeShapes {
		t.Run(shape.name, func(t *testing.T) {
			store := pagestore.Open(pagestore.NewMemBackend(), 4096)
			defer store.Close()
			tr, err := Create(store)
			if err != nil {
				t.Fatal(err)
			}
			// Every step is one logged capture stamped with its own LSN, and
			// the snapshot watermark stays at the pin, so the version chains
			// keep what the pinned view needs.
			pin := uint64(shape.steps / 2)
			store.SetSnapshotSource(func() uint64 { return pin })
			rng := rand.New(rand.NewSource(int64(len(shape.name))))
			step := func(lsn uint64, mutate func() error) {
				c := store.BeginCapture(0)
				if err := mutate(); err != nil {
					t.Fatal(err)
				}
				c.Deltas()
				c.Commit(lsn)
				c.Close()
			}
			var pinRoot pagestore.PageID
			var pinKeys int
			for lsn := uint64(1); lsn <= uint64(shape.steps); lsn++ {
				k := shape.key(rng.Intn(shape.space))
				switch {
				case int(lsn) == shape.deleteRangeAt:
					step(lsn, func() error {
						_, err := tr.DeleteRange(shape.key(shape.space/4), shape.key(shape.space/2))
						return err
					})
				case rng.Intn(4) == 0:
					step(lsn, func() error {
						if err := tr.Delete(k); err != ErrNotFound {
							return err
						}
						return nil
					})
				default:
					v := bytes.Repeat([]byte{byte(lsn)}, shape.valLen+rng.Intn(shape.valLen/2+1))
					step(lsn, func() error { return tr.Insert(k, v) })
				}
				if lsn == pin {
					pinRoot, pinKeys = tr.root, tr.size
				}
			}
			if st, err := tr.Stats(); err != nil || st.Depth <= shape.wantDepthAbove {
				t.Fatalf("depth %d, want above %d (%v)", st.Depth, shape.wantDepthAbove, err)
			}
			compareReads(t, &tr.View, liveOracle(tr), rng)
			if shape.steps == 0 {
				return
			}
			view := tr.ViewAt(pinRoot, pin)
			n := 0
			if err := view.Ascend(nil, nil, func(_, _ []byte) bool { n++; return true }); err != nil || n != pinKeys {
				t.Fatalf("pinned view has %d keys, %v; the tree had %d at LSN %d", n, err, pinKeys, pin)
			}
			compareReads(t, view, snapOracle(tr, pinRoot, pin), rng)
		})
	}
}

// fuzzTree is the read-only tree FuzzCursorSeek walks, with its sorted keys.
var fuzzTree struct {
	once sync.Once
	tr   *Tree
	keys [][]byte
}

// FuzzCursorSeek interleaves Seek, SeekLT, Next and Prev on one cursor and
// checks every move against a position in the sorted key slice: -1 (before
// the first key) to len(keys) (past the last).
func FuzzCursorSeek(f *testing.F) {
	f.Add([]byte{0, 10, 2, 2, 2, 3, 3, 3, 3})
	f.Add([]byte{1, 0, 3, 2, 2, 0, 255, 2, 3, 3})
	f.Add([]byte{0, 200, 4, 100, 2, 5, 100, 3, 0, 100, 1, 100})
	f.Fuzz(func(t *testing.T, prog []byte) {
		ft := &fuzzTree
		ft.once.Do(func() {
			store := pagestore.Open(pagestore.NewMemBackend(), 1024)
			ft.tr, _ = Create(store)
			for i := 0; i < 2500; i++ {
				k := []byte(fmt.Sprintf("key/%05d", i*37%5000))
				if err := ft.tr.Insert(k, bytes.Repeat(k, 20)); err != nil {
					panic(err)
				}
				ft.keys = append(ft.keys, k)
			}
			sort.Slice(ft.keys, func(i, j int) bool { return bytes.Compare(ft.keys[i], ft.keys[j]) < 0 })
		})
		keys := ft.keys
		lowerBound := func(k []byte) int {
			return sort.Search(len(keys), func(i int) bool { return bytes.Compare(keys[i], k) >= 0 })
		}
		c := ft.tr.Cursor()
		defer c.Close()
		pos, placed := 0, false
		for len(prog) >= 2 {
			op, arg := prog[0], int(prog[1])
			prog = prog[2:]
			// A target is a stored key, or the key just below or above one.
			target := neighbours(keys[arg*len(keys)/256])[op/8%3]
			var ok, want bool
			switch op % 6 {
			case 0, 4:
				ok, pos, placed = c.Seek(target), lowerBound(target), true
				want = pos < len(keys)
			case 1, 5:
				ok, pos, placed = c.SeekLT(target), lowerBound(target)-1, true
				want = pos >= 0
			case 2:
				if ok = c.Next(); placed && pos < len(keys) {
					pos++
				}
				want = placed && pos < len(keys)
			default:
				if ok = c.Prev(); placed && pos >= 0 {
					pos--
				}
				want = placed && pos >= 0
			}
			if ok != want {
				t.Fatalf("op %d target %q: moved %v, model position %d of %d", op%6, target, ok, pos, len(keys))
			}
			if ok && (!bytes.Equal(c.Key(), keys[pos]) || !bytes.Equal(c.Value(), bytes.Repeat(keys[pos], 20))) {
				t.Fatalf("op %d target %q: at %q, model at %q", op%6, target, c.Key(), keys[pos])
			}
		}
		if err := c.Err(); err != nil {
			t.Fatal(err)
		}
	})
}
