package btree

import (
	"bytes"
	"fmt"

	"repro/internal/pagestore"
)

// View is the read surface of a tree: the live tree (every Tree embeds one)
// or the tree as of one WAL snapshot LSN (ViewAt). Every read — Get, Has, the
// scans and seeks below, and the document layer's navigation — is a Cursor
// over a View, so the live and the snapshot paths share one iteration code.
type View struct {
	t *Tree
	// A snapshot view descends from root, the tree's root as of snap, and
	// resolves pages through the version layer; the live view (atSnap false)
	// reads the tree's current root under the cursor's latch.
	root   pagestore.PageID
	snap   uint64
	atSnap bool
}

// Cursor is a position in a view's key order. From Cursor to Close it holds
// the tree's read latch — which is what orders its byte reads against a
// writer's in-place page mutations — and at most one pinned page: the leaf it
// stands on. A seek whose target lies inside that leaf's key range is a
// binary search, not a descent; a target just past the leaf is looked for in
// the next leaf first. A cursor opened with a Hint answers its first seek from
// the leaf its predecessor closed on, when that leaf is still buffered and
// brackets the target. A cursor belongs to one goroutine, must be closed, and
// must not be held across anything that waits for a writer of its tree.
//
// The position runs from just before the first key to just past the last:
// a move that reports false leaves the cursor at that end, from where the
// opposite move comes back.
type Cursor struct {
	v  *View
	p  []byte           // the pinned leaf; nil before the first seek and after an error
	f  *pagestore.Frame // its pin; nil when p is a version-chain image
	id pagestore.PageID // its page
	// The cell under the cursor, key suffix p[koff:kend] and value
	// p[kend:vend], checked by the move that landed on it (cellSpan).
	koff, kend, vend int
	slot             int  // position in p: -1 … nCells(p)
	end              int  // slots of p below the limit; Seek and Next stop there
	exact            bool // the last Seek landed on its target
	hops             int  // leaf-chain hops so far: more than the store has pages is a cycle
	err              error
	kbuf             [MaxKeyLen]byte
	// limit[:nlimit] bounds forward movement when bounded. It is a copy, so a
	// caller may build the bound in a stack buffer; keys are at most MaxKeyLen
	// bytes, and a bound's first MaxKeyLen+1 bytes order every key as the
	// whole bound does.
	limit   [MaxKeyLen + 1]byte
	nlimit  int
	bounded bool
	hint    *Hint // the leaf memory the cursor starts from and leaves its leaf in
}

// Hint is a leaf memory on one tree: the leaf the last cursor opened with it
// stood on when it closed, or the leaf Tree.Append last wrote through it.
// The zero Hint remembers nothing. It is a guess that can cost a descent but
// never give a wrong answer (the package comment says why). A hint belongs
// to one goroutine at a time, like a cursor.
type Hint struct {
	t  *Tree
	id pagestore.PageID
}

// Cursor opens a cursor on the view; the caller must Close it.
func (v *View) Cursor() Cursor {
	v.t.mu.rlock()
	return Cursor{v: v}
}

// HintedCursor opens a cursor whose first Seek or SeekLT tries the leaf h
// remembers before it descends, and which remembers its own last leaf in h
// when it closes. A snapshot view ignores h; a nil h is no hint.
func (v *View) HintedCursor(h *Hint) Cursor {
	c := v.Cursor()
	if !v.atSnap {
		c.hint = h
	}
	return c
}

// Close releases the pin and the latch; the cursor is dead afterwards.
func (c *Cursor) Close() {
	if c.v == nil {
		return
	}
	if c.hint != nil && c.f != nil {
		*c.hint = Hint{t: c.v.t, id: c.f.ID()}
	}
	c.unpin()
	c.v.t.mu.runlock()
	c.v = nil
}

// Err returns the page-resolution error that ended the cursor's moves, if any.
func (c *Cursor) Err() error { return c.err }

// Limit bounds forward movement: Seek and Next report false at the first key
// >= limit (nil: no bound). It is compared once per leaf, not once per key,
// and the cursor keeps its own copy.
func (c *Cursor) Limit(limit []byte) {
	c.nlimit, c.bounded = copy(c.limit[:], limit), limit != nil
	if c.p != nil {
		c.enter(c.id, c.p, c.f)
	}
}

// Remaining returns how many keys of the pinned leaf lie between the cursor
// (included) and the limit. When the limit falls inside the leaf that is all
// the keys Next will still visit, so a caller collecting the range can size
// its result before the first element; when the range runs on into the next
// leaf it is a lower bound.
func (c *Cursor) Remaining() int {
	if c.p == nil || c.slot < 0 {
		return 0
	}
	return max(c.end-c.slot, 0)
}

// Key returns the key under the cursor, assembled in the cursor's own buffer:
// valid until the next move.
func (c *Cursor) Key() []byte {
	return append(append(c.kbuf[:0], pagePrefix(c.p)...), c.p[c.koff:c.kend]...)
}

// Value returns the value under the cursor. It aliases page memory: valid
// until the next move or Close.
func (c *Cursor) Value() []byte { return c.p[c.kend:c.vend] }

// fix resolves one page for the view, its header checked: the live frame,
// or the page as of the snapshot (whose image may come from the version
// chain, without a pin).
func (c *Cursor) fix(id pagestore.PageID) (p []byte, f *pagestore.Frame, err error) {
	if c.v.atSnap {
		p, f, err = c.v.t.store.FixAt(id, c.v.snap)
	} else if f, err = c.v.t.store.Fix(id); err == nil {
		p = f.Data()
	}
	if err == nil {
		if err = checkHeader(id, p); err != nil && f != nil {
			c.v.t.store.Unfix(f)
		}
	}
	return p, f, err
}

// fail ends the cursor's moves with err and drops its pin; it reports false.
func (c *Cursor) fail(err error) bool {
	c.err = err
	c.unpin()
	return false
}

// at reports ok after reading the cell under the cursor for Key and Value:
// a move is where a cell is reached, so it is checked here. ok implies a
// pinned leaf and no error.
func (c *Cursor) at(ok bool) bool {
	if ok {
		c.koff, c.kend, c.vend, ok = cellSpan(c.p, c.slot)
		if !ok || c.koff-cellHeaderLen < cellStart(c.p) {
			return c.fail(corrupt(c.id, fmt.Sprintf("cell %d lies outside the page's cells", c.slot)))
		}
	}
	return ok
}

func (c *Cursor) unpin() {
	if c.f != nil {
		c.v.t.store.Unfix(c.f)
	}
	c.p, c.f = nil, nil
}

// enter makes p, page id, the pinned leaf and places the limit in it.
func (c *Cursor) enter(id pagestore.PageID, p []byte, f *pagestore.Frame) {
	c.id, c.p, c.f = id, p, f
	c.end = nCells(p)
	if c.bounded {
		c.end, _ = search(p, c.limit[:c.nlimit])
	}
}

// descend pins the leaf covering key, or the first (edge < 0) or last
// (edge > 0) leaf. The old pin goes first: a cursor never holds two.
func (c *Cursor) descend(key []byte, edge int) bool {
	c.unpin()
	id := c.v.root
	if !c.v.atSnap {
		id = c.v.t.root // stable under the latch
	}
	for depth := 0; ; depth++ {
		if depth == maxHeight {
			return c.fail(corrupt(id, "deeper than any tree grows"))
		}
		p, f, err := c.fix(id)
		if err != nil {
			return c.fail(fmt.Errorf("btree: descend to page %d: %w", id, err))
		}
		if pageKind(p) == kindLeaf {
			c.enter(id, p, f)
			return true
		}
		idx := -1 // child0; also the last child of a page with no cells
		switch {
		case edge == 0:
			idx = childIndexFor(p, key)
		case edge > 0:
			idx = nCells(p) - 1
		}
		next, ok := childPage(p, idx)
		if f != nil {
			c.v.t.store.Unfix(f)
		}
		if !ok {
			return c.fail(corrupt(id, fmt.Sprintf("cell %d runs past the page", idx)))
		}
		id = next
	}
}

// probe pins the hinted page for a cursor's first seek if it is resident and
// a leaf; the caller still checks that the leaf's keys bracket its target
// (an emptied leaf has none), and descends otherwise.
func (c *Cursor) probe() bool {
	if c.hint == nil || c.hint.t != c.v.t {
		return false
	}
	f := c.v.t.store.FixResident(c.hint.id)
	if f == nil {
		return false
	}
	if p := f.Data(); pageKind(p) == kindLeaf && checkHeader(c.hint.id, p) == nil {
		c.enter(c.hint.id, p, f)
		return true
	}
	c.v.t.store.Unfix(f)
	return false
}

// hop moves the pin along the leaf chain to page id; at the end of the chain
// (or on an error) it reports false and, at the end, keeps the old leaf.
func (c *Cursor) hop(id pagestore.PageID) bool {
	if id == pagestore.InvalidPage {
		return false
	}
	if c.hops++; c.hops > int(c.v.t.store.Backend().NumPages()) {
		return c.fail(corrupt(id, "the leaf chain has a cycle"))
	}
	c.unpin()
	p, f, err := c.fix(id)
	if err != nil {
		return c.fail(fmt.Errorf("btree: leaf chain to page %d: %w", id, err))
	}
	c.enter(id, p, f)
	return true
}

// seekHere places the cursor at target's slot in the pinned leaf. settled
// means the leaf's own keys bracket the target, so the slot is the answer
// wherever the neighbouring leaves begin and end; past, that every key of the
// leaf is below the target.
func (c *Cursor) seekHere(target []byte) (past, settled bool) {
	c.slot, c.exact = search(c.p, target)
	n := nCells(c.p)
	return c.slot == n, c.slot < n && (c.slot > 0 || c.exact)
}

// Seek moves to the first key >= target (nil: the first key) and reports
// whether there is one below the limit.
func (c *Cursor) Seek(target []byte) bool {
	if c.err != nil {
		return false
	}
	if c.p == nil && target != nil && c.probe() {
		// The remembered leaf answers only when its own keys bracket the
		// target; a miss there is no reason to try its neighbours.
		if _, settled := c.seekHere(target); settled {
			return c.at(c.slot < c.end)
		}
	} else if c.p != nil && target != nil && nCells(c.p) > 0 {
		past, settled := c.seekHere(target)
		switch {
		case settled:
		case past && leafNext(c.p) == pagestore.InvalidPage:
			return false // beyond the last key of the tree
		case past && c.hop(leafNext(c.p)):
			// Just past the pinned leaf: the next one is a page away, a
			// descent three. All its keys are above the old leaf's, so any
			// slot it offers is the answer.
			past, _ = c.seekHere(target)
			settled = !past
		case !past && c.hop(leafPrev(c.p)):
			_, settled = c.seekHere(target) // just before it: likewise
		}
		if settled || c.err != nil {
			return c.at(c.err == nil && c.slot < c.end)
		}
	}
	edge := 0
	if target == nil {
		edge = -1
	}
	if !c.descend(target, edge) {
		return false
	}
	c.slot, c.exact = 0, false
	if target != nil {
		c.seekHere(target)
	}
	if c.slot == nCells(c.p) && c.hop(leafNext(c.p)) {
		// Routed past the leaf's last key: the answer opens the next leaf,
		// at slot 0 unless a corrupt chain led elsewhere, as the search shows.
		c.slot, c.exact = search(c.p, target)
	}
	return c.at(c.p != nil && c.slot < c.end)
}

// SeekLT moves to the last key < target (nil: the last key) and reports
// whether there is one. The limit does not bound backward movement.
func (c *Cursor) SeekLT(target []byte) bool {
	if c.err != nil {
		return false
	}
	// The pinned leaf, or on a first seek the remembered one, answers when
	// its own keys bracket the target.
	if target != nil && (c.p != nil || c.probe()) {
		if s, _ := search(c.p, target); s > 0 && s < nCells(c.p) {
			c.slot = s - 1
			return c.at(true)
		}
	}
	edge := 0
	if target == nil {
		edge = 1
	}
	if !c.descend(target, edge) {
		return false
	}
	c.slot = c.lastBelow(target)
	if c.slot < 0 && c.hop(leafPrev(c.p)) {
		c.slot = c.lastBelow(target) // -1 only when a corrupt chain led here
	}
	return c.at(c.p != nil && c.slot >= 0)
}

// lastBelow is the slot of the pinned leaf's last key below target (nil: its
// last key), -1 when there is none.
func (c *Cursor) lastBelow(target []byte) int {
	if target == nil {
		return nCells(c.p) - 1
	}
	s, _ := search(c.p, target)
	return s - 1
}

// Next moves one key forward and reports whether it is below the limit.
func (c *Cursor) Next() bool {
	if c.p == nil {
		return false
	}
	if c.slot < nCells(c.p) {
		c.slot++
	}
	for c.slot >= c.end {
		if c.end < nCells(c.p) || !c.hop(leafNext(c.p)) {
			return false
		}
		c.slot = 0
	}
	return c.at(true)
}

// Prev moves one key back and reports whether there is one.
func (c *Cursor) Prev() bool {
	if c.p == nil {
		return false
	}
	if c.slot >= 0 {
		c.slot--
	}
	for c.slot < 0 {
		if !c.hop(leafPrev(c.p)) {
			return false
		}
		c.slot = nCells(c.p) - 1
	}
	return c.at(true)
}

// Find moves to key and reports whether it is stored.
func (c *Cursor) Find(key []byte) bool {
	return c.Seek(key) && c.exact
}

// miss is the error of a move that reported false: the cursor's, or
// ErrNotFound.
func (c *Cursor) miss() error {
	if c.err != nil {
		return c.err
	}
	return ErrNotFound
}

// pair returns copies of the key and value under the cursor when ok.
func (c *Cursor) pair(ok bool) (key, val []byte, err error) {
	if !ok {
		return nil, nil, c.miss()
	}
	return append([]byte(nil), c.Key()...), append([]byte(nil), c.Value()...), nil
}

// Get returns a copy of the value stored under key, or ErrNotFound.
func (v *View) Get(key []byte) ([]byte, error) {
	c := v.Cursor()
	defer c.Close()
	if !c.Find(key) {
		return nil, c.miss()
	}
	return append([]byte(nil), c.Value()...), nil
}

// Has reports whether key is present.
func (v *View) Has(key []byte) (bool, error) {
	c := v.Cursor()
	defer c.Close()
	return c.Find(key), c.err
}

// Ascend visits keys in [start, limit) in ascending order. A nil start
// begins at the first key; a nil limit runs to the end. fn's slices alias
// cursor and page memory and are only valid during the callback; return
// false to stop.
func (v *View) Ascend(start, limit []byte, fn func(key, val []byte) bool) error {
	c := v.Cursor()
	defer c.Close()
	c.Limit(limit)
	for ok := c.Seek(start); ok && fn(c.Key(), c.Value()); ok = c.Next() {
	}
	return c.err
}

// Descend visits keys strictly below high in descending order, stopping
// before keys below low. A nil high begins at the last key (inclusive); a
// nil low runs to the first key. fn's slices alias cursor and page memory;
// return false to stop.
func (v *View) Descend(high, low []byte, fn func(key, val []byte) bool) error {
	c := v.Cursor()
	defer c.Close()
	for ok := c.SeekLT(high); ok; ok = c.Prev() {
		k := c.Key()
		if low != nil && bytes.Compare(k, low) < 0 || !fn(k, c.Value()) {
			break
		}
	}
	return c.err
}

// SeekGE returns copies of the first key-value pair with key >= target, or
// ErrNotFound when no such key exists.
func (v *View) SeekGE(target []byte) (key, val []byte, err error) {
	c := v.Cursor()
	defer c.Close()
	return c.pair(c.Seek(target))
}

// SeekGT returns the first pair with key strictly greater than target.
func (v *View) SeekGT(target []byte) (key, val []byte, err error) {
	c := v.Cursor()
	defer c.Close()
	ok := c.Seek(target)
	if ok && c.exact {
		ok = c.Next()
	}
	return c.pair(ok)
}

// SeekLT returns the last pair with key strictly less than target; a nil
// target seeks the greatest key in the tree.
func (v *View) SeekLT(target []byte) (key, val []byte, err error) {
	c := v.Cursor()
	defer c.Close()
	return c.pair(c.SeekLT(target))
}

// SeekLE returns the last pair with key <= target.
func (v *View) SeekLE(target []byte) (key, val []byte, err error) {
	c := v.Cursor()
	defer c.Close()
	return c.pair(c.Find(target) || c.Prev())
}
