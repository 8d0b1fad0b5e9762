package btree

import (
	"bytes"
	"fmt"

	"repro/internal/pagestore"
)

// Insert stores val under key, replacing any existing value (upsert).
func (t *Tree) Insert(key, val []byte) error {
	if len(key) == 0 {
		return fmt.Errorf("btree: empty key")
	}
	if len(key) > MaxKeyLen {
		return fmt.Errorf("%w (%d bytes)", ErrKeyTooLong, len(key))
	}
	if len(val) > MaxValueLen {
		return fmt.Errorf("%w (%d bytes)", ErrValueTooLong, len(val))
	}
	t.mu.lock()
	defer t.mu.unlock()
	sep, newID, added, err := t.insertRec(t.root, key, val, 0)
	if err != nil {
		return err
	}
	if added {
		t.size++
	}
	if newID != pagestore.InvalidPage {
		rf, err := t.newPage(kindInternal)
		if err != nil {
			return err
		}
		p := rf.Data()
		setChild0(p, t.root)
		if !insertCell(p, 0, sep, encodeChild(newID)) {
			panic("btree: root separator does not fit an empty page")
		}
		t.root = rf.ID()
		t.store.Unfix(rf)
	}
	return nil
}

func encodeChild(id pagestore.PageID) []byte {
	return []byte{byte(id >> 24), byte(id >> 16), byte(id >> 8), byte(id)}
}

// fitsAsIs reports whether insertCell places key and val on p without
// reading another cell: the key keeps the page prefix and the gap holds it.
// Otherwise a write checks every cell first (cellsOK).
func fitsAsIs(p []byte, key, val []byte) bool {
	return bytes.HasPrefix(key, pagePrefix(p)) && freeSpace(p) >= cellHeaderLen+len(key)-prefixLen(p)+len(val)
}

// Append stores val under key without a descent when the leaf h remembers
// covers key: its own keys bracket key, or key sorts past its last key and it
// has no right sibling. Otherwise it descends by key and remembers the leaf
// it reaches in h. It writes, and reports true, only when key is new, parent
// (unless nil) is on the leaf and the cell fits there as it is; otherwise it
// writes nothing, and the caller stores the pair with Insert, which makes any
// split. It is the write of an ordered load: one leaf, no descent while the
// keys keep landing where the last one did. h must not be nil.
func (t *Tree) Append(h *Hint, key, val, parent []byte) (bool, error) {
	if len(key) == 0 || len(key) > MaxKeyLen || len(val) > MaxValueLen {
		return false, nil
	}
	t.mu.lock()
	defer t.mu.unlock()
	// The cursor's probe and descent take no latch: the write latch is held.
	c := Cursor{v: &t.View, hint: h}
	slot, found := 0, false
	if c.probe() {
		n := nCells(c.p)
		if slot, found = place(c.p, key); !(slot < n && (slot > 0 || found) ||
			slot == n && n > 0 && leafNext(c.p) == pagestore.InvalidPage) {
			c.unpin()
		}
	}
	if c.p == nil {
		if !c.descend(key, 0) {
			return false, c.err
		}
		*h = Hint{t: t, id: c.id}
		slot, found = place(c.p, key)
	}
	defer t.store.Unfix(c.f)
	p := c.p
	if found || !fitsAsIs(p, key, val) {
		return false, nil
	}
	if parent != nil {
		if ps, ok := place(p, parent); !ok || !cellOK(p, ps) {
			return false, nil
		}
	}
	c.f.MarkDirty()
	if !insertCell(p, slot, key, val) {
		panic("btree: a cell that fits as is was not placed")
	}
	t.size++
	return true, nil
}

// place is search with the last cell looked at first, where an ordered
// load's next key sorts past and its parent often is.
func place(p []byte, key []byte) (slot int, found bool) {
	n := nCells(p)
	if pl := prefixLen(p); n > 0 && len(key) >= pl && bytes.Equal(key[:pl], pagePrefix(p)) && cellOK(p, n-1) {
		last, _ := cellAt(p, n-1)
		switch bytes.Compare(key[pl:], last) {
		case 1:
			return n, false
		case 0:
			return n - 1, true
		}
	}
	return search(p, key)
}

// insertRec inserts into the subtree at id, depth levels below the root.
// When the page splits, it returns the separator key and the new right
// sibling's page ID.
func (t *Tree) insertRec(id pagestore.PageID, key, val []byte, depth int) (sep []byte, newID pagestore.PageID, added bool, err error) {
	f, err := t.fix(id, depth)
	if err != nil {
		return nil, pagestore.InvalidPage, false, fmt.Errorf("btree: insert: fix page %d: %w", id, err)
	}
	defer t.store.Unfix(f)
	p := f.Data()

	if pageKind(p) == kindLeaf {
		slot, found := search(p, key)
		if found && !cellOK(p, slot) || !fitsAsIs(p, key, val) && !cellsOK(p) {
			return nil, pagestore.InvalidPage, false, corrupt(id, "a cell runs past the page")
		}
		// Every path below writes the leaf (a cell that does not fit may
		// still have compacted the page), so declare it before the first.
		f.MarkDirty()
		if found {
			if replaceCellValue(p, slot, key, val) {
				return nil, pagestore.InvalidPage, false, nil
			}
			// The larger value did not fit even after compaction;
			// replaceCellValue has already removed the old cell, so split
			// and place the new one.
			sep, newID, err := t.splitLeafAndInsert(f, key, val)
			return sep, newID, false, err
		}
		if insertCell(p, slot, key, val) {
			return nil, pagestore.InvalidPage, true, nil
		}
		if appendSplits && slot == nCells(p) && leafNext(p) == pagestore.InvalidPage {
			// Past the last key of the rightmost leaf: a load in key order.
			// Recompressed, the leaf may take the key after all; if not, the
			// key opens a new rightmost leaf and this one stays full.
			recompress(p)
			if insertCell(p, slot, key, val) {
				return nil, pagestore.InvalidPage, true, nil
			}
			sep, newID, err := t.appendLeaf(f, key, val)
			return sep, newID, true, err
		}
		sep, newID, err := t.splitLeafAndInsert(f, key, val)
		return sep, newID, true, err
	}

	child, ok := childPage(p, childIndexFor(p, key))
	if !ok {
		return nil, pagestore.InvalidPage, false, corrupt(id, "a cell runs past the page")
	}
	childSep, childNew, added, err := t.insertRec(child, key, val, depth+1)
	if err != nil || childNew == pagestore.InvalidPage {
		return nil, pagestore.InvalidPage, added, err
	}
	if !fitsAsIs(p, childSep, encodeChild(childNew)) && !cellsOK(p) {
		return nil, pagestore.InvalidPage, added, corrupt(id, "a cell runs past the page")
	}
	f.MarkDirty()
	slot, _ := search(p, childSep)
	if insertCell(p, slot, childSep, encodeChild(childNew)) {
		return nil, pagestore.InvalidPage, added, nil
	}
	sep, newID, err = t.splitInternalAndInsert(f, childSep, childNew)
	return sep, newID, added, err
}

// splitLeafAndInsert splits the full leaf in frame f (which the caller has
// declared for writing) and inserts (key, val) into the proper half. It
// returns the separator (first key of the right page) and the right page's
// ID.
func (t *Tree) splitLeafAndInsert(f *pagestore.Frame, key, val []byte) ([]byte, pagestore.PageID, error) {
	p := f.Data()
	rf, err := t.newPage(kindLeaf)
	if err != nil {
		return nil, pagestore.InvalidPage, err
	}
	defer t.store.Unfix(rf)
	rp := rf.Data()

	n := nCells(p)
	mid := splitPoint(p)
	// The right page adopts the left prefix so the moved cells keep their
	// size; both halves then recompress to their own best prefix.
	adoptPrefix(rp, p)
	var kbuf []byte
	for i := mid; i < n; i++ {
		kbuf = fullKey(p, i, kbuf[:0])
		_, v := cellAt(p, i)
		if !insertCell(rp, i-mid, kbuf, v) {
			panic("btree: right half does not fit an empty page")
		}
	}
	setNCells(p, mid)
	compact(p)
	recompress(p)
	recompress(rp)

	// Chain links: left <-> right <-> old next.
	oldNext := leafNext(p)
	setLeafNext(p, rf.ID())
	setLeafPrev(rp, f.ID())
	setLeafNext(rp, oldNext)
	if oldNext != pagestore.InvalidPage {
		nf, err := t.fix(oldNext, 0)
		if err != nil {
			return nil, pagestore.InvalidPage, err
		}
		nf.MarkDirty()
		setLeafPrev(nf.Data(), rf.ID())
		t.store.Unfix(nf)
	}

	sep := fullKey(rp, 0, nil)
	tp := p
	if bytes.Compare(key, sep) >= 0 {
		tp = rp
	}
	slot, _ := search(tp, key)
	if !insertCell(tp, slot, key, val) {
		return nil, pagestore.InvalidPage, fmt.Errorf("btree: cell of %d+%d bytes does not fit a half-empty page", len(key), len(val))
	}
	// The separator may have changed if key landed at slot 0 of the right
	// page. Truncate it to the shortest byte string that still separates the
	// halves — separator truncation complements the page prefix compression
	// in keeping internal pages dense.
	leftLast := fullKey(p, nCells(p)-1, nil)
	newSep := fullKey(rp, 0, nil)
	return shortestSeparator(leftLast, newSep), rf.ID(), nil
}

// appendSplits turns on appendLeaf; a variable only so a test can compare
// with the 50/50 split the same inserts would otherwise make.
var appendSplits = true

// appendLeaf starts a new rightmost leaf holding only (key, val), right of
// the full rightmost leaf in frame f (declared for writing by the caller),
// whose keys all sort below key: the split of an ordered load, which leaves
// the old leaf full instead of moving half its cells. The new leaf adopts the
// old one's prefix, so the keys that follow are compressed from the first.
func (t *Tree) appendLeaf(f *pagestore.Frame, key, val []byte) ([]byte, pagestore.PageID, error) {
	p := f.Data()
	rf, err := t.newPage(kindLeaf)
	if err != nil {
		return nil, pagestore.InvalidPage, err
	}
	defer t.store.Unfix(rf)
	rp := rf.Data()
	adoptPrefix(rp, p)
	if !insertCell(rp, 0, key, val) {
		panic("btree: a cell does not fit an empty leaf")
	}
	setLeafNext(p, rf.ID())
	setLeafPrev(rp, f.ID())
	return shortestSeparator(fullKey(p, nCells(p)-1, nil), key), rf.ID(), nil
}

// shortestSeparator returns the shortest byte string s with left < s <=
// right, given left < right: the shared prefix plus right's first
// distinguishing byte. Routing stays correct for any such s because an
// internal cell's child covers keys >= its separator.
func shortestSeparator(left, right []byte) []byte {
	cpl := 0
	for cpl < len(left) && cpl < len(right) && left[cpl] == right[cpl] {
		cpl++
	}
	if cpl >= len(right) {
		// left is a strict prefix... impossible for left < right; be safe.
		return append([]byte(nil), right...)
	}
	return append([]byte(nil), right[:cpl+1]...)
}

// splitInternalAndInsert splits a full internal page (which the caller has
// declared for writing) and inserts the (sep, child) pair. The middle
// separator moves up to the caller.
func (t *Tree) splitInternalAndInsert(f *pagestore.Frame, sep []byte, child pagestore.PageID) ([]byte, pagestore.PageID, error) {
	p := f.Data()
	rf, err := t.newPage(kindInternal)
	if err != nil {
		return nil, pagestore.InvalidPage, err
	}
	defer t.store.Unfix(rf)
	rp := rf.Data()

	n := nCells(p)
	mid := n / 2
	up := fullKey(p, mid, nil)
	setChild0(rp, childAt(p, mid))
	adoptPrefix(rp, p)
	var kbuf []byte
	for i := mid + 1; i < n; i++ {
		kbuf = fullKey(p, i, kbuf[:0])
		_, v := cellAt(p, i)
		if !insertCell(rp, i-mid-1, kbuf, v) {
			panic("btree: right half does not fit an empty internal page")
		}
	}
	setNCells(p, mid)
	compact(p)
	recompress(p)
	recompress(rp)

	// Insert the pending separator into the correct half.
	tp := p
	if bytes.Compare(sep, up) >= 0 {
		tp = rp
	}
	slot, _ := search(tp, sep)
	if !insertCell(tp, slot, sep, encodeChild(child)) {
		return nil, pagestore.InvalidPage, fmt.Errorf("btree: separator does not fit a half-empty page")
	}
	return up, rf.ID(), nil
}

// splitPoint picks the slot index splitting the page's cell bytes roughly in
// half, keeping at least one cell on each side.
func splitPoint(p []byte) int {
	n := nCells(p)
	if n < 2 {
		panic("btree: splitting a page with fewer than 2 cells")
	}
	total := liveBytes(p)
	acc := 0
	for i := 0; i < n-1; i++ {
		k, v := cellAt(p, i)
		acc += cellHeaderLen + len(k) + len(v)
		if acc >= total/2 {
			return i + 1
		}
	}
	return n - 1
}

// Delete removes key, returning ErrNotFound if absent.
func (t *Tree) Delete(key []byte) error {
	t.mu.lock()
	defer t.mu.unlock()
	removed, _, err := t.deleteRec(t.root, key, 0)
	if err != nil {
		return err
	}
	if !removed {
		return ErrNotFound
	}
	t.size--
	t.collapseRoot()
	return nil
}

// collapseRoot replaces an internal root that has a single child.
func (t *Tree) collapseRoot() {
	for range maxHeight {
		f, err := t.fix(t.root, 0)
		if err != nil {
			return
		}
		p := f.Data()
		if pageKind(p) != kindInternal || nCells(p) != 0 {
			t.store.Unfix(f)
			return
		}
		old := t.root
		t.root = child0(p)
		t.store.Unfix(f)
		t.free = append(t.free, old)
	}
}

// deleteRec removes key from the subtree at id, depth levels below the
// root. emptied reports that the page at id holds no data anymore and was
// detached from leaf chains; the caller must drop its pointer and reclaim
// the page.
func (t *Tree) deleteRec(id pagestore.PageID, key []byte, depth int) (removed, emptied bool, err error) {
	f, err := t.fix(id, depth)
	if err != nil {
		return false, false, fmt.Errorf("btree: delete: fix page %d: %w", id, err)
	}
	defer t.store.Unfix(f)
	p := f.Data()

	if pageKind(p) == kindLeaf {
		slot, found := search(p, key)
		if !found {
			return false, false, nil
		}
		f.MarkDirty()
		removeCell(p, slot)
		if nCells(p) > 0 || id == t.root {
			return true, false, nil
		}
		if err := t.unlinkLeaf(p); err != nil {
			return true, false, err
		}
		return true, true, nil
	}

	idx := childIndexFor(p, key)
	childID, ok := childPage(p, idx)
	if !ok || idx < 0 && nCells(p) > 0 && !cellOK(p, 0) { // cell 0's child may replace child0
		return false, false, corrupt(id, "a cell runs past the page")
	}
	removed, childEmptied, err := t.deleteRec(childID, key, depth+1)
	if err != nil || !childEmptied {
		return removed, false, err
	}
	t.free = append(t.free, childID)
	if idx < 0 && nCells(p) == 0 {
		// The only child vanished: the page is emptied as it stands.
		return removed, id != t.root, nil
	}
	f.MarkDirty()
	if idx < 0 {
		// child0 vanished: promote the first cell's child.
		setChild0(p, childAt(p, 0))
		removeCell(p, 0)
	} else {
		removeCell(p, idx)
	}
	return removed, false, nil
}

// unlinkLeaf splices an emptied leaf out of the doubly linked leaf chain.
func (t *Tree) unlinkLeaf(p []byte) error {
	prev, next := leafPrev(p), leafNext(p)
	if prev != pagestore.InvalidPage {
		pf, err := t.fix(prev, 0)
		if err != nil {
			return err
		}
		pf.MarkDirty()
		setLeafNext(pf.Data(), next)
		t.store.Unfix(pf)
	}
	if next != pagestore.InvalidPage {
		nf, err := t.fix(next, 0)
		if err != nil {
			return err
		}
		nf.MarkDirty()
		setLeafPrev(nf.Data(), prev)
		t.store.Unfix(nf)
	}
	return nil
}

// DeleteRange removes all keys in [start, limit) and returns how many were
// deleted. It is the bulk operation behind subtree deletion.
func (t *Tree) DeleteRange(start, limit []byte) (int, error) {
	// Collect first (cheap: keys only), then delete; avoids mutating pages
	// under the iterator.
	var keys [][]byte
	err := t.Ascend(start, limit, func(k, _ []byte) bool {
		keys = append(keys, append([]byte(nil), k...))
		return true
	})
	if err != nil {
		return 0, err
	}
	for _, k := range keys {
		if err := t.Delete(k); err != nil {
			return 0, fmt.Errorf("btree: DeleteRange at %x: %w", k, err)
		}
	}
	return len(keys), nil
}
