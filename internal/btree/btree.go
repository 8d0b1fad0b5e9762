// Package btree implements the B*-tree of XTC's storage layer (Section 3.2,
// Figure 6): an on-page B+tree with variable-length byte keys in strict
// byte order and doubly linked leaf pages for scans in both directions.
//
// Keys are encoded SPLIDs (whose byte order equals document order) or
// element-index keys; the tree itself is agnostic and orders by
// bytes.Compare. Following the paper's implementation restriction, keys are
// limited to MaxKeyLen = 128 bytes — the document layer reacts to longer
// labels with subtree relabeling, exactly as XTC does.
//
// Concurrency: one tree-level read-write latch (see latch.go) admits
// parallel readers and serializes writers. Transaction-level concurrency
// control happens above this layer (that is the paper's subject); the tree
// only needs to be internally consistent.
//
// Splits: a full page splits 50/50 by cell bytes, except an insert that
// lands past the last key of the rightmost leaf. That leaf is recompressed
// and, if the key still does not fit, the key opens a new rightmost leaf of
// its own (adopting the old leaf's prefix) and the old leaf stays full — the
// rightmost-page split of SQLite's quickbalance and PostgreSQL. The document
// is generated, imported and relabeled in key order, so its leaves fill.
//
// Ordered loads: Append writes a key into the leaf a Hint remembers, without
// a descent, when that leaf covers the key — its own keys bracket it, or it
// sorts past the last key and the leaf has no right sibling — the key is
// new, its parent key (if it names one) is on the leaf and the cell fits as
// it is. A leaf that does not cover the key costs a descent, which the hint
// then remembers; in the other cases Append declines and leaves the key and
// any split to Insert. The document Builder is its one caller.
//
// Leaf memory: a cursor opened with a Hint (HintedCursor) starts at the leaf
// the hint's previous cursor closed on. It pins that leaf only if it is
// resident (pagestore.Store.FixResident: a guess never costs a miss) and uses
// it only if it is a leaf whose own keys bracket the target; otherwise it
// descends. A stale hint cannot mislead: no writer runs under the read
// latch, nor beside Append under the write latch, the only leaf that can
// hold t is one with keys a < t <= b or t itself, and a page the tree frees
// goes only to its own free list while the store never reuses a page ID —
// so the remembered page is a live leaf of the tree, an emptied one, or an
// internal page. Snapshot views never hint.
//
// Deletion is lazy: pages may become underfull, and a page is reclaimed
// (onto an in-memory free list) only when it empties completely. This suits
// the benchmark workloads, where subtree deletions remove contiguous key
// ranges that empty whole leaves.
package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"repro/internal/pagestore"
)

// MaxKeyLen is the largest admissible key, mirroring the paper's "key
// length < 128B in B-trees" restriction.
const MaxKeyLen = 128

// MaxValueLen bounds inline values so that a handful of cells always fit on
// a page. Larger payloads must be chunked by the caller.
const MaxValueLen = 2048

// Page layout. The first pagestore.PageHeaderSize bytes of every page
// belong to the buffer manager's recovery header (pageLSN + checksum); the
// btree header starts right after it, at pageBase. All offsets below are
// absolute page offsets.
//
//	off pageBase+0: pageKind (1 = leaf, 2 = internal)
//	off pageBase+1: unused
//	off pageBase+2: nCells  uint16
//	off pageBase+4: prev    uint32 (leaf)  | child0 uint32 (internal)
//	off pageBase+8: next    uint32 (leaf)  | unused
//	off pageBase+12: cellStart uint16 — lowest byte offset used by cell bodies
//	off pageBase+14: prefixLen uint16 — length of the page-wide key prefix
//	off pageBase+16: prefix bytes (prefixLen), shared by every key on the page
//	then:  slot array, nCells × uint16 cell-body offsets, sorted by key
//	...
//	cells grow downward from the page end:
//	  [keyLen u16][valLen u16][key suffix][value]
//
// Prefix compression (Section 3.2 of the paper): every key on a page
// shares the page prefix; cells store only the suffix. Splits recompute
// each half's prefix from its keys, so densely clustered SPLIDs shrink to
// a few bytes per entry. Inserting a key that does not share the prefix
// first shortens the prefix (rewriting the page).
//
// Internal cells use the child page ID (4 bytes) as the value; child0 in
// the header is the subtree left of the first separator key: child0 covers
// keys < key[0], cell i's child covers keys in [key[i], key[i+1]).
const (
	kindLeaf     = 1
	kindInternal = 2

	pageBase = pagestore.PageHeaderSize

	offKind      = pageBase + 0
	offNCells    = pageBase + 2
	offPrev      = pageBase + 4
	offChild0    = pageBase + 4
	offNext      = pageBase + 8
	offCellStart = pageBase + 12
	offPrefixLen = pageBase + 14
	headerLen    = pageBase + 16

	cellHeaderLen = 4

	// maxPrefixLen caps the page prefix; keys are at most MaxKeyLen anyway.
	maxPrefixLen = MaxKeyLen

	// maxHeight bounds a descent: a level comes only from a root split,
	// which at least doubles the pages below the root, so a tree within
	// 2^32 page IDs has fewer than 34; a longer path is a pointer cycle.
	maxHeight = 64
)

// ErrKeyTooLong is returned for keys above MaxKeyLen; the document layer
// treats it as the trigger for subtree relabeling.
var ErrKeyTooLong = errors.New("btree: key exceeds MaxKeyLen")

// ErrValueTooLong is returned for values above MaxValueLen.
var ErrValueTooLong = errors.New("btree: value exceeds MaxValueLen")

// ErrNotFound is returned by Get and Delete for absent keys.
var ErrNotFound = errors.New("btree: key not found")

// CorruptPageError reports a tree page whose bytes contradict the page
// layout, which its checksum cannot catch when the damage was stamped with
// it: a kind, prefix, slot count or cell that does not fit the page, or a
// descent or leaf chain that does not end. Like pagestore.ChecksumError it
// is permanent.
type CorruptPageError struct {
	Page   pagestore.PageID
	Reason string
}

// Error implements error.
func (e *CorruptPageError) Error() string {
	return fmt.Sprintf("btree: page %d is corrupt: %s", e.Page, e.Reason)
}

// Transient implements the fault-classification probe: never retryable.
func (e *CorruptPageError) Transient() bool { return false }

func corrupt(id pagestore.PageID, reason string) error {
	return &CorruptPageError{Page: id, Reason: reason}
}

// Tree is a B+tree over a page store. Create with Create or attach to an
// existing root with Open. Its read methods are those of the embedded live
// View (cursor.go).
type Tree struct {
	View
	mu    treeLatch
	store *pagestore.Store
	root  pagestore.PageID
	free  []pagestore.PageID // reclaimed pages available for reuse
	size  int                // number of keys; maintained, not persisted
}

// Create allocates an empty tree (a single empty leaf root).
func Create(store *pagestore.Store) (*Tree, error) {
	t := &Tree{store: store}
	t.View.t = t
	f, err := t.newPage(kindLeaf)
	if err != nil {
		return nil, err
	}
	t.root = f.ID()
	t.store.Unfix(f)
	return t, nil
}

// Open attaches to an existing tree rooted at root. The key count is
// recomputed by a leaf walk.
func Open(store *pagestore.Store, root pagestore.PageID) (*Tree, error) {
	t := &Tree{store: store, root: root}
	t.View.t = t
	n := 0
	err := t.Ascend(nil, nil, func(k, v []byte) bool { n++; return true })
	if err != nil {
		return nil, err
	}
	t.size = n
	return t, nil
}

// Root returns the current root page ID; callers persist it in their own
// metadata to reopen the tree later.
func (t *Tree) Root() pagestore.PageID {
	t.mu.rlock()
	defer t.mu.runlock()
	return t.root
}

// Len returns the number of keys in the tree.
func (t *Tree) Len() int {
	t.mu.rlock()
	defer t.mu.runlock()
	return t.size
}

// --- page accessors -------------------------------------------------------

func pageKind(p []byte) byte       { return p[offKind] }
func nCells(p []byte) int          { return int(binary.BigEndian.Uint16(p[offNCells:])) }
func setNCells(p []byte, n int)    { binary.BigEndian.PutUint16(p[offNCells:], uint16(n)) }
func cellStart(p []byte) int       { return int(binary.BigEndian.Uint16(p[offCellStart:])) }
func setCellStart(p []byte, o int) { binary.BigEndian.PutUint16(p[offCellStart:], uint16(o)) }

func leafPrev(p []byte) pagestore.PageID {
	return pagestore.PageID(binary.BigEndian.Uint32(p[offPrev:]))
}
func leafNext(p []byte) pagestore.PageID {
	return pagestore.PageID(binary.BigEndian.Uint32(p[offNext:]))
}
func setLeafPrev(p []byte, id pagestore.PageID) { binary.BigEndian.PutUint32(p[offPrev:], uint32(id)) }
func setLeafNext(p []byte, id pagestore.PageID) { binary.BigEndian.PutUint32(p[offNext:], uint32(id)) }

func child0(p []byte) pagestore.PageID {
	return pagestore.PageID(binary.BigEndian.Uint32(p[offChild0:]))
}
func setChild0(p []byte, id pagestore.PageID) { binary.BigEndian.PutUint32(p[offChild0:], uint32(id)) }

func prefixLen(p []byte) int { return int(binary.BigEndian.Uint16(p[offPrefixLen:])) }
func setPrefixLen(p []byte, n int) {
	binary.BigEndian.PutUint16(p[offPrefixLen:], uint16(n))
}

// pagePrefix returns the page-wide key prefix (aliases page memory).
func pagePrefix(p []byte) []byte { return p[headerLen : headerLen+prefixLen(p)] }

// slotBase is the byte offset of the slot array (after the prefix).
func slotBase(p []byte) int { return headerLen + prefixLen(p) }

func slotOff(p []byte, i int) int {
	return int(binary.BigEndian.Uint16(p[slotBase(p)+2*i:]))
}
func setSlotOff(p []byte, i, off int) {
	binary.BigEndian.PutUint16(p[slotBase(p)+2*i:], uint16(off))
}

// checkHeader checks what every access to page p relies on: its kind, and a
// prefix, slot array and cell start inside the page. Every fix runs it; a
// cell is checked where it is first reached (cellOK), never by a walk over
// the page on the descent.
func checkHeader(id pagestore.PageID, p []byte) error {
	if k, cs := pageKind(p), cellStart(p); (k == kindLeaf || k == kindInternal) &&
		prefixLen(p) <= maxPrefixLen && slotBase(p)+2*nCells(p) <= cs && cs <= len(p) {
		return nil
	}
	return badHeader(id, p)
}

func badHeader(id pagestore.PageID, p []byte) error {
	return corrupt(id, fmt.Sprintf("header of kind %d, prefix %d, %d slots, cell start %d",
		pageKind(p), prefixLen(p), nCells(p), cellStart(p)))
}

// cellOK reports whether slot i's cell lies between the cell start and the
// page end, with a key of at most MaxKeyLen and, on an internal page, a
// 4-byte child pointer. p must have passed checkHeader.
func cellOK(p []byte, i int) bool {
	off, k, v, ok := cellSpan(p, i)
	return ok && off-cellHeaderLen >= cellStart(p) && prefixLen(p)+k-off <= MaxKeyLen &&
		(pageKind(p) == kindLeaf || v-k == 4)
}

// cellsOK checks every cell of p, as a write does before a step that reads
// them all (a prefix rewrite, a compaction, a split).
func cellsOK(p []byte) bool {
	for i := 0; i < nCells(p); i++ {
		if !cellOK(p, i) {
			return false
		}
	}
	return true
}

// cellSpan returns where slot i's cell keeps its key suffix, p[off:k], and
// its value, p[k:v]; ok is false when the cell does not end inside the page.
// p must have passed checkHeader.
func cellSpan(p []byte, i int) (off, k, v int, ok bool) {
	off = slotOff(p, i) + cellHeaderLen
	if off > len(p) {
		return 0, 0, 0, false
	}
	k = off + int(binary.BigEndian.Uint16(p[off-cellHeaderLen:]))
	v = k + int(binary.BigEndian.Uint16(p[off-2:]))
	return off, k, v, v <= len(p)
}

// cellAt returns the key *suffix* and value of slot i without copying; the
// full key is pagePrefix(p) + suffix. On a page from the store the cell must
// have been checked (cellSpan, cellOK).
func cellAt(p []byte, i int) (suffix, val []byte) {
	off, k, v, _ := cellSpan(p, i)
	return p[off:k], p[k:v]
}

// fullKey appends the full key of slot i (prefix + suffix) to buf.
func fullKey(p []byte, i int, buf []byte) []byte {
	buf = append(buf, pagePrefix(p)...)
	k, _ := cellAt(p, i)
	return append(buf, k...)
}

func childAt(p []byte, i int) pagestore.PageID {
	_, v := cellAt(p, i)
	return pagestore.PageID(binary.BigEndian.Uint32(v))
}

// search finds the first slot whose full key is >= key; found reports an
// exact match at that slot. The page prefix is compared once, then the
// binary search runs on suffixes only: it reads the slot array's base once,
// slices no value, and settles most probes on their first byte. A probe
// clamps a key that runs past the page, so a corrupt page yields some slot,
// which cellOK then refuses.
func search(p []byte, key []byte) (slot int, found bool) {
	pl := prefixLen(p)
	if pl > 0 {
		head := key
		if len(head) > pl {
			head = head[:pl]
		}
		switch bytes.Compare(head, pagePrefix(p)) {
		case -1:
			return 0, false // key below every page key
		case 1:
			return nCells(p), false // key above every page key
		default:
			if len(key) < pl {
				// key is a strict prefix of the page prefix: below all.
				return 0, false
			}
		}
		key = key[pl:]
	}
	base := headerLen + pl
	lo, hi := 0, nCells(p)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		off := min(int(binary.BigEndian.Uint16(p[base+2*mid:]))+cellHeaderLen, len(p))
		k := p[off:min(off+int(binary.BigEndian.Uint16(p[off-cellHeaderLen:])), len(p))]
		var c int
		if len(k) > 0 && len(key) > 0 && k[0] != key[0] {
			c = int(k[0]) - int(key[0])
		} else {
			c = bytes.Compare(k, key)
		}
		switch {
		case c < 0:
			lo = mid + 1
		case c == 0:
			return mid, true
		default:
			hi = mid
		}
	}
	return lo, false
}

// childIndexFor returns which child pointer covers key in an internal page:
// -1 means child0, i >= 0 means cell i's child.
func childIndexFor(p []byte, key []byte) int {
	slot, found := search(p, key)
	if found {
		return slot
	}
	return slot - 1
}

// childPage returns the child pointer idx of an internal page (-1: child0);
// ok is false when its cell does not end inside the page with a 4-byte
// value.
func childPage(p []byte, idx int) (id pagestore.PageID, ok bool) {
	if idx < 0 {
		return child0(p), true
	}
	if _, k, v, ok := cellSpan(p, idx); ok && v-k == 4 {
		return pagestore.PageID(binary.BigEndian.Uint32(p[k:])), true
	}
	return pagestore.InvalidPage, false
}

// freeSpace returns the bytes available for one more cell (body + slot).
func freeSpace(p []byte) int {
	return cellStart(p) - (slotBase(p) + 2*nCells(p)) - 2
}

// liveBytes returns the bytes cell bodies would need after compaction.
func liveBytes(p []byte) int {
	total := 0
	for i := 0; i < nCells(p); i++ {
		k, v := cellAt(p, i)
		total += cellHeaderLen + len(k) + len(v)
	}
	return total
}

func initPage(p []byte, kind byte) {
	// Zero only the btree header: the pagestore recovery header before
	// pageBase (pageLSN, checksum) survives page reuse from the free list.
	for i := pageBase; i < headerLen; i++ {
		p[i] = 0
	}
	p[offKind] = kind
	setCellStart(p, pagestore.PageSize)
	setPrefixLen(p, 0)
	setLeafPrev(p, pagestore.InvalidPage)
	if kind == kindLeaf {
		setLeafNext(p, pagestore.InvalidPage)
	}
}

// fix pins page id, depth levels below the root, and checks its header.
func (t *Tree) fix(id pagestore.PageID, depth int) (f *pagestore.Frame, err error) {
	if depth >= maxHeight {
		return nil, corrupt(id, "deeper than any tree grows")
	}
	if f, err = t.store.Fix(id); err == nil {
		if err = checkHeader(id, f.Data()); err != nil {
			t.store.Unfix(f)
		}
	}
	return f, err
}

// newPage returns a pinned, initialized page of the given kind, already
// declared for writing, so callers fill it without a further MarkDirty.
func (t *Tree) newPage(kind byte) (*pagestore.Frame, error) {
	if n := len(t.free); n > 0 {
		id := t.free[n-1]
		t.free = t.free[:n-1]
		f, err := t.store.Fix(id)
		if err != nil {
			return nil, fmt.Errorf("btree: reuse free page %d: %w", id, err)
		}
		f.MarkDirty()
		initPage(f.Data(), kind)
		return f, nil
	}
	f, err := t.store.FixNew()
	if err != nil {
		return nil, fmt.Errorf("btree: grow: %w", err)
	}
	f.MarkDirty()
	initPage(f.Data(), kind)
	return f, nil
}

// insertCell places a cell for the FULL key at slot i, compacting or
// shortening the page prefix as needed; it reports false when the page
// cannot hold the cell.
func insertCell(p []byte, i int, key, val []byte) bool {
	pl := prefixLen(p)
	if pl > 0 && !bytes.HasPrefix(key, pagePrefix(p)) {
		// The new key breaks the shared prefix: shrink it to the common
		// part (rewriting every suffix) before inserting.
		common := 0
		pre := pagePrefix(p)
		for common < pl && common < len(key) && key[common] == pre[common] {
			common++
		}
		if !rewritePrefix(p, common) {
			return false
		}
		pl = common
	}
	suffix := key[pl:]
	need := cellHeaderLen + len(suffix) + len(val)
	if freeSpace(p) < need {
		if slotBase(p)+2*(nCells(p)+1)+liveBytes(p)+need > pagestore.PageSize {
			return false
		}
		compact(p)
		if freeSpace(p) < need {
			return false
		}
	}
	off := cellStart(p) - need
	binary.BigEndian.PutUint16(p[off:], uint16(len(suffix)))
	binary.BigEndian.PutUint16(p[off+2:], uint16(len(val)))
	copy(p[off+cellHeaderLen:], suffix)
	copy(p[off+cellHeaderLen+len(suffix):], val)
	setCellStart(p, off)
	n := nCells(p)
	base := slotBase(p)
	// Shift slots right of i.
	copy(p[base+2*(i+1):base+2*(n+1)], p[base+2*i:base+2*n])
	setSlotOff(p, i, off)
	setNCells(p, n+1)
	return true
}

// removeCell drops slot i, leaving the body as garbage for later compaction.
func removeCell(p []byte, i int) {
	n := nCells(p)
	base := slotBase(p)
	copy(p[base+2*i:base+2*(n-1)], p[base+2*(i+1):base+2*n])
	setNCells(p, n-1)
}

// replaceCellValue rewrites the value of slot i in place when sizes match,
// otherwise removes and reinserts. key is the full key.
func replaceCellValue(p []byte, i int, key, val []byte) bool {
	off := slotOff(p, i)
	vlen := int(binary.BigEndian.Uint16(p[off+2:]))
	klen := int(binary.BigEndian.Uint16(p[off:]))
	if vlen == len(val) {
		copy(p[off+cellHeaderLen+klen:], val)
		return true
	}
	removeCell(p, i)
	return insertCell(p, i, key, val)
}

// compact rewrites all live cells tightly against the page end, keeping the
// prefix unchanged: a prefix rewrite to the same length.
func compact(p []byte) { rewritePrefix(p, prefixLen(p)) }

// pageCopies lends rewritePrefix the page-sized buffer it rebuilds a page
// from. A page-sized array on the stack would be zeroed on every call and
// would grow the stack of each goroutine that rewrites a page, every
// transaction goroutine included.
var pageCopies = sync.Pool{New: func() any { return new([pagestore.PageSize]byte) }}

// rewritePrefix rebuilds the page with a different (shorter or longer)
// prefix length over the same full keys, read from a pooled copy of the page
// with each full key assembled in a stack buffer. It reports false when the
// rewrite would not fit (only possible when shortening a prefix on a full
// page).
func rewritePrefix(p []byte, newLen int) bool {
	n, pl := nCells(p), prefixLen(p)
	total := 0
	for i := range n {
		k, v := cellAt(p, i)
		total += cellHeaderLen + pl + len(k) - newLen + len(v)
	}
	if headerLen+newLen+2*n+total > pagestore.PageSize {
		return false
	}
	page := pageCopies.Get().(*[pagestore.PageSize]byte)
	defer pageCopies.Put(page)
	var kb [MaxKeyLen]byte
	q := page[:copy(page[:], p)]
	var newPrefix []byte
	if n > 0 {
		newPrefix = fullKey(q, 0, kb[:0])[:newLen]
	} else if newLen <= pl {
		newPrefix = pagePrefix(q)[:newLen]
	}
	setNCells(p, 0)
	setCellStart(p, pagestore.PageSize)
	setPrefixLen(p, len(newPrefix))
	copy(p[headerLen:], newPrefix)
	for i := range n {
		_, v := cellAt(q, i)
		if !insertCell(p, i, fullKey(q, i, kb[:0]), v) {
			panic("btree: prefix rewrite lost cells")
		}
	}
	return true
}

// adoptPrefix copies src's page prefix into the (empty) page dst, so cells
// moved between the pages keep their compression level and are guaranteed
// to fit.
func adoptPrefix(dst, src []byte) {
	if nCells(dst) != 0 {
		panic("btree: adoptPrefix on a non-empty page")
	}
	pl := prefixLen(src)
	setPrefixLen(dst, pl)
	copy(dst[headerLen:], pagePrefix(src))
}

// recompress raises the page prefix to the longest prefix shared by the
// first and last key (and hence by all keys, since they are sorted). Called
// after splits, when key populations change wholesale.
func recompress(p []byte) {
	n := nCells(p)
	if n < 2 {
		return
	}
	var fb, lb [MaxKeyLen]byte
	first := fullKey(p, 0, fb[:0])
	last := fullKey(p, n-1, lb[:0])
	common := 0
	for common < len(first) && common < len(last) && first[common] == last[common] {
		common++
	}
	if common > maxPrefixLen {
		common = maxPrefixLen
	}
	if common == prefixLen(p) {
		return
	}
	rewritePrefix(p, common)
}

// TreeStats describes the tree's physical shape (tooling and the paper's
// storage-density discussion).
type TreeStats struct {
	// Depth is the number of levels (1 = a single leaf).
	Depth int
	// LeafPages and InternalPages count pages per kind.
	LeafPages, InternalPages int
	// Keys is the number of stored keys.
	Keys int
	// KeyBytes and ValueBytes are the live payload volumes in leaves;
	// KeyBytes counts stored key *suffixes* (after prefix compression).
	KeyBytes, ValueBytes int
	// PrefixBytes is the total size of the shared page prefixes.
	PrefixBytes int
	// SeparatorBytes is the total size of internal separator keys; prefix
	// truncation keeps it far below Keys' average key length.
	SeparatorBytes int
	// Separators counts internal cells.
	Separators int
}

// Stats walks the tree and returns its physical statistics.
func (t *Tree) Stats() (TreeStats, error) {
	t.mu.rlock()
	defer t.mu.runlock()
	var st TreeStats
	err := t.statsRec(t.root, 1, &st)
	return st, err
}

func (t *Tree) statsRec(id pagestore.PageID, depth int, st *TreeStats) error {
	f, err := t.fix(id, depth)
	if err != nil {
		return err
	}
	defer t.store.Unfix(f)
	p := f.Data()
	if !cellsOK(p) {
		return corrupt(id, "a cell runs past the page")
	}
	if depth > st.Depth {
		st.Depth = depth
	}
	st.PrefixBytes += prefixLen(p)
	if pageKind(p) == kindLeaf {
		st.LeafPages++
		for i := 0; i < nCells(p); i++ {
			k, v := cellAt(p, i)
			st.Keys++
			st.KeyBytes += len(k)
			st.ValueBytes += len(v)
		}
		return nil
	}
	st.InternalPages++
	if err := t.statsRec(child0(p), depth+1, st); err != nil {
		return err
	}
	for i := 0; i < nCells(p); i++ {
		k, _ := cellAt(p, i)
		st.Separators++
		st.SeparatorBytes += len(k)
		if err := t.statsRec(childAt(p, i), depth+1, st); err != nil {
			return err
		}
	}
	return nil
}
