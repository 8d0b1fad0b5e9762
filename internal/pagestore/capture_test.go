package pagestore

import (
	"bytes"
	"math/rand"
	"testing"
)

// diffRangeBytewise is the byte-at-a-time loop diffRange replaced, kept as
// the oracle for the word-wise version.
func diffRangeBytewise(pre, cur []byte) (lo, hi int) {
	lo = -1
	for i := PageHeaderSize; i < PageSize; i++ {
		if pre[i] != cur[i] {
			lo = i
			break
		}
	}
	if lo < 0 {
		return -1, -1
	}
	hi = PageSize
	for hi > lo && pre[hi-1] == cur[hi-1] {
		hi--
	}
	return lo, hi
}

func checkDiffRange(t *testing.T, pre, cur []byte) {
	t.Helper()
	wantLo, wantHi := diffRangeBytewise(pre, cur)
	if lo, hi := diffRange(pre, cur); lo != wantLo || hi != wantHi {
		t.Fatalf("diffRange = [%d, %d), byte-wise oracle says [%d, %d)", lo, hi, wantLo, wantHi)
	}
}

// TestDiffRangeMatchesBytewise checks the word-wise diff against the
// byte-wise oracle: identical pages, differences confined to the header,
// a single differing byte at every offset near both ends of the body (every
// alignment of the first and of the last word), and random page pairs.
func TestDiffRangeMatchesBytewise(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pre := make([]byte, PageSize)
	rng.Read(pre)
	cur := append([]byte(nil), pre...)

	if lo, hi := diffRange(pre, cur); lo != -1 || hi != -1 {
		t.Fatalf("identical pages: diffRange = [%d, %d), want (-1, -1)", lo, hi)
	}
	for i := 0; i < PageHeaderSize; i++ {
		cur[i] ^= 0xFF
	}
	if lo, hi := diffRange(pre, cur); lo != -1 || hi != -1 {
		t.Fatalf("header-only difference: diffRange = [%d, %d), want (-1, -1)", lo, hi)
	}

	var offs []int
	for off := PageHeaderSize; off <= PageHeaderSize+17; off++ {
		offs = append(offs, off)
	}
	for off := PageSize - 17; off <= PageSize-1; off++ {
		offs = append(offs, off)
	}
	for _, off := range offs {
		cur[off] ^= 0x01
		if lo, hi := diffRange(pre, cur); lo != off || hi != off+1 {
			t.Fatalf("single byte at %d: diffRange = [%d, %d)", off, lo, hi)
		}
		checkDiffRange(t, pre, cur)
		cur[off] ^= 0x01
	}
	// Pairs of single-byte differences: the backward scan must stop at the
	// forward scan's byte, wherever the two fall within their words.
	for _, a := range offs {
		for _, b := range offs {
			cur[a] ^= 0x80
			cur[b] ^= 0x01
			checkDiffRange(t, pre, cur)
			copy(cur[PageHeaderSize:], pre[PageHeaderSize:])
		}
	}

	for i := 0; i < 2000; i++ {
		copy(cur, pre)
		switch rng.Intn(3) {
		case 0: // a handful of scattered bytes
			for n := rng.Intn(4) + 1; n > 0; n-- {
				cur[rng.Intn(PageSize)] ^= byte(rng.Intn(255) + 1)
			}
		case 1: // one rewritten run, parts of which store what was there
			a := rng.Intn(PageSize)
			b := a + rng.Intn(PageSize-a)
			for j := a; j < b; j++ {
				if rng.Intn(4) > 0 {
					cur[j] = byte(rng.Int())
				}
			}
		default: // unrelated pages
			rng.Read(cur)
		}
		checkDiffRange(t, pre, cur)
	}
}

// FuzzDiffRange drives the same comparison from fuzzer-chosen edits: each
// (offset, value) pair of the input overwrites one byte of a copy of a fixed
// page.
func FuzzDiffRange(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 16, 1})
	f.Add([]byte{0, 16, 1, 31, 255, 7})
	f.Add([]byte{0, 23, 9, 0, 24, 9, 31, 248, 3})
	pre := make([]byte, PageSize)
	rand.New(rand.NewSource(2)).Read(pre)
	f.Fuzz(func(t *testing.T, edits []byte) {
		cur := append([]byte(nil), pre...)
		for ; len(edits) >= 3; edits = edits[3:] {
			off := (int(edits[0])<<8 | int(edits[1])) % PageSize
			cur[off] = edits[2]
		}
		checkDiffRange(t, pre, cur)
	})
}

// TestCapturePinsOnlyDeclaredPages is the regression test for the pin
// defect: every page anyone fixed while a capture was open used to stay
// pinned until it closed, so a reader walking more pages than the pool has
// frames drove the pool into ErrNoFrames. Only pages declared for writing
// may be held.
func TestCapturePinsOnlyDeclaredPages(t *testing.T) {
	const frames = 64
	s := Open(NewMemBackend(), frames)
	defer s.Close()
	ids := make([]PageID, 4*frames+2)
	for i := range ids {
		f, err := s.FixNew()
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = f.ID()
		s.Unfix(f)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	c := s.BeginCapture(0)
	written, err := s.Fix(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	written.MarkDirty()
	written.Data()[PageHeaderSize] = 0xAB
	s.Unfix(written)
	read, err := s.Fix(ids[1]) // the operation's own read-only touch
	if err != nil {
		t.Fatal(err)
	}
	s.Unfix(read)

	errc := make(chan error, 1)
	go func() {
		for _, id := range ids[2:] {
			f, err := s.Fix(id)
			if err != nil {
				errc <- err
				return
			}
			s.Unfix(f)
		}
		errc <- nil
	}()
	if err := <-errc; err != nil {
		t.Fatalf("reader during an open capture: %v", err)
	}
	if n := s.PinnedFrames(); n != 1 {
		t.Errorf("open capture holds %d frames, want only the declared page", n)
	}

	deltas := c.Deltas()
	if len(deltas) != 1 || deltas[0].Page != ids[0] || !deltas[0].FullImage() {
		t.Fatalf("Deltas = %d deltas (first %+v), want one full image of page %d", len(deltas), deltas, ids[0])
	}
	c.Commit(7)
	c.Close()
	for _, f := range s.frames {
		if n := f.pins(); n != 0 {
			t.Errorf("page %d still has %d pins after Close", f.id, n)
		}
	}
	f, err := s.Fix(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	defer s.Unfix(f)
	if PageLSN(f.Data()) != 7 || f.Data()[PageHeaderSize] != 0xAB {
		t.Errorf("declared page lost its change or stamp: lsn=%d byte=%#x", PageLSN(f.Data()), f.Data()[PageHeaderSize])
	}
}

// TestCaptureDeltas pins what a capture logs: nothing for a page that was
// declared and left as it was, a full image for a FixNew page and for the
// first change of a dirty epoch, the minimal range afterwards, and — the
// hazard of the declare-first contract, see storage's redo oracle — nothing
// for a byte changed before the declaration.
func TestCaptureDeltas(t *testing.T) {
	s := Open(NewMemBackend(), 8)
	defer s.Close()
	f, err := s.FixNew()
	if err != nil {
		t.Fatal(err)
	}
	id := f.ID()
	s.Unfix(f)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	write := func(lsn uint64, fn func(c *Capture)) []PageDelta {
		c := s.BeginCapture(0)
		defer c.Close()
		fn(c)
		deltas := c.Deltas()
		out := make([]PageDelta, len(deltas))
		for i, d := range deltas {
			out[i] = PageDelta{Page: d.Page, Off: d.Off, Data: append([]byte(nil), d.Data...)}
		}
		c.Commit(lsn)
		return out
	}
	poke := func(off int, b byte, declareFirst bool) func(*Capture) {
		return func(*Capture) {
			f, err := s.Fix(id)
			if err != nil {
				t.Fatal(err)
			}
			if declareFirst {
				f.MarkDirty()
			}
			f.Data()[off] = b
			f.MarkDirty()
			s.Unfix(f)
		}
	}

	if d := write(1, poke(100, 0, true)); len(d) != 0 {
		t.Errorf("declared but unchanged page logged %d deltas", len(d))
	}
	if d := write(2, poke(100, 1, true)); len(d) != 1 || !d[0].FullImage() {
		t.Errorf("first change of the epoch: %+v, want one full image", d)
	}
	if d := write(3, poke(200, 2, true)); len(d) != 1 || d[0].Off != 200 || !bytes.Equal(d[0].Data, []byte{2}) {
		t.Errorf("second change of the epoch: %+v, want the one byte at 200", d)
	}
	if d := write(4, poke(300, 3, false)); len(d) != 0 {
		t.Errorf("byte changed before the declaration was logged: %+v", d)
	}
	var fresh PageID
	d := write(5, func(*Capture) {
		f, err := s.FixNew()
		if err != nil {
			t.Fatal(err)
		}
		fresh = f.ID()
		f.Data()[PageSize-1] = 9
		s.Unfix(f)
	})
	if len(d) != 1 || d[0].Page != fresh || !d[0].FullImage() || d[0].Data[len(d[0].Data)-1] != 9 {
		t.Errorf("FixNew page: %d deltas, want one full image of page %d", len(d), fresh)
	}
	if n := s.PinnedFrames(); n != 0 {
		t.Errorf("%d frames pinned after the captures closed", n)
	}
}
