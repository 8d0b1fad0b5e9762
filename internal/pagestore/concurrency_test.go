package pagestore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestUnfixPanicMessage is the regression test for the double-Unfix
// corruption bug: an Unfix on an already-unpinned frame must panic — not
// silently push the pin count negative — and the message must identify the
// frame by its page so the caller can be found.
func TestUnfixPanicMessage(t *testing.T) {
	s := Open(NewMemBackend(), 4)
	defer s.Close()
	f, err := s.FixNew()
	if err != nil {
		t.Fatal(err)
	}
	id := f.ID()
	s.Unfix(f)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic on double Unfix")
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic value %T, want string", r)
		}
		if !strings.Contains(msg, fmt.Sprintf("page %d", id)) {
			t.Errorf("panic %q does not name page %d", msg, id)
		}
		if got := f.pins(); got != 0 {
			t.Errorf("pin count corrupted to %d by double Unfix", got)
		}
	}()
	s.Unfix(f)
}

// stampPage writes the torture test's content oracle into a page body:
// every page holds its ID and version, then a deterministic byte pattern.
func stampPage(data []byte, id PageID, version uint32) {
	binary.BigEndian.PutUint32(data[PageHeaderSize:], uint32(id))
	binary.BigEndian.PutUint32(data[PageHeaderSize+4:], version)
	seed := byte(uint32(id)*31 + version)
	for i := PageHeaderSize + 8; i < PageHeaderSize+64; i++ {
		data[i] = seed + byte(i)
	}
}

// checkPage verifies the oracle pattern; returns the stored version.
func checkPage(data []byte, id PageID) (uint32, error) {
	if got := PageID(binary.BigEndian.Uint32(data[PageHeaderSize:])); got != id {
		return 0, fmt.Errorf("page %d holds content of page %d", id, got)
	}
	version := binary.BigEndian.Uint32(data[PageHeaderSize+4:])
	seed := byte(uint32(id)*31 + version)
	for i := PageHeaderSize + 8; i < PageHeaderSize+64; i++ {
		if data[i] != seed+byte(i) {
			return 0, fmt.Errorf("page %d version %d corrupt at offset %d", id, version, i)
		}
	}
	return version, nil
}

// TestBufferTorture is the randomized multi-goroutine Fix/Unfix/MarkDirty
// torture test: a pool at half the working-set size (every miss evicts),
// the background flusher racing every write, and a content + version
// oracle. Per-page RW locks in the test serialize content access the way
// the layers above the buffer do, so any corruption the test observes is
// the buffer manager's fault. Run it under -race.
func TestBufferTorture(t *testing.T) { atSizes(t, bufferTorture, 256, DefaultFrames) }

// atSizes runs suite once per pool size, each a subtest named by the size.
func atSizes(t *testing.T, suite func(*testing.T, int), sizes ...int) {
	for _, n := range sizes {
		t.Run(fmt.Sprintf("frames=%d", n), func(t *testing.T) { suite(t, n) })
	}
}

// bufferTorture runs the torture on a pool of frames frames.
func bufferTorture(t *testing.T, frames int) {
	const (
		workers = 8
		iters   = 400
	)
	pages := 2 * frames // the pool holds half of them: constant eviction traffic
	s := OpenConfig(NewMemBackend(), Config{
		BufferFrames:    frames,
		FlusherInterval: 200 * time.Microsecond,
	})
	defer s.Close()

	ids := make([]PageID, pages)
	versions := make([]atomic.Uint32, pages)
	pageLocks := make([]sync.RWMutex, pages)
	for i := range ids {
		f, err := s.FixNew()
		if err != nil {
			t.Fatal(err)
		}
		stampPage(f.Data(), f.ID(), 0)
		f.MarkDirty()
		ids[i] = f.ID()
		s.Unfix(f)
	}

	var wg sync.WaitGroup
	var fails atomic.Int32
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				if fails.Load() > 0 {
					return
				}
				n := rng.Intn(pages)
				switch op := rng.Intn(10); {
				case op < 6: // read and verify
					pageLocks[n].RLock()
					f, err := s.Fix(ids[n])
					if err != nil {
						t.Errorf("Fix(%d): %v", ids[n], err)
						fails.Add(1)
						pageLocks[n].RUnlock()
						return
					}
					v, err := checkPage(f.Data(), ids[n])
					if err == nil && v != versions[n].Load() {
						err = fmt.Errorf("page %d at version %d, oracle says %d", ids[n], v, versions[n].Load())
					}
					s.Unfix(f)
					pageLocks[n].RUnlock()
					if err != nil {
						t.Error(err)
						fails.Add(1)
						return
					}
				case op < 9: // mutate
					pageLocks[n].Lock()
					f, err := s.Fix(ids[n])
					if err != nil {
						t.Errorf("Fix(%d): %v", ids[n], err)
						fails.Add(1)
						pageLocks[n].Unlock()
						return
					}
					if _, err := checkPage(f.Data(), ids[n]); err != nil {
						t.Error(err)
						fails.Add(1)
						s.Unfix(f)
						pageLocks[n].Unlock()
						return
					}
					v := versions[n].Load() + 1
					stampPage(f.Data(), ids[n], v)
					f.MarkDirty()
					versions[n].Store(v)
					s.Unfix(f)
					pageLocks[n].Unlock()
				default: // double pin: same page must come back as one frame
					pageLocks[n].RLock()
					f1, err1 := s.Fix(ids[n])
					f2, err2 := s.Fix(ids[n])
					if err1 == nil && err2 == nil && f1 != f2 {
						t.Errorf("page %d pinned as two frames", ids[n])
						fails.Add(1)
					}
					if err1 == nil {
						s.Unfix(f1)
					}
					if err2 == nil {
						s.Unfix(f2)
					}
					pageLocks[n].RUnlock()
					if err1 != nil || err2 != nil {
						t.Errorf("double pin of %d: %v / %v", ids[n], err1, err2)
						fails.Add(1)
						return
					}
				}
			}
		}(int64(w) + 1)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Residency/pin oracle: no leaked pins, residency within capacity.
	if n := s.PinnedFrames(); n != 0 {
		t.Errorf("pin leak: %d frames still pinned", n)
	}
	if n := s.ResidentPages(); n > frames {
		t.Errorf("%d resident pages exceed pool capacity %d", n, frames)
	}
	// Every page must hold its final oracle version, whether it survived in
	// the buffer or went through eviction and reload.
	for n, id := range ids {
		f, err := s.Fix(id)
		if err != nil {
			t.Fatalf("final Fix(%d): %v", id, err)
		}
		v, err := checkPage(f.Data(), id)
		if err == nil && v != versions[n].Load() {
			err = fmt.Errorf("page %d final version %d, oracle says %d", id, v, versions[n].Load())
		}
		s.Unfix(f)
		if err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Evictions == 0 {
		t.Error("torture run saw no evictions; pool sizing is wrong for this test")
	}
}

// TestEvictionUnderFault proves a failed write-back requeues the victim
// instead of dropping the page: the Fix that triggered the eviction fails,
// but the victim's content stays buffered and dirty, and is written back
// successfully once the fault clears.
func TestEvictionUnderFault(t *testing.T) {
	plan := writeFault(true, false)
	s := Open(&FaultBackend{Backend: NewMemBackend(), Plan: plan}, 2)
	defer s.Close()

	// Three pages through a two-frame pool; creating C evicts A cleanly
	// while the injector is disarmed. B and C stay buffered and dirty.
	mk := func(tag byte) PageID {
		f, err := s.FixNew()
		if err != nil {
			t.Fatal(err)
		}
		f.Data()[PageHeaderSize] = tag
		f.MarkDirty()
		id := f.ID()
		s.Unfix(f)
		return id
	}
	a, b, c := mk('a'), mk('b'), mk('c')

	// Fixing A forces a dirty eviction; the scheduled permanent write
	// fault fails it. The error must surface as permanent and unretried.
	plan.Arm()
	if _, err := s.Fix(a); err == nil {
		t.Fatal("Fix(a) should fail when the eviction write-back faults")
	} else if !IsPermanent(err) {
		t.Fatalf("eviction failure %v not classified permanent", err)
	}
	plan.Disarm()
	if got := s.Stats().Retries; got != 0 {
		t.Errorf("permanent fault was retried %d times", got)
	}

	// The victim was requeued: both B and C are still buffered (hits, no
	// backend read) with intact content and dirty bits.
	before := s.Stats().Hits
	for _, pc := range []struct {
		id  PageID
		tag byte
	}{{b, 'b'}, {c, 'c'}} {
		f, err := s.Fix(pc.id)
		if err != nil {
			t.Fatalf("Fix(%d) after failed eviction: %v", pc.id, err)
		}
		if f.Data()[PageHeaderSize] != pc.tag {
			t.Errorf("page %d content %q, want %q — failed write-back dropped content",
				pc.id, f.Data()[PageHeaderSize], pc.tag)
		}
		s.Unfix(f)
	}
	if got := s.Stats().Hits - before; got != 2 {
		t.Errorf("pages B/C were not retained in the buffer (hits +%d, want +2)", got)
	}

	// With the fault cleared the blocked eviction goes through and A comes
	// back with its original content.
	f, err := s.Fix(a)
	if err != nil {
		t.Fatalf("Fix(a) after fault cleared: %v", err)
	}
	if f.Data()[PageHeaderSize] != 'a' {
		t.Errorf("page a content %q, want 'a'", f.Data()[PageHeaderSize])
	}
	s.Unfix(f)
}

// togglingSyncer is a LogSyncer whose FlushTo can be switched between
// success and failure, emulating a live and a crashed log.
type togglingSyncer struct{ fail atomic.Bool }

func (l *togglingSyncer) FlushTo(uint64) error {
	if l.fail.Load() {
		return errors.New("log unavailable")
	}
	return nil
}

// TestFlusherTrickles checks the background flusher writes dirty unpinned
// frames to the backend without evicting them, and leaves pinned frames
// alone.
func TestFlusherTrickles(t *testing.T) { atSizes(t, flusherTrickles, 8, DefaultFrames) }

func flusherTrickles(t *testing.T, frames int) {
	mb := NewMemBackend()
	s := OpenConfig(mb, Config{BufferFrames: frames, FlusherInterval: time.Millisecond})
	defer s.Close()

	f, err := s.FixNew()
	if err != nil {
		t.Fatal(err)
	}
	copy(f.Data()[PageHeaderSize:], "trickled")
	f.MarkDirty()
	id := f.ID()

	// Pinned: the flusher must not touch it.
	time.Sleep(10 * time.Millisecond)
	if got := s.Stats().FlusherWrites; got != 0 {
		t.Fatalf("flusher wrote %d pinned frames", got)
	}
	s.Unfix(f)

	deadline := time.Now().Add(2 * time.Second)
	for s.Stats().FlusherWrites == 0 {
		if time.Now().After(deadline) {
			t.Fatal("flusher never wrote the dirty unpinned frame")
		}
		time.Sleep(time.Millisecond)
	}
	raw := make([]byte, PageSize)
	if err := mb.ReadPage(id, raw); err != nil {
		t.Fatal(err)
	}
	if string(raw[PageHeaderSize:PageHeaderSize+8]) != "trickled" {
		t.Error("flusher write did not reach the backend")
	}
	if err := VerifyChecksum(id, raw); err != nil {
		t.Errorf("flusher wrote an unstamped page: %v", err)
	}
	// The page was trickled, not evicted: fetching it is a hit.
	before := s.Stats().Hits
	f2, err := s.Fix(id)
	if err != nil {
		t.Fatal(err)
	}
	s.Unfix(f2)
	if s.Stats().Hits != before+1 {
		t.Error("trickled page left the buffer")
	}
}

// TestFlusherHonorsWALRule checks the flusher enforces the WAL rule: while
// the log refuses FlushTo (crashed), dirty pages must not reach the
// backend; once the log recovers, they trickle out.
func TestFlusherHonorsWALRule(t *testing.T) { atSizes(t, flusherHonorsWALRule, 8, DefaultFrames) }

func flusherHonorsWALRule(t *testing.T, frames int) {
	mb := NewMemBackend()
	s := OpenConfig(mb, Config{BufferFrames: frames, FlusherInterval: time.Millisecond})
	defer s.Close()
	log := &togglingSyncer{}
	log.fail.Store(true)
	s.SetWAL(log)

	f, err := s.FixNew()
	if err != nil {
		t.Fatal(err)
	}
	copy(f.Data()[PageHeaderSize:], "guarded")
	f.MarkDirty()
	id := f.ID()
	s.Unfix(f)

	deadline := time.Now().Add(2 * time.Second)
	for s.Stats().FlusherErrors == 0 {
		if time.Now().After(deadline) {
			t.Fatal("flusher never attempted the dirty frame")
		}
		time.Sleep(time.Millisecond)
	}
	raw := make([]byte, PageSize)
	if err := mb.ReadPage(id, raw); err != nil {
		t.Fatal(err)
	}
	if string(raw[PageHeaderSize:PageHeaderSize+7]) == "guarded" {
		t.Fatal("flusher wrote page content ahead of the log")
	}

	log.fail.Store(false)
	for s.Stats().FlusherWrites == 0 {
		if time.Now().After(deadline) {
			t.Fatal("flusher never recovered after the log came back")
		}
		time.Sleep(time.Millisecond)
	}
	if err := mb.ReadPage(id, raw); err != nil {
		t.Fatal(err)
	}
	if string(raw[PageHeaderSize:PageHeaderSize+7]) != "guarded" {
		t.Error("page content missing after the log recovered")
	}
}

// TestConcurrentSamePageMiss checks that concurrent Fix misses of one page
// load it exactly once and everybody gets the same frame.
func TestConcurrentSamePageMiss(t *testing.T) { atSizes(t, concurrentSamePageMiss, 8, DefaultFrames) }

func concurrentSamePageMiss(t *testing.T, frames int) {
	mb := NewMemBackend()
	s := Open(mb, frames)
	f, err := s.FixNew()
	if err != nil {
		t.Fatal(err)
	}
	f.Data()[PageHeaderSize] = 'x'
	f.MarkDirty()
	id := f.ID()
	s.Unfix(f)
	if err := s.Close(); err != nil { // write it out, then reopen cold
		t.Fatal(err)
	}
	s = Open(mb, frames)
	defer s.Close()

	const workers = 16
	got := make([]*Frame, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f, err := s.Fix(id)
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = f
		}(w)
	}
	wg.Wait()
	for _, f := range got {
		if f == nil {
			t.Fatal("a worker failed to fix the page")
		}
		if f != got[0] {
			t.Fatal("concurrent misses produced distinct frames for one page")
		}
		if f.Data()[PageHeaderSize] != 'x' {
			t.Fatal("loaded content wrong")
		}
	}
	st := s.Stats()
	if st.Misses != 1 {
		t.Errorf("misses = %d, want 1 (single load)", st.Misses)
	}
	for range got {
		s.Unfix(got[0])
	}
	if s.PinnedFrames() != 0 {
		t.Error("pins leaked")
	}
}

// newPage creates a page tagged with tag through FixNew and returns it
// pinned.
func newPage(t *testing.T, s *Store, tag byte) *Frame {
	t.Helper()
	f, err := s.FixNew()
	if err != nil {
		t.Fatal(err)
	}
	f.Data()[PageHeaderSize] = tag
	return f
}

// parkFirstClaim makes the first victim claim of s park, holding the miss
// latch, until the returned release is called; parked is closed once it
// has.
func parkFirstClaim(s *Store) (parked chan struct{}, release func()) {
	parked, resume := make(chan struct{}), make(chan struct{})
	var once sync.Once
	s.claimParked = func() {
		once.Do(func() {
			close(parked)
			<-resume
		})
	}
	return parked, func() { close(resume) }
}

// fixAsync fixes id on its own goroutine; the result arrives on the channel.
func fixAsync(s *Store, id PageID) chan fixResult {
	c := make(chan fixResult, 1)
	go func() {
		f, err := s.Fix(id)
		c <- fixResult{f, err}
	}()
	return c
}

type fixResult struct {
	f   *Frame
	err error
}

// await receives from c or fails the test after a bound.
func await[T any](t *testing.T, c chan T, what string) T {
	t.Helper()
	select {
	case v := <-c:
		return v
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: no result after 5 s", what)
		panic("unreachable")
	}
}

// awaitStack waits until some goroutine's stack holds fn, or fails the test
// after a bound.
func awaitStack(t *testing.T, fn string) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if strings.Contains(string(buf[:runtime.Stack(buf, true)]), fn) {
			return
		}
	}
	t.Fatalf("no goroutine reached %s after 5 s", fn)
}

// TestHitDoesNotWaitForClaim parks a miss in its victim claim, where it owns
// the sweep, and fixes another resident page: the hit must return while the
// miss is still parked. With the hit under the miss latch, it waited for the
// whole sweep.
func TestHitDoesNotWaitForClaim(t *testing.T) {
	s := Open(NewMemBackend(), 3)
	defer s.Close()
	victim, hit, held := newPage(t, s, 'v'), newPage(t, s, 'h'), newPage(t, s, 'p')
	s.Unfix(victim)
	s.Unfix(hit)
	defer s.Unfix(held)
	cold, err := s.Backend().Allocate()
	if err != nil {
		t.Fatal(err)
	}
	// The sweep clears victim's and hit's reference bits, skips held, and
	// parks on victim.
	parked, release := parkFirstClaim(s)
	miss := fixAsync(s, cold)
	await(t, parked, "miss reaching its claim")

	got := fixAsync(s, hit.ID())
	var r fixResult
	select {
	case r = <-got:
	case <-time.After(2 * time.Second):
		t.Error("a Fix hit waited for a miss parked in its victim claim")
		release()
		r = await(t, got, "hit after the release")
	}
	if r.err != nil || r.f != hit {
		t.Errorf("Fix(hit) = %p, %v; want the resident frame %p", r.f, r.err, hit)
	} else {
		s.Unfix(r.f)
	}
	if !t.Failed() {
		release()
	}
	if r := await(t, miss, "parked miss"); r.err != nil {
		t.Fatal(r.err)
	} else {
		s.Unfix(r.f)
	}
}

// TestClaimLosesToAPin pins the victim a sweep has picked while the sweep is
// parked before claiming it: the claim must fail, because it is one CAS
// from (resident, 0 pins), and the sweep must take another frame. A claim
// that flipped the state without the pin count in the same CAS would remap
// the pinned frame underneath its holder.
func TestClaimLosesToAPin(t *testing.T) {
	s := Open(NewMemBackend(), 3)
	defer s.Close()
	victim, spare, held := newPage(t, s, 'v'), newPage(t, s, 's'), newPage(t, s, 'p')
	v := victim.ID()
	s.Unfix(victim)
	s.Unfix(spare)
	defer s.Unfix(held)
	cold, err := s.Backend().Allocate()
	if err != nil {
		t.Fatal(err)
	}
	parked, release := parkFirstClaim(s)
	miss := fixAsync(s, cold)
	await(t, parked, "miss reaching its claim")
	f, err := s.Fix(v)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Unfix(f)
	release()
	r := await(t, miss, "parked miss")
	if r.err != nil {
		t.Fatal(r.err)
	}
	defer s.Unfix(r.f)
	if r.f != spare {
		t.Errorf("the miss took frame %p, want the unpinned spare %p", r.f, spare)
	}
	if f.ID() != v || f.Data()[PageHeaderSize] != 'v' {
		t.Errorf("pinned frame of page %d now holds page %d (tag %q): claimed under its pin",
			v, f.ID(), f.Data()[PageHeaderSize])
	}
}

// gatedWrites holds every WritePage until open is closed, and closes
// entered when the first one arrives.
type gatedWrites struct {
	Backend
	entered, open chan struct{}
	once          sync.Once
}

func (g *gatedWrites) WritePage(id PageID, buf []byte) error {
	g.once.Do(func() { close(g.entered) })
	<-g.open
	return g.Backend.WritePage(id, buf)
}

// TestPinRechecksRemappedFrame puts a Fixer to sleep on a frame whose page
// is being evicted: the write-back is held, then released, and the frame is
// remapped to the evicting miss's page and loaded. The Fixer wakes to a
// resident frame and pins it, and only the check after the pin tells it the
// frame now holds another page; it must look again and load its own.
func TestPinRechecksRemappedFrame(t *testing.T) {
	g := &gatedWrites{Backend: NewMemBackend(), entered: make(chan struct{}), open: make(chan struct{})}
	s := Open(g, 3)
	defer s.Close()
	fa := newPage(t, s, 'a')
	a := fa.ID()
	s.Unfix(fa)
	held, spare := newPage(t, s, 'p'), newPage(t, s, 's')
	defer s.Unfix(held)
	b, err := g.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	missB := fixAsync(s, b) // evicts a, the only unpinned page, and writes it back
	await(t, g.entered, "write-back of the victim")
	s.Unfix(spare) // the frame a's second miss will take
	fixA := fixAsync(s, a)
	awaitStack(t, "pagestore.(*Frame).awaitIO") // Fix(a) sleeps on a's frame
	close(g.open)

	rb := await(t, missB, "Fix(b)")
	if rb.err != nil {
		t.Fatal(rb.err)
	}
	defer s.Unfix(rb.f)
	ra := await(t, fixA, "Fix(a)")
	if ra.err != nil {
		t.Fatal(ra.err)
	}
	defer s.Unfix(ra.f)
	if ra.f.ID() != a || ra.f.Data()[PageHeaderSize] != 'a' {
		t.Errorf("Fix(%d) returned the frame of page %d (tag %q)", a, ra.f.ID(), ra.f.Data()[PageHeaderSize])
	}
}

// TestFixResident pins a resident page as a hit, and declines without a
// wait, a read or a count a page that is not buffered and one whose frame
// is being written back by an eviction.
func TestFixResident(t *testing.T) {
	g := &gatedWrites{Backend: NewMemBackend(), entered: make(chan struct{}), open: make(chan struct{})}
	s := Open(g, 3)
	defer s.Close()
	fa := newPage(t, s, 'a')
	a := fa.ID()
	s.Unfix(fa)
	s0 := s.Stats()
	if f := s.FixResident(a); f != fa {
		t.Fatalf("FixResident of a resident page = %p, want its frame %p", f, fa)
	}
	s.Unfix(fa)
	if s1 := s.Stats(); s1.Hits != s0.Hits+1 || s1.Misses != s0.Misses {
		t.Errorf("FixResident of a resident page counted %d hits and %d misses, want 1 and 0", s1.Hits-s0.Hits, s1.Misses-s0.Misses)
	}
	cold, err := g.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	s0, resident := s.Stats(), s.ResidentPages()
	if f := s.FixResident(cold); f != nil {
		t.Fatalf("FixResident of a page never read = %p, want nil", f)
	}
	if s1 := s.Stats(); s1 != s0 || s.ResidentPages() != resident {
		t.Errorf("a declined FixResident moved the pool: %+v then %+v, %d then %d pages", s0, s1, resident, s.ResidentPages())
	}

	held, spare := newPage(t, s, 'p'), newPage(t, s, 's')
	defer s.Unfix(held)
	defer s.Unfix(spare)
	miss := fixAsync(s, cold) // evicts a, the only unpinned page, and writes it back
	await(t, g.entered, "write-back of the victim")
	if f := s.FixResident(a); f != nil {
		t.Errorf("FixResident of a page being written back = %p, want nil", f)
	}
	close(g.open)
	if r := await(t, miss, "Fix(cold)"); r.err != nil {
		t.Fatal(r.err)
	} else {
		s.Unfix(r.f)
	}
}

// TestTableSlotsTileThePageSpace checks that the page table's chunks cover
// every PageID exactly once, in order: each chunk starts where the one
// before it ends, at offset 0, and the last ends at 2^32.
func TestTableSlotsTileThePageSpace(t *testing.T) {
	var next uint64
	for k := range len(pageTable{}.chunks) {
		gk, off, size := tableSlot(PageID(next))
		if gk != k || off != 0 {
			t.Fatalf("page %d: chunk %d offset %d, want chunk %d offset 0", next, gk, off, k)
		}
		last := next + uint64(size) - 1
		if gk, off, _ := tableSlot(PageID(last)); gk != k || off != size-1 {
			t.Fatalf("page %d: chunk %d offset %d, want chunk %d offset %d", last, gk, off, k, size-1)
		}
		next = last + 1
	}
	if next != 1<<32 {
		t.Errorf("chunks end at %d, want 2^32", next)
	}
}

// TestFixOutOfRangeMapsNothing fixes a page far beyond the backend: the
// error is the backend's, and no page-table chunk is allocated for it.
func TestFixOutOfRangeMapsNothing(t *testing.T) {
	s := Open(NewMemBackend(), 8)
	defer s.Close()
	f := newPage(t, s, 'x')
	s.Unfix(f)
	if _, err := s.Fix(InvalidPage - 1); !errors.Is(err, ErrPageOutOfRange) {
		t.Fatalf("Fix far beyond the backend: %v, want ErrPageOutOfRange", err)
	}
	for k := 1; k < len(s.table.chunks); k++ {
		if s.table.chunks[k].Load() != nil {
			t.Errorf("chunk %d allocated for a page the backend does not hold", k)
		}
	}
}
