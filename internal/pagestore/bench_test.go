package pagestore

import (
	"container/list"
	"fmt"
	"sync"
	"testing"
	"time"
)

// mutexLRU replicates the first buffer manager's synchronization design —
// one global mutex guarding the page table, pin counts, and an LRU list
// touched on every hit, with miss I/O performed *under* the table lock (as
// the old Fix did) — as the in-run baseline the pool is measured against. Backend reads are modeled as a sleep so both designs
// pay the same per-miss latency; what differs is who else that latency
// blocks.
type mutexLRU struct {
	mu      sync.Mutex
	pages   map[PageID]*mutexFrame
	lru     *list.List
	cap     int
	latency time.Duration
}

type mutexFrame struct {
	id   PageID
	pins int
	elem *list.Element
}

func newMutexLRU(capacity int, latency time.Duration) *mutexLRU {
	return &mutexLRU{
		pages:   make(map[PageID]*mutexFrame),
		lru:     list.New(),
		cap:     capacity,
		latency: latency,
	}
}

func (p *mutexLRU) fix(id PageID) *mutexFrame {
	p.mu.Lock()
	if f, ok := p.pages[id]; ok {
		f.pins++
		if f.elem != nil {
			p.lru.Remove(f.elem)
			f.elem = nil
		}
		p.mu.Unlock()
		return f
	}
	var f *mutexFrame
	if len(p.pages) < p.cap {
		f = &mutexFrame{}
	} else {
		el := p.lru.Front()
		f = el.Value.(*mutexFrame)
		p.lru.Remove(el)
		f.elem = nil
		delete(p.pages, f.id)
	}
	if p.latency > 0 {
		time.Sleep(p.latency) // the backend read, under the table lock
	}
	f.id = id
	f.pins = 1
	p.pages[id] = f
	p.mu.Unlock()
	return f
}

func (p *mutexLRU) unfix(f *mutexFrame) {
	p.mu.Lock()
	f.pins--
	if f.pins == 0 {
		f.elem = p.lru.PushBack(f)
	}
	p.mu.Unlock()
}

// runContention splits b.N Fix/Unfix pairs across g goroutines, each
// feeding its own xorshift stream into op.
func runContention(b *testing.B, g int, op func(x uint64)) {
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < g; w++ {
		share := b.N / g
		if w < b.N%g {
			share++
		}
		wg.Add(1)
		go func(seed uint64, n int) {
			defer wg.Done()
			x := seed*2654435761 + 1
			for i := 0; i < n; i++ {
				// xorshift: cheap, per-goroutine, no shared state.
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				op(x)
			}
		}(uint64(w+1), share)
	}
	wg.Wait()
	b.StopTimer()
}

// BenchmarkBufferContention measures Fix/Unfix throughput for the pool and
// for the single-mutex LRU design it replaced, in the same run.
// Three scenarios:
//
//   - hits: every access is a buffer hit. This isolates raw
//     synchronization overhead on the hot path.
//   - mixed: ~1 access in 64 is a miss on a cold page range with 50µs of
//     simulated backend latency; the rest are resident hits. The old
//     design performed miss I/O under the global table lock, so one
//     goroutine's miss stalls every other goroutine's hits for the full
//     I/O; the pool does I/O with only the frame marked loading,
//     so other goroutines' hits overlap the latency. This is the
//     contention the redesign removes, and it shows even on a single-CPU
//     host where parallel speedup of the lock-free-I/O hit path is
//     unobservable.
//   - cold: cold_jump's shape at 2 goroutines — a 64-frame pool, a
//     working set 16 times the pool, a hot set of 8 pages standing
//     in for the B*-tree inner pages every lookup fixes, 1 access in 16 a
//     cold page, and no simulated latency: misses sweep and load while hits
//     on the hot set run beside them.
//
// hits and mixed run at 1, 4 and 16 goroutines. Run it with
// `go test -run XXX -bench BenchmarkBufferContention -benchmem ./internal/pagestore/`.
func BenchmarkBufferContention(b *testing.B) {
	const (
		hotPages  = 128
		frames    = 512
		coldPages = 2048 // 4x capacity: cold accesses nearly always miss
		ioLatency = 50 * time.Microsecond
		missShift = 6 // 1 miss per 2^6 accesses in the mixed scenario
	)
	mb := NewMemBackend()
	s := Open(mb, frames)
	defer s.Close()

	// Cold range first, hot set last: the hot pages start resident and
	// constant re-reference keeps them resident (LRU recency in the
	// baseline, CLOCK ref bits in the pool).
	cold := make([]PageID, coldPages)
	for i := range cold {
		f, err := s.FixNew()
		if err != nil {
			b.Fatal(err)
		}
		cold[i] = f.ID()
		s.Unfix(f)
	}
	hot := make([]PageID, hotPages)
	for i := range hot {
		f, err := s.FixNew()
		if err != nil {
			b.Fatal(err)
		}
		hot[i] = f.ID()
		s.Unfix(f)
	}
	// Clean every frame so the timed region evicts without write-backs.
	if err := s.Flush(); err != nil {
		b.Fatal(err)
	}
	mb.SimulatedLatency = ioLatency

	base := newMutexLRU(frames, ioLatency)
	for _, id := range hot {
		base.unfix(base.fix(id))
	}

	poolOp := func(id PageID) {
		f, err := s.Fix(id)
		if err != nil {
			b.Error(err)
			return
		}
		s.Unfix(f)
	}
	mutexOp := func(id PageID) {
		base.unfix(base.fix(id))
	}

	for _, sc := range []struct {
		name   string
		misses bool
	}{{"hits", false}, {"mixed", true}} {
		for _, im := range []struct {
			name string
			op   func(PageID)
		}{{"pool", poolOp}, {"mutex", mutexOp}} {
			for _, g := range []int{1, 4, 16} {
				b.Run(fmt.Sprintf("%s/%s/g%d", sc.name, im.name, g), func(b *testing.B) {
					runContention(b, g, func(x uint64) {
						// Low bits pick hit vs miss, high bits pick the
						// page, so the two choices are uncorrelated.
						if sc.misses && x&(1<<missShift-1) == 0 {
							im.op(cold[(x>>16)%coldPages])
						} else {
							im.op(hot[(x>>16)%hotPages])
						}
					})
				})
			}
		}
	}
	benchColdContention(b)
}

// benchColdContention is BenchmarkBufferContention's cold scenario.
func benchColdContention(b *testing.B) {
	const (
		frames    = 64
		hotPages  = 8
		coldPages = 16 * frames
		coldShift = 4 // 1 cold access per 2^4
	)
	s := Open(NewMemBackend(), frames)
	defer s.Close()
	newPages := func(n int) []PageID {
		ids := make([]PageID, n)
		for i := range ids {
			f, err := s.FixNew()
			if err != nil {
				b.Fatal(err)
			}
			ids[i] = f.ID()
			s.Unfix(f)
		}
		return ids
	}
	cold, hot := newPages(coldPages), newPages(hotPages)
	if err := s.Flush(); err != nil {
		b.Fatal(err)
	}
	base := newMutexLRU(frames, 0)
	for _, im := range []struct {
		name string
		op   func(PageID)
	}{
		{"pool", func(id PageID) {
			f, err := s.Fix(id)
			if err != nil {
				b.Error(err)
				return
			}
			s.Unfix(f)
		}},
		{"mutex", func(id PageID) { base.unfix(base.fix(id)) }},
	} {
		b.Run("cold/"+im.name+"/g2", func(b *testing.B) {
			runContention(b, 2, func(x uint64) {
				if x&(1<<coldShift-1) == 0 {
					im.op(cold[(x>>16)%coldPages])
				} else {
					im.op(hot[(x>>16)%hotPages])
				}
			})
		})
	}
}
