package pagestore

import (
	"container/list"
	"fmt"
	"sync"
	"testing"
	"time"
)

// mutexLRU replicates the pre-sharding buffer manager's synchronization
// design — one global mutex guarding the page table, pin counts, and an
// LRU list touched on every hit, with miss I/O performed *under* the table
// lock (as the old Fix did) — as the in-run baseline the sharded pool is
// measured against. Backend reads are modeled as a sleep so both designs
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

// BenchmarkBufferContention measures resident-page Fix/Unfix throughput at
// 1, 4, and 16 goroutines for the sharded pool and for the single-mutex
// LRU design it replaced, in the same run. Two scenarios:
//
//   - hits: every access is a buffer hit. This isolates raw
//     synchronization overhead on the hot path.
//   - mixed: ~1 access in 64 is a miss on a cold page range with 50µs of
//     simulated backend latency; the rest are resident hits. The old
//     design performed miss I/O under the global table lock, so one
//     goroutine's miss stalls every other goroutine's hits for the full
//     I/O; the sharded pool does I/O with only the frame marked loading,
//     so other goroutines' hits overlap the latency. This is the
//     contention the redesign removes, and it shows even on a single-CPU
//     host where parallel speedup of the lock-free-I/O hit path is
//     unobservable.
//
// `make bench-buffer` records the results in BENCH_buffer.json; the
// acceptance ratio is mixed/mutex/g16 over mixed/sharded/g16.
func BenchmarkBufferContention(b *testing.B) {
	const (
		hotPages  = 128
		frames    = 512
		coldPages = 2048 // 4x capacity: cold accesses nearly always miss
		ioLatency = 50 * time.Microsecond
		missShift = 6 // 1 miss per 2^6 accesses in the mixed scenario
	)
	mb := NewMemBackend()
	s := OpenConfig(mb, Config{Frames: frames, shards: 16})
	defer s.Close()

	// Cold range first, hot set last: the hot pages start resident and
	// constant re-reference keeps them resident (LRU recency in the
	// baseline, CLOCK ref bits in the sharded pool).
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

	shardedOp := func(id PageID) {
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
		}{{"sharded", shardedOp}, {"mutex", mutexOp}} {
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
}
