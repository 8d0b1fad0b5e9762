package metrics

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonic atomic counter. Nil-safe: Add/Load on a nil
// counter are no-ops, so instruments handed out by a nil registry cost one
// branch.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Load returns the current value.
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous atomic value (may go down). Nil-safe.
type Gauge struct{ v atomic.Int64 }

// Set stores the value.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add adjusts the value by n (negative to decrement).
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Load returns the current value.
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Registry is a name -> instrument map. Instruments are created on first
// request and shared on later ones, so independent subsystems can
// contribute to one namespace. All methods are safe for concurrent use and
// for a nil receiver (which hands out nil instruments — the disabled mode).
//
// Naming convention: dot-separated "subsystem.metric" (lock.wait,
// buffer.writeback, wal.force). The registry does not interpret names.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	funcs    map[string]func() uint64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		funcs:    make(map[string]func() uint64),
	}
}

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it if needed.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Func registers a computed counter: fn is called at snapshot time and its
// value appears among the counters. Subsystems that already maintain their
// own atomic counters (lock, pagestore, wal, tx) unify onto the registry
// this way without double-counting on their hot paths. A
// second registration under the same name replaces the first.
func (r *Registry) Func(name string, fn func() uint64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	r.funcs[name] = fn
	r.mu.Unlock()
}

// Snapshot captures every instrument into a plain value. Funcs are
// evaluated outside the registry mutex (they may take subsystem locks).
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	for name, c := range r.counters {
		s.Counters[name] = c.Load()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Load()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
	}
	funcs := make(map[string]func() uint64, len(r.funcs))
	for name, fn := range r.funcs {
		funcs[name] = fn
	}
	r.mu.Unlock()
	for name, fn := range funcs {
		s.Counters[name] = fn()
	}
	return s
}

// Snapshot is a point-in-time copy of a registry: plain maps, JSON-ready,
// and mergeable (figures average runs by merging their snapshots).
type Snapshot struct {
	Counters   map[string]uint64       `json:"counters"`
	Gauges     map[string]int64        `json:"gauges,omitempty"`
	Histograms map[string]HistSnapshot `json:"histograms"`
}

// Merge folds o into s: counters add, gauges take o's value (last write
// wins — they are instantaneous), histograms merge bucket-wise.
func (s *Snapshot) Merge(o *Snapshot) { s.MergeAs("", o) }

// MergeAs is Merge with prefix put before each of o's names: a server shows
// every engine's instruments beside its own as "engine.<protocol>.<name>".
func (s *Snapshot) MergeAs(prefix string, o *Snapshot) {
	if s == nil || o == nil {
		return
	}
	if s.Counters == nil {
		s.Counters = map[string]uint64{}
	}
	for name, v := range o.Counters {
		s.Counters[prefix+name] += v
	}
	if len(o.Gauges) > 0 && s.Gauges == nil {
		s.Gauges = map[string]int64{}
	}
	for name, v := range o.Gauges {
		s.Gauges[prefix+name] = v
	}
	if s.Histograms == nil {
		s.Histograms = map[string]HistSnapshot{}
	}
	for name, h := range o.Histograms {
		merged := s.Histograms[prefix+name]
		merged.Merge(h)
		s.Histograms[prefix+name] = merged
	}
}

// CounterValue returns a counter by name (0 when absent or s is nil).
func (s *Snapshot) CounterValue(name string) uint64 {
	if s == nil {
		return 0
	}
	return s.Counters[name]
}

// Hist returns a histogram snapshot by name (zero value when absent or s
// is nil).
func (s *Snapshot) Hist(name string) HistSnapshot {
	if s == nil {
		return HistSnapshot{}
	}
	return s.Histograms[name]
}

// Summary returns the percentile digest of a named histogram — the
// figures-facing accessor: harnesses pull distributions (p50/p95/p99/max)
// instead of means.
func (s *Snapshot) Summary(name string) LatencySummary {
	return s.Hist(name).Summary()
}

// HistogramNames returns the sorted histogram names (stable iteration for
// reports and tests).
func (s *Snapshot) HistogramNames() []string {
	if s == nil {
		return nil
	}
	names := make([]string, 0, len(s.Histograms))
	for name := range s.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// WriteText renders the snapshot for a terminal, one instrument per line:
// counters by name, then the digest of every histogram that recorded
// anything (latencies are nanoseconds).
func (s *Snapshot) WriteText(w io.Writer) {
	if s == nil {
		return
	}
	counters := make([]string, 0, len(s.Counters))
	for name := range s.Counters {
		counters = append(counters, name)
	}
	sort.Strings(counters)
	for _, name := range counters {
		fmt.Fprintf(w, "%-32s %d\n", name, s.Counters[name])
	}
	for _, name := range s.HistogramNames() {
		if sum := s.Summary(name); sum.Count > 0 {
			fmt.Fprintf(w, "%-32s n=%d avg=%d p50=%d p95=%d p99=%d max=%d\n",
				name, sum.Count, sum.Avg, sum.P50, sum.P95, sum.P99, sum.Max)
		}
	}
}
