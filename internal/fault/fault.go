// Package fault is the engine's one seeded adversary. A Plan says, for every
// place a fault can strike — a page read, write, sync or allocation, a log
// append, the three windows of a checkpoint, a connection's drop, stall,
// partial write or corruption — whether its Nth occurrence fails. The page
// backend (pagestore.FaultBackend), the write-ahead log (wal.Config.Faults)
// and network connections (Plan.Conn, Plan.Listener) consult the same plan,
// so one printed seed replays a run whose faults span every layer.
//
// Whether an occurrence faults is a pure function of the seed, the site and
// the occurrence's index: a Schedule entry for that index, else a draw
// against Prob[site]. Occurrences are counted only while the plan is armed,
// so setup and verification run between Disarm and Arm never shift a
// schedule. A nil or disarmed plan answers "no fault".
package fault

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// Site is a place where a fault can strike.
type Site uint8

const (
	PageRead Site = iota
	PageWrite
	PageSync
	PageAlloc
	// LogAppend crashes the log at one append.
	LogAppend
	// CkptForced crashes a checkpoint once its record is durable, before the
	// master record is repointed.
	CkptForced
	// CkptMaster crashes a checkpoint once the master is repointed, before
	// any segment is removed.
	CkptMaster
	// CkptGC crashes a checkpoint after a segment removal; every removal is
	// one occurrence, so the Nth fires whenever N segments are removed.
	CkptGC
	ConnDrop
	ConnStall
	ConnPartial
	ConnCorrupt
	// NumSites sizes per-site arrays.
	NumSites
)

var siteNames = [NumSites]string{"page read", "page write", "page sync", "page allocate",
	"log append", "checkpoint forced", "checkpoint master", "checkpoint GC",
	"conn drop", "conn stall", "conn partial write", "conn corrupt"}

func (s Site) String() string { return siteNames[s] }

// Fault is one planned failure.
type Fault struct {
	Site Site
	// N is the 1-based index of the occurrence of Site, counted while armed.
	N uint64
	// Permanent faults will not heal on retry; the others are transient.
	Permanent bool
	// Torn makes a page write persist only a prefix of the new image.
	Torn bool
}

// Plan is a seeded set of faults. Build it, hand it to the layers that
// consult it, and Arm it for the interval that should see faults.
type Plan struct {
	// Seed drives every probabilistic draw.
	Seed int64
	// Prob is the probability that an unscheduled occurrence of a site faults.
	Prob [NumSites]float64
	// Permanent is the share of probabilistic faults classified permanent.
	Permanent float64
	// Torn makes every probabilistic page-write fault tear the page.
	Torn bool
	// Schedule lists exact occurrences to fail, in addition to Prob.
	Schedule []Fault

	armed       atomic.Bool
	seen, fired [NumSites]atomic.Uint64
	torn        atomic.Uint64
}

// Arm starts counting occurrences and injecting faults.
func (p *Plan) Arm() {
	if p != nil {
		p.armed.Store(true)
	}
}

// Disarm makes the plan answer "no fault" without counting.
func (p *Plan) Disarm() {
	if p != nil {
		p.armed.Store(false)
	}
}

// At counts one occurrence of s and returns the fault planned for it, if any.
func (p *Plan) At(s Site) (Fault, bool) {
	if p == nil || !p.armed.Load() {
		return Fault{}, false
	}
	n := p.seen[s].Add(1)
	for _, f := range p.Schedule {
		if f.Site == s && f.N == n {
			return p.fire(f)
		}
	}
	if p.Prob[s] > 0 && p.draw(s, n, 0) < p.Prob[s] {
		return p.fire(Fault{Site: s, N: n, Permanent: p.draw(s, n, 1) < p.Permanent, Torn: p.Torn && s == PageWrite})
	}
	return Fault{}, false
}

func (p *Plan) fire(f Fault) (Fault, bool) {
	p.fired[f.Site].Add(1)
	if f.Torn {
		p.torn.Add(1)
	}
	return f, true
}

// Seen counts the occurrences of s while armed.
func (p *Plan) Seen(s Site) uint64 { return p.seen[s].Load() }

// Fired counts the faults injected at s.
func (p *Plan) Fired(s Site) uint64 { return p.fired[s].Load() }

// Injected counts the faults injected at every site (0 for a nil plan).
func (p *Plan) Injected() uint64 {
	var n uint64
	for s := Site(0); p != nil && s < NumSites; s++ {
		n += p.Fired(s)
	}
	return n
}

// TornWrites counts injected faults that tore a page (0 for a nil plan).
func (p *Plan) TornWrites() uint64 {
	if p == nil {
		return 0
	}
	return p.torn.Load()
}

// hash is the plan's pseudo-random word for stream k of the nth occurrence
// of s: splitmix64 over (Seed, s, n, k), with no state between calls.
func (p *Plan) hash(s Site, n, k uint64) uint64 {
	x := uint64(p.Seed) ^ (uint64(s)<<58|n<<2|k)*0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// draw is hash as a uniform variate in [0, 1).
func (p *Plan) draw(s Site, n, k uint64) float64 { return float64(p.hash(s, n, k)>>11) / (1 << 53) }

// ErrInjected is the sentinel every injected failure unwraps to.
var ErrInjected = errors.New("injected fault")

// Error is one injected failure.
type Error struct {
	Fault
	// Where names what the fault struck ("page 7", "3 of 12 bytes written").
	Where string
}

func (e *Error) Error() string {
	return fmt.Sprintf("injected %s fault #%d %s (permanent %t, torn %t)", e.Site, e.N, e.Where, e.Permanent, e.Torn)
}

// Unwrap ties the error to ErrInjected for errors.Is.
func (e *Error) Unwrap() error { return ErrInjected }

// Transient reports whether a retry may succeed: the classification the
// buffer manager's retry reads (pagestore.IsTransient).
func (e *Error) Transient() bool { return !e.Permanent }
