package pagestore

// Fault injection: a deterministic, seeded Backend wrapper that fails page
// operations on a schedule or by probability, plus the error-classification
// scheme the layers above use to decide between retrying (transient) and
// surfacing the failure (permanent). Native-XDBMS practice treats storage
// faults as first-class citizens of the design; this file makes every
// failure path of the engine an exercisable, testable path.

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
)

// FaultOp enumerates the backend operations fault injection can target.
type FaultOp int

const (
	// OpRead targets Backend.ReadPage.
	OpRead FaultOp = iota
	// OpWrite targets Backend.WritePage.
	OpWrite
	// OpSync targets Backend.Sync.
	OpSync
	// OpAllocate targets Backend.Allocate.
	OpAllocate

	numFaultOps
)

// String implements fmt.Stringer.
func (o FaultOp) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpSync:
		return "sync"
	case OpAllocate:
		return "allocate"
	default:
		return fmt.Sprintf("FaultOp(%d)", int(o))
	}
}

// FaultClass classifies a failure for the retry machinery.
type FaultClass int

const (
	// ClassTransient faults may succeed when retried (dropped request,
	// momentary contention on the device).
	ClassTransient FaultClass = iota
	// ClassPermanent faults will not heal on retry (media failure, device
	// gone); the operation must be surfaced to the caller.
	ClassPermanent
)

// String implements fmt.Stringer.
func (c FaultClass) String() string {
	if c == ClassTransient {
		return "transient"
	}
	return "permanent"
}

// ErrInjectedFault is the sentinel every injected FaultError unwraps to.
var ErrInjectedFault = errors.New("pagestore: injected fault")

// FaultError is one injected backend failure, carrying its classification.
type FaultError struct {
	// Op is the failed operation.
	Op FaultOp
	// Page is the page operated on (InvalidPage for sync/allocate).
	Page PageID
	// Class is the failure classification.
	Class FaultClass
	// Torn marks a write that persisted only a prefix of the page (the
	// crash-mid-write failure mode).
	Torn bool
}

// Error implements error.
func (e *FaultError) Error() string {
	torn := ""
	if e.Torn {
		torn = " (torn)"
	}
	if e.Op == OpSync || e.Op == OpAllocate {
		return fmt.Sprintf("pagestore: injected %s %s fault%s", e.Class, e.Op, torn)
	}
	return fmt.Sprintf("pagestore: injected %s %s fault on page %d%s", e.Class, e.Op, e.Page, torn)
}

// Unwrap ties the error to ErrInjectedFault for errors.Is.
func (e *FaultError) Unwrap() error { return ErrInjectedFault }

// Transient reports whether a retry may succeed.
func (e *FaultError) Transient() bool { return e.Class == ClassTransient }

// Permanent reports whether the failure is known not to heal on retry.
func (e *FaultError) Permanent() bool { return e.Class == ClassPermanent }

// IsTransient reports whether err is classified transient: some error in
// its chain says Transient() == true before any says false. Unclassified
// errors (plain I/O errors, ErrPageOutOfRange) are not transient — retrying
// them blindly would mask bugs.
func IsTransient(err error) bool {
	var c interface{ Transient() bool }
	return errors.As(err, &c) && c.Transient()
}

// IsPermanent reports whether err is explicitly classified permanent.
func IsPermanent(err error) bool {
	var c interface{ Permanent() bool }
	return errors.As(err, &c) && c.Permanent()
}

// Classify names err's fault class for diagnostics: "transient",
// "permanent", or "unclassified".
func Classify(err error) string {
	switch {
	case IsTransient(err):
		return "transient"
	case IsPermanent(err):
		return "permanent"
	default:
		return "unclassified"
	}
}

// TornPrefix is how many leading bytes of the new page image a torn write
// persists; the tail keeps the previous content.
const TornPrefix = PageSize / 2

// ScheduledFault deterministically fails one specific operation.
type ScheduledFault struct {
	// Op selects the operation kind.
	Op FaultOp
	// N is the 1-based occurrence index of Op (counted while armed) to fail.
	N uint64
	// Class is the injected failure's classification.
	Class FaultClass
	// Torn additionally tears the page image (OpWrite only).
	Torn bool
}

// FaultConfig configures a FaultBackend. The zero value injects nothing.
type FaultConfig struct {
	// Seed drives the injection randomness; runs with equal seeds and equal
	// operation sequences inject identical faults.
	Seed int64
	// ReadProb, WriteProb, SyncProb, AllocProb are per-operation injection
	// probabilities in [0, 1).
	ReadProb, WriteProb, SyncProb, AllocProb float64
	// PermanentFraction is the fraction of probabilistically injected
	// faults classified permanent; the rest (and the zero value: all) are
	// transient.
	PermanentFraction float64
	// TornWrites makes every injected write fault also tear the page:
	// the first TornPrefix bytes of the new image are persisted over the
	// old content before the error returns.
	TornWrites bool
	// Schedule lists exact operations to fail, in addition to the
	// probabilistic injection.
	Schedule []ScheduledFault
}

// FaultStats counts operations seen and faults injected, indexed by FaultOp.
type FaultStats struct {
	// Ops counts operations that passed the armed injector.
	Ops [numFaultOps]uint64
	// Injected counts injected faults.
	Injected [numFaultOps]uint64
	// TornWrites counts writes that persisted a torn page image.
	TornWrites uint64
}

// TotalInjected sums injected faults across operations.
func (s FaultStats) TotalInjected() uint64 {
	var n uint64
	for _, v := range s.Injected {
		n += v
	}
	return n
}

// FaultBackend wraps a Backend and injects failures per its FaultConfig.
// It starts armed; Disarm/Arm bracket phases that must run fault-free
// (document generation, post-run verification). Operation counters advance
// only while armed, so the schedule is stable regardless of setup work.
type FaultBackend struct {
	inner Backend
	armed atomic.Bool

	mu    sync.Mutex
	rng   *rand.Rand
	cfg   FaultConfig
	sched map[FaultOp]map[uint64]ScheduledFault
	stats FaultStats
}

// NewFaultBackend wraps inner with seeded fault injection, armed.
func NewFaultBackend(inner Backend, cfg FaultConfig) *FaultBackend {
	b := &FaultBackend{
		inner: inner,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		cfg:   cfg,
		sched: make(map[FaultOp]map[uint64]ScheduledFault),
	}
	for _, sf := range cfg.Schedule {
		m := b.sched[sf.Op]
		if m == nil {
			m = make(map[uint64]ScheduledFault)
			b.sched[sf.Op] = m
		}
		m[sf.N] = sf
	}
	b.armed.Store(true)
	return b
}

// Arm enables injection.
func (b *FaultBackend) Arm() { b.armed.Store(true) }

// Disarm makes the backend a transparent pass-through.
func (b *FaultBackend) Disarm() { b.armed.Store(false) }

// Stats snapshots the injection counters.
func (b *FaultBackend) Stats() FaultStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stats
}

// decide rolls the dice for one operation and returns the fault to inject,
// or nil. Counters only advance while armed.
func (b *FaultBackend) decide(op FaultOp, page PageID) *FaultError {
	if !b.armed.Load() {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.stats.Ops[op]++
	n := b.stats.Ops[op]
	if sf, ok := b.sched[op][n]; ok {
		b.stats.Injected[op]++
		return &FaultError{Op: op, Page: page, Class: sf.Class, Torn: sf.Torn && op == OpWrite}
	}
	var p float64
	switch op {
	case OpRead:
		p = b.cfg.ReadProb
	case OpWrite:
		p = b.cfg.WriteProb
	case OpSync:
		p = b.cfg.SyncProb
	case OpAllocate:
		p = b.cfg.AllocProb
	}
	if p <= 0 || b.rng.Float64() >= p {
		return nil
	}
	class := ClassTransient
	if b.cfg.PermanentFraction > 0 && b.rng.Float64() < b.cfg.PermanentFraction {
		class = ClassPermanent
	}
	b.stats.Injected[op]++
	return &FaultError{Op: op, Page: page, Class: class, Torn: op == OpWrite && b.cfg.TornWrites}
}

// ReadPage implements Backend.
func (b *FaultBackend) ReadPage(id PageID, buf []byte) error {
	if fe := b.decide(OpRead, id); fe != nil {
		return fe
	}
	return b.inner.ReadPage(id, buf)
}

// WritePage implements Backend. A torn fault persists the first TornPrefix
// bytes of buf over the page's old tail before failing — the half-written
// page a crash mid-write leaves behind. A retry that rewrites the full
// image heals it, which is exactly what the buffer manager's retry does.
func (b *FaultBackend) WritePage(id PageID, buf []byte) error {
	fe := b.decide(OpWrite, id)
	if fe == nil {
		return b.inner.WritePage(id, buf)
	}
	if fe.Torn {
		old := make([]byte, PageSize)
		if err := b.inner.ReadPage(id, old); err == nil {
			copy(old[:TornPrefix], buf[:TornPrefix])
			if err := b.inner.WritePage(id, old); err == nil {
				b.mu.Lock()
				b.stats.TornWrites++
				b.mu.Unlock()
			}
		}
	}
	return fe
}

// Allocate implements Backend.
func (b *FaultBackend) Allocate() (PageID, error) {
	if fe := b.decide(OpAllocate, InvalidPage); fe != nil {
		return InvalidPage, fe
	}
	return b.inner.Allocate()
}

// NumPages implements Backend.
func (b *FaultBackend) NumPages() PageID { return b.inner.NumPages() }

// Sync implements Backend.
func (b *FaultBackend) Sync() error {
	if fe := b.decide(OpSync, InvalidPage); fe != nil {
		return fe
	}
	return b.inner.Sync()
}

// Close implements Backend. Close is never injected: teardown must work.
func (b *FaultBackend) Close() error { return b.inner.Close() }
