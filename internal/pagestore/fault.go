package pagestore

// Fault injection and classification: a Backend wrapper that consults a
// fault plan (package fault) before every page operation, plus the
// classification the layers above use to decide between retrying
// (transient) and surfacing the failure (permanent).

import (
	"errors"
	"fmt"

	"repro/internal/fault"
)

// IsTransient reports whether err is classified transient. Unclassified
// errors (plain I/O errors, ErrPageOutOfRange) are not — retrying them
// blindly would mask bugs.
func IsTransient(err error) bool { return Classify(err) == "transient" }

// IsPermanent reports whether err is explicitly classified permanent.
func IsPermanent(err error) bool { return Classify(err) == "permanent" }

// Classify names err's fault class: the first error in its chain with a
// Transient method decides between "transient" and "permanent"; without one
// the chain is "unclassified".
func Classify(err error) string {
	var c interface{ Transient() bool }
	switch {
	case !errors.As(err, &c):
		return "unclassified"
	case c.Transient():
		return "transient"
	}
	return "permanent"
}

// TornPrefix is how many leading bytes of the new page image a torn write
// persists; the tail keeps the previous content.
const TornPrefix = PageSize / 2

// FaultBackend is a Backend whose reads, writes, syncs and allocations
// consult Plan (sites fault.PageRead, PageWrite, PageSync, PageAlloc): a
// planned fault fails the operation with a *fault.Error, which the buffer
// manager's retry classifies by its Transient method. NumPages and Close are
// never faulted: teardown must work.
type FaultBackend struct {
	Backend
	Plan *fault.Plan
}

// fault consults the plan at s; page is InvalidPage for sync and allocate.
func (b *FaultBackend) fault(s fault.Site, page PageID) *fault.Error {
	f, ok := b.Plan.At(s)
	if !ok {
		return nil
	}
	e := &fault.Error{Fault: f}
	if page != InvalidPage {
		e.Where = fmt.Sprintf("page %d", page)
	}
	return e
}

// ReadPage implements Backend.
func (b *FaultBackend) ReadPage(id PageID, buf []byte) error {
	if fe := b.fault(fault.PageRead, id); fe != nil {
		return fe
	}
	return b.Backend.ReadPage(id, buf)
}

// WritePage implements Backend. A torn fault persists the first TornPrefix
// bytes of buf over the page's old tail before failing — the half-written
// page a crash mid-write leaves behind. A retry that rewrites the full image
// heals it, which is exactly what the buffer manager's retry does.
func (b *FaultBackend) WritePage(id PageID, buf []byte) error {
	fe := b.fault(fault.PageWrite, id)
	if fe == nil {
		return b.Backend.WritePage(id, buf)
	}
	if fe.Torn {
		old := make([]byte, PageSize)
		if b.Backend.ReadPage(id, old) == nil {
			copy(old[:TornPrefix], buf[:TornPrefix])
			_ = b.Backend.WritePage(id, old) // the write fails either way
		}
	}
	return fe
}

// Allocate implements Backend.
func (b *FaultBackend) Allocate() (PageID, error) {
	if fe := b.fault(fault.PageAlloc, InvalidPage); fe != nil {
		return InvalidPage, fe
	}
	return b.Backend.Allocate()
}

// Sync implements Backend.
func (b *FaultBackend) Sync() error {
	if fe := b.fault(fault.PageSync, InvalidPage); fe != nil {
		return fe
	}
	return b.Backend.Sync()
}
