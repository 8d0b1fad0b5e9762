package btree

import (
	"sync"

	"repro/internal/spin"
)

// treeLatch is the tree latch: readers share it, a writer holds it alone,
// and a waiting writer stops new readers (sync.RWMutex's writer preference).
//
// A waiter spins before it parks (spin.Lock): a writer holds the latch for
// one update and a reader for one cursor, less than it costs to wake a
// parked goroutine.
type treeLatch struct{ mu sync.RWMutex }

// rlock takes a read latch. A goroutine must not take a second read latch of
// the same tree while it holds one: behind a waiting writer the second would
// wait for the writer, and the writer for the first.
func (l *treeLatch) rlock() { spin.Lock(l.mu.TryRLock, l.mu.RLock) }

// runlock releases the read latch taken by rlock.
func (l *treeLatch) runlock() { l.mu.RUnlock() }

// lock takes the latch exclusively.
func (l *treeLatch) lock() { spin.Lock(l.mu.TryLock, l.mu.Lock) }

// unlock releases the exclusive latch.
func (l *treeLatch) unlock() { l.mu.Unlock() }
