package btree

import (
	"sync"
	"unsafe"

	"repro/internal/spin"
)

// treeLatch is a striped "big-reader" tree latch: readers take one of
// latchStripes read-write mutexes (picked per goroutine), writers take all
// of them. With the buffer pool sharded, concurrent readers of one tree
// otherwise all bounce the single RWMutex reader count on one cache line;
// striping spreads that traffic so read-mostly workloads (navigation,
// scans, the protocol contest's read transactions) scale with the Fix path
// instead of re-serializing above it. Writers pay latchStripes lock
// acquisitions — structural updates already dwarf that cost.
//
// A waiter spins before it parks (spin.Lock): a writer holds the latch for
// one update and a reader for one cursor, less than it costs to wake a
// parked goroutine.
type treeLatch struct {
	stripes [latchStripes]paddedRWMutex
}

// latchStripes is the reader-stripe count, a power of two: stripeOf takes
// the top latchStripeBits of its hash.
const (
	latchStripeBits = 3
	latchStripes    = 1 << latchStripeBits
)

// paddedRWMutex keeps each stripe on its own cache line so reader counts
// on different stripes never false-share.
type paddedRWMutex struct {
	sync.RWMutex
	_ [128 - unsafe.Sizeof(sync.RWMutex{})%128]byte
}

// stripeOf picks a reader's stripe from the address of a variable on its
// stack. Goroutine stacks are aligned to their size (2 KiB and up), so the
// low bits of that address are an offset inside the stack, the same for
// every goroutine calling from the same path. Bits 13 and up number the
// 8 KiB blocks the stacks lie in, which tells apart any two stacks of 8 KiB
// or more and the smallest ones by fours; a Fibonacci multiply spreads the
// block numbers over the stripes. A variable only so a test can send every
// reader to one stripe.
var stripeOf = func(addr uintptr) int {
	return int(uint64(addr>>13) * 0x9E3779B97F4A7C15 >> (64 - latchStripeBits))
}

// rlock takes a read latch and returns the stripe token runlock needs.
// Goroutines on distinct stacks spread across the stripes. A goroutine must
// not take a second read latch of the same tree while it holds one: behind
// a waiting writer the second would wait for the writer, and the writer for
// the first.
func (l *treeLatch) rlock() int {
	var anchor byte
	slot := stripeOf(uintptr(unsafe.Pointer(&anchor)))
	spin.Lock(l.stripes[slot].TryRLock, l.stripes[slot].RLock)
	return slot
}

// runlock releases the read latch taken by rlock.
func (l *treeLatch) runlock(slot int) {
	l.stripes[slot].RUnlock()
}

// lock takes the latch exclusively. Stripes are acquired in index order, so
// concurrent writers cannot deadlock against each other.
func (l *treeLatch) lock() {
	for i := range l.stripes {
		spin.Lock(l.stripes[i].TryLock, l.stripes[i].Lock)
	}
}

// unlock releases the exclusive latch.
func (l *treeLatch) unlock() {
	for i := range l.stripes {
		l.stripes[i].Unlock()
	}
}
