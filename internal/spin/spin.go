// Package spin makes a latch waiter try the latch on its own CPU for a short
// while before it parks, and holds the jittered-doubling step (Backoff) of
// the retry loops that sleep between attempts.
//
// A goroutine that blocks on a sync.Mutex or sync.RWMutex gives up its P.
// The goroutine that releases the latch puts the waiter in its own P's
// run-next slot and asks an idle P to steal it, and that P's thread is
// usually asleep: waking it costs tens of µs, more than a B*-tree latch or
// the document latch is held. Until then the waiter sits behind the goroutine
// that released the latch. A waiter that keeps probing instead takes the
// latch the moment it is free, and one that yields between probes lets a
// holder waiting for the same P run and release it.
package spin

import "runtime"

const (
	// probes is the spin budget: how many times Lock tries the latch before
	// it falls back to the latch's blocking acquire. 256 failed probes with
	// their yields last a few µs, about a B*-tree update's hold.
	probes = 256
	// yieldEvery is how many failed probes Lock makes between two yields of
	// the processor.
	yieldEvery = 16
)

// Lock takes a latch through its two acquire calls: try, the non-blocking
// one (TryLock, TryRLock), up to probes times with a runtime.Gosched after
// every yieldEvery-th failure, then block (Lock, RLock). Neither function
// escapes, so method values passed here cost no allocation. Who excludes
// whom is the latch's business: a reader's TryRLock fails while a writer
// waits, so an RWMutex keeps its writer preference.
func Lock(try func() bool, block func()) {
	for i := 1; i <= probes; i++ {
		if try() {
			return
		}
		if i%yieldEvery == 0 {
			runtime.Gosched()
		}
	}
	block()
}
