package spin

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestLockBoundedSpin holds a latch for 20 ms against one waiter: the waiter
// probes at most the budget, then parks in the blocking call, and takes the
// latch when it is released. A waiter without the fallback probes for the
// whole 20 ms and burns its CPU doing so.
func TestLockBoundedSpin(t *testing.T) {
	var mu sync.Mutex
	mu.Lock()
	started, done := make(chan struct{}), make(chan struct{})
	tries, blocked := 0, false
	go func() {
		defer close(done)
		close(started)
		Lock(func() bool { tries++; return mu.TryLock() }, func() { blocked = true; mu.Lock() })
		mu.Unlock()
	}()
	<-started
	time.Sleep(20 * time.Millisecond)
	mu.Unlock()
	<-done
	if tries > probes || !blocked {
		t.Errorf("waiter probed %d times (budget %d) and blocked=%v; want the budget, then the blocking call", tries, probes, blocked)
	}
}

// TestLockYieldsToHolderOnSameP runs on one P: the waiter spins while the
// latch's holder waits for that P to release it. The waiter's yields let the
// holder run, so it takes the latch within 1 ms and without parking. A
// waiter that never yields spends its whole budget while the holder cannot
// run, and parks. The time is the best of three tries, so a thread the
// kernel takes away for a while does not fail the test; a park in any try
// does.
func TestLockYieldsToHolderOnSameP(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	best := time.Hour
	for try := 0; try < 3; try++ {
		waited, blocked := handOffOnOneP()
		if blocked {
			t.Fatalf("waiter parked (after %v); want it to yield until the holder releases", waited)
		}
		best = min(best, waited)
	}
	if best > time.Millisecond {
		t.Errorf("waiter took the latch after %v at best, want < 1ms", best)
	}
}

// handOffOnOneP holds a latch, starts a waiter and releases the latch once
// the waiter spins; it reports how long the waiter waited and whether it
// parked.
func handOffOnOneP() (waited time.Duration, blocked bool) {
	var mu sync.Mutex
	mu.Lock()
	var spinning atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		spinning.Store(true)
		start := time.Now()
		Lock(mu.TryLock, func() { blocked = true; mu.Lock() })
		waited = time.Since(start)
		mu.Unlock()
	}()
	for !spinning.Load() {
		runtime.Gosched()
	}
	// The waiter is spinning on the only P: this goroutine is back only
	// because it yielded.
	mu.Unlock()
	<-done
	return waited, blocked
}

// TestBackoffJittersAndDoubles walks a backoff from 1 ms to its 5 ms cap with
// the jitter source at both ends of its range: every sleep lies in 50-150 %
// of its step, and the steps double until the cap holds them.
func TestBackoffJittersAndDoubles(t *testing.T) {
	for _, rnd := range []func(int64) int64{
		func(int64) int64 { return 0 },
		func(n int64) int64 { return n - 1 },
	} {
		step := time.Millisecond
		var steps []time.Duration
		for i := 0; i < 5; i++ {
			sleep, next := Backoff(step, 5*time.Millisecond, rnd)
			if sleep < step/2 || sleep >= step*3/2 {
				t.Errorf("step %v slept %v, want [%v, %v)", step, sleep, step/2, step*3/2)
			}
			steps = append(steps, step)
			step = next
		}
		want := []time.Duration{time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond, 5 * time.Millisecond, 5 * time.Millisecond}
		if !slices.Equal(steps, want) {
			t.Fatalf("steps %v, want %v", steps, want)
		}
	}
}
