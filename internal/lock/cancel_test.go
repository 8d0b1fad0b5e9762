package lock

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestCancelPendingWait: a pending lock request whose transaction context is
// canceled must stop waiting immediately — well before the manager timeout —
// and leave no residue in the lock table (the disconnected-session teardown
// path of the server front end).
func TestCancelPendingWait(t *testing.T) {
	m := newMgr(t, Options{Timeout: time.Minute}) // timeout must not be the rescuer
	holder, waiter := m.Begin(), m.Begin()
	if err := m.Lock(holder, "n1", tX, false); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	waiter.SetContext(ctx)

	done := make(chan error, 1)
	go func() { done <- m.Lock(waiter, "n1", tS, false) }()
	// Wait until the request actually queues, then cut the session.
	deadline := time.Now().Add(5 * time.Second)
	for m.QueueLength("n1") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never queued")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("expected ErrCanceled, got %v", err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cause not preserved: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("canceled wait did not return")
	}
	if got := m.Stats().Canceled; got != 1 {
		t.Fatalf("Canceled counter = %d, want 1", got)
	}

	// The canceled waiter must be gone from the queue; after both
	// transactions finish, the residue audit must pass.
	if q := m.QueueLength("n1"); q != 0 {
		t.Fatalf("canceled request still queued (%d waiters)", q)
	}
	m.ReleaseAll(waiter)
	m.ReleaseAll(holder)
	if err := m.LeakCheck(); err != nil {
		t.Fatalf("lock residue after canceled wait: %v", err)
	}
}

// TestCancelBeforeRequest: an already-canceled context fails the next
// request that reaches the table up front without queueing.
func TestCancelBeforeRequest(t *testing.T) {
	m := newMgr(t, Options{Timeout: time.Minute})
	holder, waiter := m.Begin(), m.Begin()
	if err := m.Lock(holder, "n1", tX, false); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	waiter.SetContext(ctx)
	if err := m.Lock(waiter, "n1", tS, false); !errors.Is(err, ErrCanceled) {
		t.Fatalf("expected ErrCanceled, got %v", err)
	}
	if q := m.QueueLength("n1"); q != 0 {
		t.Fatalf("pre-canceled request queued (%d waiters)", q)
	}
	m.ReleaseAll(waiter)
	m.ReleaseAll(holder)
	if err := m.LeakCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestCancelGrantRace: a grant that lands concurrently with the cancellation
// must be honored — the lock shows up in the holder set and is released
// normally (no double-completion, no lost lock).
func TestCancelGrantRace(t *testing.T) {
	for i := 0; i < 50; i++ {
		m := newMgr(t, Options{Timeout: time.Minute})
		holder, waiter := m.Begin(), m.Begin()
		if err := m.Lock(holder, "r", tX, false); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		waiter.SetContext(ctx)
		done := make(chan error, 1)
		go func() { done <- m.Lock(waiter, "r", tS, false) }()
		for m.QueueLength("r") == 0 {
			time.Sleep(50 * time.Microsecond)
		}
		// Release (grants the waiter) and cancel as close together as the
		// scheduler allows.
		released := make(chan struct{})
		go func() { m.ReleaseAll(holder); close(released) }()
		cancel()
		err := <-done
		<-released
		if err == nil {
			if got := m.HeldMode(waiter, "r"); got != tS {
				t.Fatalf("iter %d: grant honored but mode %v", i, got)
			}
		} else if !errors.Is(err, ErrCanceled) {
			t.Fatalf("iter %d: unexpected error %v", i, err)
		}
		m.ReleaseAll(waiter)
		if err := m.LeakCheck(); err != nil {
			t.Fatalf("iter %d: %v", i, err)
		}
	}
}

// TestCancelDeadlinePropagation: a context deadline bounds the wait like a
// per-request timeout (deadline propagation from the wire protocol).
func TestCancelDeadlinePropagation(t *testing.T) {
	m := newMgr(t, Options{Timeout: time.Minute})
	holder, waiter := m.Begin(), m.Begin()
	if err := m.Lock(holder, "n1", tX, false); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	waiter.SetContext(ctx)
	t0 := time.Now()
	err := m.Lock(waiter, "n1", tS, false)
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expected ErrCanceled(DeadlineExceeded), got %v", err)
	}
	if d := time.Since(t0); d > 10*time.Second {
		t.Fatalf("deadline ignored: waited %v", d)
	}
	m.ReleaseAll(waiter)
	m.ReleaseAll(holder)
	if err := m.LeakCheck(); err != nil {
		t.Fatal(err)
	}
}
