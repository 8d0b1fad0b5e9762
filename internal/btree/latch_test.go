package btree

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// copies is how many times a b key's value repeats the key.
const copies = 60

// TestSuitesOnOneStripe runs the concurrent suites again on one processor.
// Every reader and writer meets on the one latch, and a waiter that spins
// (spin.Lock) shares the CPU with the goroutine it waits for: the suites
// pass only if the waiter's yields let the holder run and release.
func TestSuitesOnOneStripe(t *testing.T) {
	old := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
	t.Run("readers", TestConcurrentReaders)
	t.Run("mixed", TestConcurrentMixed)
	t.Run("cursors-during-splits", TestCursorsDuringSplits)
}

// TestCursorsDuringSplits scans with cursors, forward and backward, while a
// writer splits leaves and empties them again: the a and c keys stay put,
// and the b keys between them, with values large enough to fill several
// leaves, are inserted and deleted in rounds, so leaves split, empty, leave
// the chain and come back from the free list, and the root grows and
// collapses. Every scan must see every a and c key in order, and every b
// value it meets intact.
func TestCursorsDuringSplits(t *testing.T) {
	const stable, churn, rounds, readers = 100, 120, 3, 2
	tr := newTree(t)
	key := func(p byte, i int) []byte { return []byte(fmt.Sprintf("%c%04d", p, i)) }
	val := func(k []byte) []byte { return bytes.Repeat(k, copies) }
	for i := 0; i < stable; i++ {
		for _, p := range []byte("ac") {
			if err := tr.Insert(key(p, i), []byte{p}); err != nil {
				t.Fatal(err)
			}
		}
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var h Hint
			for scans := 0; !stop.Load() || scans == 0; scans++ {
				if err := checkScan(tr, stable, r%2 == 1); err != nil {
					t.Error(err)
					return
				}
				if err := checkHintedReads(tr, &h, stable, scans); err != nil {
					t.Error(err)
					return
				}
				// Return to the scheduler between scans, as the engine's
				// goroutines do between operations: readers that never
				// do fill both Ps, and a writer that yields while it
				// spins waits a time slice for its turn (DESIGN §10).
				runtime.Gosched()
			}
		}()
	}
	for round := 0; round < rounds; round++ {
		for i := 0; i < churn; i++ {
			if err := tr.Insert(key('b', i), val(key('b', i))); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < churn; i++ {
			if err := tr.Delete(key('b', i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	if n := tr.Len(); n != 2*stable {
		t.Errorf("Len = %d, want %d", n, 2*stable)
	}
}

// checkScan walks the whole tree with one cursor and checks what
// TestCursorsDuringSplits promises.
func checkScan(tr *Tree, stable int, backward bool) error {
	c := tr.Cursor()
	defer c.Close()
	var prev []byte
	seen := map[byte]int{}
	ok, step, order := c.Seek(nil), c.Next, -1
	if backward {
		ok, step, order = c.SeekLT(nil), c.Prev, 1
	}
	for ; ok; ok = step() {
		k := c.Key()
		if prev != nil && bytes.Compare(prev, k) != order {
			return fmt.Errorf("scan (backward %v) met %q after %q", backward, k, prev)
		}
		if v := c.Value(); k[0] == 'b' && (len(v) != copies*len(k) || bytes.Count(v, k) != copies) {
			return fmt.Errorf("scan met %q with a torn value", k)
		}
		seen[k[0]]++
		prev = append(prev[:0], k...)
	}
	if c.Err() != nil {
		return c.Err()
	}
	if seen['a'] != stable || seen['c'] != stable {
		return fmt.Errorf("scan (backward %v) saw %d a and %d c keys, want %d each", backward, seen['a'], seen['c'], stable)
	}
	return nil
}

// checkHintedReads makes point reads from the leaf the reader's last read
// left, while the leaves around it split, empty and come back from the free
// list: an a or c key is found with its value, and the keys around a b key
// are the right ones whatever the writer has done to it.
func checkHintedReads(tr *Tree, h *Hint, stable, round int) error {
	for i := 0; i < 20; i++ {
		n := (round*20 + i) * 7 % stable
		for _, p := range []byte("ac") {
			k := []byte(fmt.Sprintf("%c%04d", p, n))
			if v, err := hintedGet(tr, h, k); err != nil || !bytes.Equal(v, []byte{p}) {
				return fmt.Errorf("hinted get %q = %q, %v", k, v, err)
			}
		}
		b := []byte(fmt.Sprintf("b%04d", n))
		var before, after []byte
		c := tr.HintedCursor(h)
		if c.Seek(b) {
			after = append(after, c.Key()...)
		}
		c.Close()
		c = tr.HintedCursor(h)
		if c.SeekLT(b) {
			before = append(before, c.Key()...)
		}
		c.Close()
		isB := func(k []byte) bool { return len(k) > 0 && k[0] == 'b' }
		if !(isB(after) && bytes.Compare(after, b) >= 0 || bytes.Equal(after, []byte("c0000"))) ||
			!(isB(before) && bytes.Compare(before, b) < 0 || bytes.Equal(before, fmt.Appendf(nil, "a%04d", stable-1))) {
			return fmt.Errorf("hinted seeks around %q landed on %q and %q", b, before, after)
		}
	}
	return nil
}

// TestLatchWriterProgress has four readers hold the latch back to back — each
// lets go only once another holds it, so the latch is never free — while a
// writer takes it. Probing alone never finds the latch free; the blocking
// Lock the writer falls back to stops new readers, and the writer is in
// within 100 ms.
func TestLatchWriterProgress(t *testing.T) {
	const readers = 4
	var (
		l       treeLatch
		held    atomic.Int32
		handoff atomic.Int64 // read latches released while another was held
		stop    atomic.Bool
		wg      sync.WaitGroup
	)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				l.rlock()
				held.Add(1)
				// Yield at least once while holding, as a goroutine of the
				// engine returns to the scheduler between operations, and
				// stop waiting for a successor after a while: one that is
				// blocked behind the writer never comes.
				for until := time.Now().Add(50 * time.Microsecond); ; {
					runtime.Gosched()
					if held.Load() >= 2 || time.Now().After(until) {
						break
					}
				}
				if held.Load() >= 2 {
					handoff.Add(1)
				}
				held.Add(-1)
				l.runlock()
			}
		}()
	}
	for handoff.Load() < 1000 {
		runtime.Gosched()
	}
	locked := make(chan struct{})
	go func() {
		l.lock()
		close(locked)
	}()
	select {
	case <-locked:
	case <-time.After(100 * time.Millisecond):
		t.Error("writer still waits behind back-to-back readers after 100ms")
		stop.Store(true)
		<-locked
	}
	l.unlock()
	stop.Store(true)
	wg.Wait()
}

// BenchmarkTreeLatchContention is local_mix's latch hand-off in miniature:
// one goroutine inserts and deletes a key while another reads short ranges
// with cursors, on a tree of a few leaves; an op is one insert and delete
// and one cursor. At -cpu 2 each goroutine has a P and the spin changes
// little; at -cpu 1 a waiter's holder waits for its P. Where a waiter's
// time goes:
//
//	go test -run XXX -bench TreeLatchContention -trace t.out ./internal/btree
//	go tool trace -pprof=sched t.out
func BenchmarkTreeLatchContention(b *testing.B) {
	const keys, churn, scan = 400, 64, 16
	tr := newTree(b)
	val := bytes.Repeat([]byte{'v'}, 64)
	var starts, moving [][]byte
	for i := 0; i < keys; i++ {
		k := []byte(fmt.Sprintf("k%05d", 2*i))
		if err := tr.Insert(k, val); err != nil {
			b.Fatal(err)
		}
		starts = append(starts, k)
	}
	for i := 0; i < churn; i++ {
		moving = append(moving, []byte(fmt.Sprintf("k%05d", 2*(i*keys/churn)+1)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < b.N; i++ {
			k := moving[i%churn]
			if err := tr.Insert(k, val); err != nil {
				b.Error(err)
				return
			}
			if err := tr.Delete(k); err != nil {
				b.Error(err)
				return
			}
		}
	}()
	for i := 0; i < b.N; i++ {
		c := tr.Cursor()
		ok := c.Seek(starts[i%keys])
		for n := 1; ok && n < scan; n++ {
			ok = c.Next()
		}
		c.Close()
	}
	wg.Wait()
}
