package lock

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestObserverStorm hammers the observers — Stats, Snapshot (with Render),
// ActiveResources, LeakCheck — concurrently with acquire/release storms
// that exercise every grant path: immediate grants, cache hits, path walks,
// conversions, blocking waits, deadlocks, short (operation-duration) locks,
// and a short lock re-requested long. Run under -race it checks that
// observers read the table only under its partition mutexes and never trip
// the detector while the table churns underneath them, and that an entry's
// mode and duration change only under its stripe mutex.
func TestObserverStorm(t *testing.T) {
	m := newMgr(t, Options{Timeout: 2 * time.Second, stripes: 8})

	const (
		workers   = 8
		observers = 3
		hotRes    = 6
	)
	duration := 400 * time.Millisecond
	if testing.Short() {
		duration = 100 * time.Millisecond
	}

	var (
		stop     atomic.Bool
		ops      atomic.Int64
		obsReads atomic.Int64
		wg       sync.WaitGroup
	)

	ancestors := []Resource{"st/r", "st/r/a", "st/r/a/b"}
	hot := make([]Resource, hotRes)
	for i := range hot {
		hot[i] = Resource(fmt.Sprintf("st/hot-%d", i))
	}
	modes := []Mode{tIS, tIX, tS, tU, tX}

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) * 7919))
			for !stop.Load() {
				tx := m.Begin()
				abort := false
				for step := 0; step < 6 && !abort; step++ {
					var err error
					switch rng.Intn(5) {
					case 0: // path walk onto a private leaf — grants + hits
						leaf := Resource(fmt.Sprintf("st/r/a/b/leaf-%d-%d", w, rng.Intn(4)))
						err = seqWalk(m.Lock, tx, ancestors, leaf)
					case 1: // contended resource, random mode — waits, conversions
						err = m.Lock(tx, hot[rng.Intn(hotRes)], modes[rng.Intn(len(modes))], false)
					case 2: // short-duration lock, released mid-transaction
						if err = m.Lock(tx, hot[rng.Intn(hotRes)], tIS, true); err == nil {
							m.ReleaseShort(tx)
						}
					case 3: // short lock re-requested long — a duration upgrade
						res := hot[rng.Intn(hotRes)]
						if err = m.Lock(tx, res, tIS, true); err == nil {
							err = m.Lock(tx, res, tIS, false)
						}
					default: // re-request something likely held — cache-hit path
						err = m.Lock(tx, ancestors[rng.Intn(len(ancestors))], tIS, false)
					}
					if err != nil {
						if !errors.Is(err, ErrDeadlockVictim) && !errors.Is(err, ErrLockTimeout) {
							t.Errorf("worker %d: %v", w, err)
						}
						abort = true
					}
					ops.Add(1)
				}
				m.ReleaseAll(tx)
			}
		}(w)
	}

	for o := 0; o < observers; o++ {
		wg.Add(1)
		go func(o int) {
			defer wg.Done()
			var buf bytes.Buffer
			for !stop.Load() {
				switch o % 3 {
				case 0:
					snap := m.Snapshot()
					buf.Reset()
					snap.Render(&buf)
				case 1:
					_ = m.Stats()
					_ = m.ActiveResources()
				default:
					_ = m.LeakCheck() // mid-storm it reports busy resources; must not race
					_ = m.Stats()
				}
				obsReads.Add(1)
			}
		}(o)
	}

	time.Sleep(duration)
	stop.Store(true)
	wg.Wait()

	if ops.Load() == 0 || obsReads.Load() == 0 {
		t.Fatalf("no progress: %d ops, %d observer reads", ops.Load(), obsReads.Load())
	}
	if err := m.LeakCheck(); err != nil {
		t.Fatalf("after storm: %v", err)
	}
	if n := m.ActiveResources(); n != 0 {
		t.Fatalf("after storm: %d active resources, want 0", n)
	}
}
