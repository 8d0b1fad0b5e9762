package lock

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"
)

// A classic multi-granularity table (IS, IX, S, U, X) for exercising the
// manager independent of the XML protocols.
const (
	tIS Mode = iota + 1
	tIX
	tS
	tU
	tX
)

func testTable() *Table {
	names := []string{"-", "IS", "IX", "S", "U", "X"}
	// compat[held][requested]
	y, n := true, false
	compat := [][]bool{
		{n, n, n, n, n, n},
		{n, y, y, y, y, n}, // IS
		{n, y, y, n, n, n}, // IX
		{n, y, n, y, y, n}, // S  (U compatible with held S per Gray/Reuter)
		{n, y, n, n, n, n}, // U: once U is held, further S waits
		{n, n, n, n, n, n}, // X
	}
	mm := func(m Mode) []Mode { return []Mode{ModeNone, m, m, m, m, m} }
	_ = mm
	conv := [][]Mode{
		{ModeNone, tIS, tIX, tS, tU, tX},
		{ModeNone, tIS, tIX, tS, tU, tX}, // IS
		{ModeNone, tIX, tIX, tX, tX, tX}, // IX (no SIX mode in this small table)
		{ModeNone, tS, tX, tS, tU, tX},   // S
		{ModeNone, tU, tX, tU, tU, tX},   // U
		{ModeNone, tX, tX, tX, tX, tX},   // X
	}
	return NewTable(names, compat, conv)
}

func newMgr(t testing.TB, opts Options) *Manager {
	t.Helper()
	m := NewManager(testTable(), opts)
	t.Cleanup(m.Close)
	return m
}

func TestImmediateGrantAndSharing(t *testing.T) {
	m := newMgr(t, Options{})
	t1, t2 := m.Begin(), m.Begin()
	if err := m.Lock(t1, "n1", tS, false); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(t2, "n1", tS, false); err != nil {
		t.Fatal(err)
	}
	if got := m.HeldMode(t1, "n1"); got != tS {
		t.Errorf("t1 holds %v", got)
	}
	st := m.Stats()
	if st.ImmediateGrants != 2 || st.Waits != 0 {
		t.Errorf("stats %+v", st)
	}
	m.ReleaseAll(t1)
	m.ReleaseAll(t2)
}

func TestRepeatLockIsNoop(t *testing.T) {
	m := newMgr(t, Options{})
	t1 := m.Begin()
	for i := 0; i < 3; i++ {
		if err := m.Lock(t1, "n1", tS, false); err != nil {
			t.Fatal(err)
		}
	}
	if m.HeldCount(t1) != 1 {
		t.Errorf("held %d resources", m.HeldCount(t1))
	}
	m.ReleaseAll(t1)
}

func TestConflictBlocksUntilRelease(t *testing.T) {
	m := newMgr(t, Options{})
	t1, t2 := m.Begin(), m.Begin()
	if err := m.Lock(t1, "n1", tX, false); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() { got <- m.Lock(t2, "n1", tS, false) }()
	select {
	case err := <-got:
		t.Fatalf("t2 acquired S while t1 holds X: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	m.ReleaseAll(t1)
	if err := <-got; err != nil {
		t.Fatalf("t2 lock after release: %v", err)
	}
	if m.HeldMode(t2, "n1") != tS {
		t.Error("t2 should hold S")
	}
	m.ReleaseAll(t2)
}

func TestConversionUpgrade(t *testing.T) {
	m := newMgr(t, Options{})
	t1 := m.Begin()
	if err := m.Lock(t1, "n1", tS, false); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(t1, "n1", tX, false); err != nil {
		t.Fatal(err)
	}
	if m.HeldMode(t1, "n1") != tX {
		t.Errorf("mode after upgrade = %v", m.HeldMode(t1, "n1"))
	}
	if m.HeldCount(t1) != 1 {
		t.Error("upgrade must not duplicate entries")
	}
	m.ReleaseAll(t1)
}

func TestConversionWaitsForReaders(t *testing.T) {
	m := newMgr(t, Options{})
	t1, t2 := m.Begin(), m.Begin()
	m.Lock(t1, "n1", tS, false)
	m.Lock(t2, "n1", tS, false)
	got := make(chan error, 1)
	go func() { got <- m.Lock(t1, "n1", tX, false) }()
	select {
	case err := <-got:
		t.Fatalf("conversion granted while t2 reads: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	m.ReleaseAll(t2)
	if err := <-got; err != nil {
		t.Fatal(err)
	}
	if m.HeldMode(t1, "n1") != tX {
		t.Error("t1 should hold X after conversion")
	}
	m.ReleaseAll(t1)
}

func TestConversionOvertakesQueue(t *testing.T) {
	m := newMgr(t, Options{})
	t1, t2, t3 := m.Begin(), m.Begin(), m.Begin()
	m.Lock(t1, "n1", tS, false)
	m.Lock(t2, "n1", tS, false)
	// t3 queues for X (blocked by both readers).
	t3got := make(chan error, 1)
	go func() { t3got <- m.Lock(t3, "n1", tX, false) }()
	waitForQueue(t, m, "n1", 1)
	// t1 requests conversion to X: goes ahead of t3 in the queue.
	t1got := make(chan error, 1)
	go func() { t1got <- m.Lock(t1, "n1", tX, false) }()
	waitForQueue(t, m, "n1", 2)
	// Release the other reader: the conversion must win.
	m.ReleaseAll(t2)
	if err := <-t1got; err != nil {
		t.Fatalf("conversion: %v", err)
	}
	select {
	case err := <-t3got:
		t.Fatalf("t3 should still wait, got %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	m.ReleaseAll(t1)
	if err := <-t3got; err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(t3)
}

func waitForQueue(t *testing.T, m *Manager, res Resource, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for m.QueueLength(res) < n {
		if time.Now().After(deadline) {
			t.Fatalf("queue on %s never reached %d", res, n)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestFIFOPreventsStarvation(t *testing.T) {
	m := newMgr(t, Options{})
	t1, t2, t3 := m.Begin(), m.Begin(), m.Begin()
	m.Lock(t1, "n1", tX, false)
	order := make(chan int, 2)
	go func() {
		if m.Lock(t2, "n1", tX, false) == nil {
			order <- 2
			m.ReleaseAll(t2)
		}
	}()
	waitForQueue(t, m, "n1", 1)
	go func() {
		if m.Lock(t3, "n1", tS, false) == nil {
			order <- 3
			m.ReleaseAll(t3)
		}
	}()
	waitForQueue(t, m, "n1", 2)
	m.ReleaseAll(t1)
	if first := <-order; first != 2 {
		t.Errorf("queue jumped: %d won first", first)
	}
	<-order
}

func TestDeadlockDetection(t *testing.T) {
	var infos []DeadlockInfo
	var mu sync.Mutex
	m := newMgr(t, Options{onDeadlock: func(i DeadlockInfo) {
		mu.Lock()
		infos = append(infos, i)
		mu.Unlock()
	}})
	t1, t2 := m.Begin(), m.Begin()
	m.Lock(t1, "a", tX, false)
	m.Lock(t2, "b", tX, false)
	// Each transaction releases its locks as soon as its request resolves —
	// a victim's abort is what unblocks the survivor.
	request := func(tx *Tx, res Resource, out chan<- error) {
		err := m.Lock(tx, res, tX, false)
		m.ReleaseAll(tx)
		out <- err
	}
	errs := make(chan error, 2)
	go request(t1, "b", errs)
	waitForQueue(t, m, "b", 1)
	go request(t2, "a", errs)

	e1, e2 := <-errs, <-errs
	victims := 0
	if errors.Is(e1, ErrDeadlockVictim) {
		victims++
	}
	if errors.Is(e2, ErrDeadlockVictim) {
		victims++
	}
	if victims != 1 {
		t.Fatalf("exactly one victim expected: %v, %v", e1, e2)
	}
	st := m.Stats()
	if st.Deadlocks != 1 {
		t.Errorf("Deadlocks = %d", st.Deadlocks)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(infos) != 1 {
		t.Fatalf("onDeadlock calls = %d", len(infos))
	}
	// Youngest (t2) is the victim.
	if infos[0].Victim != t2.ID() {
		t.Errorf("victim = %d, want %d", infos[0].Victim, t2.ID())
	}
	if infos[0].Conversion {
		t.Error("plain crossing is not a conversion deadlock")
	}
}

func TestConversionDeadlockClassified(t *testing.T) {
	var infos []DeadlockInfo
	var mu sync.Mutex
	m := newMgr(t, Options{onDeadlock: func(i DeadlockInfo) {
		mu.Lock()
		infos = append(infos, i)
		mu.Unlock()
	}})
	t1, t2 := m.Begin(), m.Begin()
	m.Lock(t1, "n", tS, false)
	m.Lock(t2, "n", tS, false)
	request := func(tx *Tx, out chan<- error) {
		err := m.Lock(tx, "n", tX, false)
		m.ReleaseAll(tx)
		out <- err
	}
	errs := make(chan error, 2)
	go request(t1, errs)
	waitForQueue(t, m, "n", 1)
	go request(t2, errs)
	e1, e2 := <-errs, <-errs
	if (e1 == nil) == (e2 == nil) {
		t.Fatalf("one conversion must fail: %v / %v", e1, e2)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(infos) != 1 || !infos[0].Conversion {
		t.Fatalf("expected one conversion deadlock, got %+v", infos)
	}
	st := m.Stats()
	if st.ConversionDeadlocks != 1 || st.SubtreeDeadlocks != 0 {
		t.Errorf("stats %+v", st)
	}
}

func TestThreeWayDeadlock(t *testing.T) {
	m := newMgr(t, Options{})
	txs := []*Tx{m.Begin(), m.Begin(), m.Begin()}
	res := []Resource{"a", "b", "c"}
	for i, tx := range txs {
		if err := m.Lock(tx, res[i], tX, false); err != nil {
			t.Fatal(err)
		}
	}
	errs := make(chan error, 3)
	for i, tx := range txs {
		i, tx := i, tx
		go func() {
			err := m.Lock(tx, res[(i+1)%3], tX, false)
			m.ReleaseAll(tx) // victim abort or post-grant completion
			errs <- err
		}()
		if i < 2 {
			// Deterministic edge order; the third request resolves the
			// cycle synchronously, so its queue entry may never be visible.
			waitForQueue(t, m, res[(i+1)%3], 1)
		}
	}
	victims, grants := 0, 0
	for i := 0; i < 3; i++ {
		select {
		case err := <-errs:
			switch {
			case errors.Is(err, ErrDeadlockVictim):
				victims++
			case err == nil:
				grants++
			default:
				t.Fatalf("unexpected error: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("deadlock not resolved")
		}
	}
	if victims != 1 || grants != 2 {
		t.Errorf("victims = %d, grants = %d; want 1 and 2", victims, grants)
	}
}

// TestDeadlockThroughQueuedAhead closes a cycle only through a queued-ahead
// edge: t3's S on a is compatible with t1's S but queues behind t2's X, so
// t3 waits for t2 and not for t1. When t1 then waits for t3 on b, the cycle
// is t1 -> t3 -> t2 -> t1, and t3, its youngest member, is the victim.
func TestDeadlockThroughQueuedAhead(t *testing.T) {
	var infos []DeadlockInfo
	var mu sync.Mutex
	m := newMgr(t, Options{onDeadlock: func(i DeadlockInfo) {
		mu.Lock()
		infos = append(infos, i)
		mu.Unlock()
	}})
	t1, t2, t3 := m.Begin(), m.Begin(), m.Begin()
	if err := m.Lock(t1, "a", tS, false); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(t3, "b", tX, false); err != nil {
		t.Fatal(err)
	}
	// Each transaction releases its locks as soon as its request resolves.
	errs := make([]chan error, 3)
	request := func(i int, tx *Tx, res Resource, mode Mode) {
		errs[i] = make(chan error, 1)
		go func() {
			err := m.Lock(tx, res, mode, false)
			m.ReleaseAll(tx)
			errs[i] <- err
		}()
	}
	request(1, t2, "a", tX)
	waitForQueue(t, m, "a", 1)
	request(2, t3, "a", tS)
	waitForQueue(t, m, "a", 2)
	request(0, t1, "b", tS)
	for i, want := range []error{nil, nil, ErrDeadlockVictim} {
		select {
		case err := <-errs[i]:
			if !errors.Is(err, want) {
				t.Errorf("t%d: err = %v, want %v", i+1, err, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("t%d: deadlock not resolved", i+1)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(infos) != 1 {
		t.Fatalf("onDeadlock calls = %d", len(infos))
	}
	got := fmt.Sprint(infos[0].Victim, infos[0].Members, infos[0].Resources, infos[0].Conversion)
	want := fmt.Sprint(t3.ID(), []TxID{t1.ID(), t3.ID(), t2.ID()}, []Resource{"b", "a", "a"}, false)
	if got != want {
		t.Errorf("deadlock (victim members resources conversion) = %s, want %s", got, want)
	}
}

func TestTimeout(t *testing.T) {
	m := newMgr(t, Options{Timeout: 50 * time.Millisecond})
	t1, t2 := m.Begin(), m.Begin()
	m.Lock(t1, "n1", tX, false)
	start := time.Now()
	err := m.Lock(t2, "n1", tX, false)
	if !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("err = %v", err)
	}
	if d := time.Since(start); d < 40*time.Millisecond {
		t.Errorf("returned too early: %v", d)
	}
	if m.Stats().Timeouts != 1 {
		t.Errorf("Timeouts = %d", m.Stats().Timeouts)
	}
	m.ReleaseAll(t1)
	m.ReleaseAll(t2)
}

func TestShortRelease(t *testing.T) {
	m := newMgr(t, Options{})
	t1 := m.Begin()
	m.Lock(t1, "r-short", tS, true)
	m.Lock(t1, "r-long", tX, false)
	m.Lock(t1, "r-upgraded", tS, true)
	m.Lock(t1, "r-upgraded", tS, false) // long request upgrades duration
	m.ReleaseShort(t1)
	if m.HeldMode(t1, "r-short") != ModeNone {
		t.Error("short lock survived ReleaseShort")
	}
	if m.HeldMode(t1, "r-long") != tX {
		t.Error("long lock lost")
	}
	if m.HeldMode(t1, "r-upgraded") != tS {
		t.Error("duration-upgraded lock lost")
	}
	m.ReleaseAll(t1)
	if m.HeldCount(t1) != 0 {
		t.Error("locks survive ReleaseAll")
	}
}

func TestLockAfterDone(t *testing.T) {
	m := newMgr(t, Options{})
	t1 := m.Begin()
	m.ReleaseAll(t1)
	if err := m.Lock(t1, "n", tS, false); !errors.Is(err, ErrTxDone) {
		t.Errorf("err = %v", err)
	}
}

// TestTablesRecycledNotShared: a finished transaction's held map goes back to
// the manager and on to the next transaction. The finished one must have let
// go of it entirely — it sees nothing the successor locks, and releasing it a
// second time takes nothing away from the successor — and a transaction that
// held too many locks for its tables to be kept is released like any other.
func TestTablesRecycledNotShared(t *testing.T) {
	m := newMgr(t, Options{})
	for round := 0; round < 50; round++ { // the pool may hand out fresh tables now and then
		t1 := m.Begin()
		m.Lock(t1, "a", tS, false)
		m.Lock(t1, "b", tX, false)
		m.ReleaseAll(t1)
		t2 := m.Begin()
		if err := m.Lock(t2, "b", tX, false); err != nil {
			t.Fatal(err)
		}
		m.ReleaseAll(t1)
		if n, mode := m.HeldCount(t1), m.HeldMode(t1, "b"); n != 0 || mode != ModeNone {
			t.Fatalf("finished transaction holds %d locks, %v on its successor's resource", n, mode)
		}
		if n, mode := m.HeldCount(t2), m.HeldMode(t2, "b"); n != 1 || mode != tX {
			t.Fatalf("successor holds %d locks, %v on b, after the finished transaction was released again", n, mode)
		}
		m.ReleaseAll(t2)
	}
	big := m.Begin()
	for i := 0; i < 2*tablesKeep; i++ {
		if err := m.Lock(big, Resource(fmt.Sprintf("r%d", i)), tS, false); err != nil {
			t.Fatal(err)
		}
	}
	m.ReleaseAll(big)
	if err := m.LeakCheck(); err != nil {
		t.Fatal(err)
	}
}

func TestReleaseWakesQueue(t *testing.T) {
	m := newMgr(t, Options{})
	t1 := m.Begin()
	m.Lock(t1, "n", tX, false)
	const waiters = 5
	var wg sync.WaitGroup
	errs := make([]error, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tx := m.Begin()
			errs[i] = m.Lock(tx, "n", tS, false)
			m.ReleaseAll(tx)
		}(i)
	}
	waitForQueue(t, m, "n", waiters)
	m.ReleaseAll(t1)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("waiter %d: %v", i, err)
		}
	}
	if m.QueueLength("n") != 0 {
		t.Error("queue not drained")
	}
}

// TestStressInvariant hammers the manager with random lock patterns and
// verifies that no two transactions ever hold incompatible modes on the same
// resource simultaneously. The check runs over consistent Snapshots (taken
// with every partition mutex held) rather than recording grants after Lock
// returns: the test table is asymmetric (S admits U, U does not admit S), so
// a legal grant order observed out of order would look like a violation.
// With asymmetric compatibility the granted-group invariant is that every
// holder pair is compatible in at least one direction — the direction in
// which the later of the two was granted.
func TestStressInvariant(t *testing.T) {
	m := newMgr(t, Options{Timeout: 2 * time.Second})
	table := m.Table()
	const (
		goroutines = 16
		resources  = 8
		rounds     = 200
	)
	modeByName := map[string]Mode{}
	for mo := Mode(1); int(mo) < table.NumModes(); mo++ {
		modeByName[table.Name(mo)] = mo
	}
	checkSnapshot := func() {
		snap := m.Snapshot()
		for _, rs := range snap.Resources {
			for i := 0; i < len(rs.Holders); i++ {
				for j := i + 1; j < len(rs.Holders); j++ {
					a, b := modeByName[rs.Holders[i].Mode], modeByName[rs.Holders[j].Mode]
					if !table.Compatible(a, b) && !table.Compatible(b, a) {
						t.Errorf("incompatible holders on %s: tx%d %s vs tx%d %s",
							rs.Resource, rs.Holders[i].Tx, rs.Holders[i].Mode,
							rs.Holders[j].Tx, rs.Holders[j].Mode)
					}
				}
			}
		}
	}

	modes := []Mode{tIS, tIX, tS, tU, tX}
	stop := make(chan struct{})
	checkerDone := make(chan struct{})
	go func() {
		defer close(checkerDone)
		for {
			select {
			case <-stop:
				return
			default:
				checkSnapshot()
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for r := 0; r < rounds; r++ {
				tx := m.Begin()
				for i := 0; i < 1+rng.Intn(4); i++ {
					res := Resource(fmt.Sprintf("res-%d", rng.Intn(resources)))
					mode := modes[rng.Intn(len(modes))]
					if err := m.Lock(tx, res, mode, false); err != nil {
						break
					}
				}
				m.ReleaseAll(tx)
			}
		}(int64(g))
	}
	wg.Wait()
	close(stop)
	<-checkerDone
	checkSnapshot()
	if m.Stats().Timeouts > 0 {
		t.Errorf("stress run hit %d timeouts (likely lost wakeup)", m.Stats().Timeouts)
	}
}

// TestWideTableGrantsByMatrix runs a manager over a table of 49 modes, more
// than a 48-bit mode set could hold: the compatible ones share a resource
// and the last, exclusive mode waits for them and then blocks them.
func TestWideTableGrantsByMatrix(t *testing.T) {
	const n = 50 // ModeNone and 49 modes
	names := make([]string, n)
	compat := make([][]bool, n)
	conv := make([][]Mode, n)
	for i := range names {
		names[i] = fmt.Sprintf("m%d", i)
		compat[i] = make([]bool, n)
		conv[i] = make([]Mode, n)
		for j := range names {
			compat[i][j] = i > 0 && j > 0 && i < n-1 && j < n-1
			conv[i][j] = Mode(max(i, j))
		}
	}
	m := NewManager(NewTable(names, compat, conv), Options{})
	defer m.Close()
	excl := Mode(n - 1)
	shared := []*Tx{m.Begin(), m.Begin(), m.Begin()}
	for i, mode := range []Mode{1, 24, excl - 1} {
		if err := m.Lock(shared[i], "w", mode, false); err != nil {
			t.Fatalf("%s: %v", names[mode], err)
		}
	}
	x := m.Begin()
	got := make(chan error, 1)
	go func() { got <- m.Lock(x, "w", excl, false) }()
	waitForQueue(t, m, "w", 1)
	for _, tx := range shared {
		m.ReleaseAll(tx)
	}
	if err := <-got; err != nil || m.HeldMode(x, "w") != excl {
		t.Fatalf("exclusive request after the shared holders left: %v, holds %s", err, names[m.HeldMode(x, "w")])
	}
	late := m.Begin()
	go func() { got <- m.Lock(late, "w", excl-1, false) }()
	waitForQueue(t, m, "w", 1)
	m.ReleaseAll(x)
	if err := <-got; err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(late)
	if err := m.LeakCheck(); err != nil {
		t.Fatal(err)
	}
}

func TestTableValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-reflexive conversion must panic")
		}
	}()
	NewTable(
		[]string{"-", "A"},
		[][]bool{{false, false}, {false, true}},
		[][]Mode{{0, 1}, {0, 0}}, // Convert(A, A) == none: invalid
	)
}

func BenchmarkUncontendedLock(b *testing.B) {
	m := NewManager(testTable(), Options{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tx := m.Begin()
		m.Lock(tx, "r", tS, false)
		m.ReleaseAll(tx)
	}
}

func BenchmarkSharedLockFanout(b *testing.B) {
	m := NewManager(testTable(), Options{})
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			tx := m.Begin()
			m.Lock(tx, "hot", tS, false)
			m.ReleaseAll(tx)
		}
	})
}

func TestSnapshotAndRender(t *testing.T) {
	m := newMgr(t, Options{})
	t1, t2, t3 := m.Begin(), m.Begin(), m.Begin()
	m.Lock(t1, "res-a", tS, false)
	m.Lock(t1, "res-b", tS, true)
	go m.Lock(t2, "res-a", tX, false)
	waitForQueue(t, m, "res-a", 1)
	// t3's S is compatible with t1's S but queues behind t2's X.
	go m.Lock(t3, "res-a", tS, false)
	waitForQueue(t, m, "res-a", 2)

	snap := m.Snapshot()
	if len(snap.Resources) != 2 {
		t.Fatalf("resources = %d", len(snap.Resources))
	}
	var resA *ResourceState
	for i := range snap.Resources {
		if snap.Resources[i].Resource == "res-a" {
			resA = &snap.Resources[i]
		}
	}
	if resA == nil || len(resA.Holders) != 1 || len(resA.Waiters) != 2 {
		t.Fatalf("res-a state = %+v", resA)
	}
	if resA.Holders[0].Tx != t1.ID() || resA.Holders[0].Mode != "S" {
		t.Errorf("holder = %+v", resA.Holders[0])
	}
	if w := resA.Waiters; w[0].Tx != t2.ID() || w[0].Mode != "X" || w[0].Conversion ||
		w[1].Tx != t3.ID() || w[1].Mode != "S" || w[1].Conversion {
		t.Errorf("waiters = %+v", w)
	}
	// The wait-for graph is exactly t2 -> t1 (incompatible holder) and
	// t3 -> t2 (queued ahead); t3 does not wait for t1, whose S it shares.
	want := []WaitEdge{{From: t2.ID(), To: t1.ID()}, {From: t3.ID(), To: t2.ID()}}
	if len(snap.WaitFor) != len(want) || snap.WaitFor[0] != want[0] || snap.WaitFor[1] != want[1] {
		t.Errorf("wait-for = %+v, want %+v", snap.WaitFor, want)
	}
	var buf bytes.Buffer
	snap.Render(&buf)
	out := buf.String()
	for _, frag := range []string{"res-a", "held(tx1 S)", "wait(tx2 X)", "wait(tx3 S)", "tx2 -> tx1", "tx3 -> tx2", "short"} {
		if !strings.Contains(out, frag) {
			t.Errorf("render missing %q:\n%s", frag, out)
		}
	}
	if m.ActiveResources() != 2 {
		t.Errorf("ActiveResources = %d", m.ActiveResources())
	}
	m.ReleaseAll(t1)
	m.ReleaseAll(t2)
	m.ReleaseAll(t3)
	if m.ActiveResources() != 0 {
		t.Error("resources should be garbage-collected after release")
	}
}
