package tx

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/lock"
	"repro/internal/metrics"
	"repro/internal/wal"
)

const (
	mS lock.Mode = iota + 1
	mX
)

func simpleTable() *lock.Table {
	y, n := true, false
	return lock.NewTable(
		[]string{"-", "S", "X"},
		[][]bool{{n, n, n}, {n, y, n}, {n, n, n}},
		[][]lock.Mode{{0, mS, mX}, {0, mS, mX}, {0, mX, mX}},
	)
}

func newMgr() *Manager {
	return NewManager(lock.NewManager(simpleTable(), lock.Options{}))
}

func TestCommitReleasesLocks(t *testing.T) {
	m := newMgr()
	reg := metrics.NewRegistry()
	m.SetMetrics(reg)
	t1 := m.Begin(LevelRepeatable)
	if err := m.LockManager().Lock(t1.LockTx(), "n", mX, false); err != nil {
		t.Fatal(err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if t1.Status() != StatusCommitted {
		t.Error("status should be committed")
	}
	// A second transaction can take the lock immediately.
	t2 := m.Begin(LevelRepeatable)
	if err := m.LockManager().Lock(t2.LockTx(), "n", mX, false); err != nil {
		t.Fatal(err)
	}
	t2.Commit()
	st := reg.Snapshot()
	if st.CounterValue("tx.begun") != 2 || st.CounterValue("tx.committed") != 2 || st.CounterValue("tx.aborted") != 0 {
		t.Errorf("stats %+v", st.Counters)
	}
}

// recorder is a recording undo applier: it notes every payload Abort hands
// it, in order, and fails the ones listed in fail.
type recorder struct {
	txns     []uint64
	payloads []string
	fail     map[string]error
}

func (r *recorder) apply(txn uint64, payload []byte) error {
	r.txns = append(r.txns, txn)
	r.payloads = append(r.payloads, string(payload))
	return r.fail[string(payload)]
}

// newRecordedMgr returns a manager whose aborts replay into the recorder.
func newRecordedMgr(fail map[string]error) (*Manager, *recorder) {
	m, r := newMgr(), &recorder{fail: fail}
	m.SetUndoApplier(r.apply)
	return m, r
}

func TestAbortReplaysUndoInReverse(t *testing.T) {
	m, rec := newRecordedMgr(nil)
	t1 := m.Begin(LevelRepeatable)
	for _, p := range []string{"one", "two", "three"} {
		t1.LogUndo([]byte(p))
	}
	if err := t1.Abort(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(rec.payloads, ","); got != "three,two,one" {
		t.Errorf("undo order = %s", got)
	}
	for _, id := range rec.txns {
		if id != t1.ID() {
			t.Errorf("payload applied for transaction %d, want %d", id, t1.ID())
		}
	}
	if t1.Status() != StatusAborted {
		t.Error("status should be aborted")
	}
}

func TestAbortReportsUndoErrorButReleases(t *testing.T) {
	sentinel := errors.New("undo failed")
	m, rec := newRecordedMgr(map[string]error{"second": sentinel})
	t1 := m.Begin(LevelRepeatable)
	m.LockManager().Lock(t1.LockTx(), "n", mX, false)
	t1.LogUndo([]byte("first"))
	t1.LogUndo([]byte("second"))
	err := t1.Abort()
	if !errors.Is(err, sentinel) {
		t.Errorf("err = %v", err)
	}
	if len(rec.payloads) != 2 {
		t.Errorf("all undo payloads must be applied, got %v", rec.payloads)
	}
	// Locks were released despite the undo error.
	t2 := m.Begin(LevelRepeatable)
	if err := m.LockManager().Lock(t2.LockTx(), "n", mX, false); err != nil {
		t.Fatal(err)
	}
	t2.Commit()
}

func TestAbortAggregatesAllUndoErrors(t *testing.T) {
	errA := errors.New("undo A failed")
	errB := errors.New("undo B failed")
	m, rec := newRecordedMgr(map[string]error{"a": errA, "b": errB})
	t1 := m.Begin(LevelRepeatable)
	m.LockManager().Lock(t1.LockTx(), "n", mX, false)
	for _, p := range []string{"a", "fine", "b"} {
		t1.LogUndo([]byte(p))
	}
	err := t1.Abort()
	if len(rec.payloads) != 3 {
		t.Fatalf("all undo payloads must be applied, got %v", rec.payloads)
	}
	// errors.Join keeps every failure reachable, not just the first.
	if !errors.Is(err, errA) {
		t.Errorf("aggregated error lost errA: %v", err)
	}
	if !errors.Is(err, errB) {
		t.Errorf("aggregated error lost errB: %v", err)
	}
	// Locks were still released.
	t2 := m.Begin(LevelRepeatable)
	if err := m.LockManager().Lock(t2.LockTx(), "n", mX, false); err != nil {
		t.Fatal(err)
	}
	t2.Commit()
	if err := m.LockManager().LeakCheck(); err != nil {
		t.Errorf("leak audit after failed undo: %v", err)
	}
}

func TestCommitClearsUndo(t *testing.T) {
	m, rec := newRecordedMgr(nil)
	t1 := m.Begin(LevelRepeatable)
	t1.LogUndo([]byte("never"))
	t1.Commit()
	if err := t1.Abort(); !errors.Is(err, ErrTxnDone) {
		t.Errorf("abort after commit: %v", err)
	}
	if len(rec.payloads) != 0 {
		t.Errorf("undo must not run on or after commit, applied %v", rec.payloads)
	}
}

func TestDoubleFinish(t *testing.T) {
	m := newMgr()
	t1 := m.Begin(LevelRepeatable)
	t1.Commit()
	if err := t1.Commit(); !errors.Is(err, ErrTxnDone) {
		t.Errorf("second commit: %v", err)
	}
	if err := t1.Abort(); !errors.Is(err, ErrTxnDone) {
		t.Errorf("abort after commit: %v", err)
	}
}

func TestLevelNoneHasNoLockTx(t *testing.T) {
	m := newMgr()
	t1 := m.Begin(LevelNone)
	if t1.LockTx() != nil {
		t.Error("none-level transaction should not register with the lock manager")
	}
	t1.EndOperation() // must not panic
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestEndOperationReleasesShortLocks(t *testing.T) {
	m := newMgr()
	lm := m.LockManager()
	t1 := m.Begin(LevelCommitted)
	lm.Lock(t1.LockTx(), "read", mS, true)
	lm.Lock(t1.LockTx(), "write", mX, false)
	t1.EndOperation()
	if lm.HeldMode(t1.LockTx(), "read") != lock.ModeNone {
		t.Error("short read lock should be gone after EndOperation")
	}
	if lm.HeldMode(t1.LockTx(), "write") != mX {
		t.Error("long write lock must survive EndOperation")
	}
	t1.Commit()
}

// TestLongLockCachedAcrossOperations pins the lock cache's lifecycle at the
// transaction layer: a long lock still answers re-requests from the cache
// after EndOperation drops the short ones, and after Abort the same request
// is refused, not answered from the cache.
func TestLongLockCachedAcrossOperations(t *testing.T) {
	m := newMgr()
	lm := m.LockManager()
	t1 := m.Begin(LevelCommitted)
	ltx := t1.LockTx()
	if err := lm.Lock(ltx, "write", mX, false); err != nil {
		t.Fatal(err)
	}
	if err := lm.Lock(ltx, "read", mS, true); err != nil {
		t.Fatal(err)
	}
	t1.EndOperation()
	before := lm.Stats()
	if err := lm.Lock(ltx, "write", mS, false); err != nil {
		t.Fatal(err)
	}
	after := lm.Stats()
	if after.CacheHits != before.CacheHits+1 || after.Requests != before.Requests+1 {
		t.Fatalf("cache hits %d -> %d, requests %d -> %d; want one more of each",
			before.CacheHits, after.CacheHits, before.Requests, after.Requests)
	}
	t1.Abort()
	if err := lm.Lock(ltx, "write", mS, false); !errors.Is(err, lock.ErrTxDone) {
		t.Fatalf("re-request after Abort: %v, want lock.ErrTxDone", err)
	}
}

func TestEndOperationNoopForRepeatable(t *testing.T) {
	m := newMgr()
	lm := m.LockManager()
	t1 := m.Begin(LevelRepeatable)
	lm.Lock(t1.LockTx(), "read", mS, true)
	t1.EndOperation()
	if lm.HeldMode(t1.LockTx(), "read") != mS {
		t.Error("repeatable read must keep read locks to commit")
	}
	t1.Commit()
}

func TestErrTxnDoneBothOrderings(t *testing.T) {
	m := newMgr()

	// Commit first, then every further finish fails with ErrTxnDone.
	t1 := m.Begin(LevelRepeatable)
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := t1.Abort(); !errors.Is(err, ErrTxnDone) {
		t.Errorf("Abort after Commit = %v, want ErrTxnDone", err)
	}
	if err := t1.Commit(); !errors.Is(err, ErrTxnDone) {
		t.Errorf("Commit after Commit = %v, want ErrTxnDone", err)
	}
	if t1.Status() != StatusCommitted {
		t.Errorf("status = %v after rejected finishes, want committed", t1.Status())
	}

	// Abort first, then every further finish fails with ErrTxnDone.
	t2 := m.Begin(LevelRepeatable)
	if err := t2.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(); !errors.Is(err, ErrTxnDone) {
		t.Errorf("Commit after Abort = %v, want ErrTxnDone", err)
	}
	if err := t2.Abort(); !errors.Is(err, ErrTxnDone) {
		t.Errorf("Abort after Abort = %v, want ErrTxnDone", err)
	}
	if t2.Status() != StatusAborted {
		t.Errorf("status = %v after rejected finishes, want aborted", t2.Status())
	}
}

func TestCommitForcesWALAndSurvivesLogCrash(t *testing.T) {
	m, rec := newRecordedMgr(nil)
	segs := wal.NewMemSegmentStore()
	log, err := wal.Open(segs, wal.Config{})
	if err != nil {
		t.Fatal(err)
	}
	m.SetWAL(log)

	// A committed transaction's commit record is durable immediately. The
	// transaction must log work first: read-only commits write no record.
	t1 := m.Begin(LevelRepeatable)
	if _, err := log.Append(wal.RecOp, t1.ID(), []byte("op")); err != nil {
		t.Fatal(err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	var types []byte
	var txns []uint64
	if err := log.Scan(func(r wal.Record) error {
		types = append(types, r.Type)
		txns = append(txns, r.Txn)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(types) != 2 || types[1] != wal.RecCommit || txns[1] != t1.ID() {
		t.Fatalf("log after commit: types %v txns %v", types, txns)
	}

	// With a crashed log, a writer's Commit must fail and the transaction
	// must STAY ACTIVE so the caller can still roll it back. The op record
	// lands before the crash so the transaction owes a commit record.
	t2 := m.Begin(LevelRepeatable)
	if _, err := log.Append(wal.RecOp, t2.ID(), []byte("op")); err != nil {
		t.Fatal(err)
	}
	log.CrashNow()

	// A read-only transaction has nothing to make durable: its commit must
	// succeed even on a crashed log.
	ro := m.Begin(LevelRepeatable)
	if err := ro.Commit(); err != nil {
		t.Fatalf("read-only commit on crashed log = %v, want nil", err)
	}

	if err := t2.Commit(); !errors.Is(err, wal.ErrCrashed) {
		t.Fatalf("commit on crashed log = %v, want ErrCrashed", err)
	}
	if t2.Status() != StatusActive {
		t.Fatalf("status = %v after failed commit, want active", t2.Status())
	}
	t2.LogUndo([]byte("op"))
	if err := t2.Abort(); err != nil {
		t.Fatalf("abort after failed commit: %v", err)
	}
	if len(rec.payloads) != 1 {
		t.Error("undo did not run on abort after failed commit")
	}
}

func TestAbortAppendsEndRecord(t *testing.T) {
	m := newMgr()
	segs := wal.NewMemSegmentStore()
	log, err := wal.Open(segs, wal.Config{})
	if err != nil {
		t.Fatal(err)
	}
	m.SetWAL(log)
	// An aborted transaction WITH logged work owes the log an end record; a
	// read-only one owes nothing (recovery never saw it).
	t1 := m.Begin(LevelRepeatable)
	if _, err := log.Append(wal.RecOp, t1.ID(), []byte("op")); err != nil {
		t.Fatal(err)
	}
	if err := t1.Abort(); err != nil {
		t.Fatal(err)
	}
	t2 := m.Begin(LevelRepeatable)
	if err := t2.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	log2, err := wal.Open(segs, wal.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	found := false
	if err := log2.Scan(func(r wal.Record) error {
		if r.Type == wal.RecEnd && r.Txn == t1.ID() {
			found = true
		}
		if r.Txn == t2.ID() {
			t.Errorf("read-only aborted transaction left a %d record in the log", r.Type)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Error("no end record for the aborted transaction")
	}
}
