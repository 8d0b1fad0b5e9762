package node

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/storage"
	"repro/internal/tx"
)

// TestLevelReadMeetsHalfDeletedSubtree reproduces the "storage: node not
// found" that a lend/return program logged at repeatable read and that bench
// counted as node.vanished_ratio (0.0004 on local_mix): two workers (seeds 1
// and 2) run TAlendAndReturn alone under taDOM3+ at lock depth 7, and about
// one GetChildren in 400 failed. It was not the caller's race and no lock was
// missing: every failure came from lockLevel's pass over the child list,
// which runs *before* the level lock is held (it reads the labels the lock
// must name) and is latch-free against the other worker's DeleteSubtree — a
// lend's keys go one by one, root first, so the walk found descendants whose
// root was gone. storage.reader.children now skips such a child, as LastChild
// does, and the level read looks again after the lock (relockLevel).
func TestLevelReadMeetsHalfDeletedSubtree(t *testing.T) {
	m := newLibrary(t, "taDOM3+", 7)
	defer m.Close()
	var wg sync.WaitGroup
	for seed := int64(1); seed <= 2; seed++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 20000; i++ {
				txn := m.Begin(tx.LevelRepeatable)
				op, err := lendOrReturn(m, txn, rng)
				if errors.Is(err, storage.ErrNodeNotFound) {
					t.Errorf("seed %d, transaction %d: %s: %v", seed, i, op, err)
				}
				if err != nil {
					txn.Abort()
					continue
				}
				txn.Commit()
			}
		}(seed)
	}
	wg.Wait()
}

// lendOrReturn is TAlendAndReturn on one of newLibrary's six books; it names
// the operation that failed.
func lendOrReturn(m *Manager, txn *tx.Txn, rng *rand.Rand) (string, error) {
	book, err := m.JumpToID(txn, fmt.Sprintf("b-%d-%d", rng.Intn(2), rng.Intn(3)))
	if err != nil {
		return "JumpToID", err
	}
	history, err := m.LastChild(txn, book.ID)
	if err != nil {
		return "LastChild", err
	}
	lends, err := m.GetChildren(txn, history.ID)
	if err != nil {
		return "GetChildren", err
	}
	if len(lends) <= 1 || rng.Intn(2) == 0 {
		lend, err := m.AppendElement(txn, history.ID, "lend")
		if err != nil {
			return "AppendElement", err
		}
		return "SetAttribute", m.SetAttribute(txn, lend.ID, "person", []byte("p-2"))
	}
	return "DeleteSubtree", m.DeleteSubtree(txn, lends[rng.Intn(len(lends))].ID)
}
