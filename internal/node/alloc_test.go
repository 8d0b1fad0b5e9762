//go:build !race

// Allocation-regression guard for warm, locked reads. The race detector
// changes allocation behaviour, so this runs only in the non-race suite (make
// verify runs both).

package node

import (
	"testing"

	"repro/internal/tx"
)

// TestAllocWarmLockedRead pins what a read costs once its transaction holds
// the locks (every request answered by the lock cache) under taDOM3+ at lock
// depth 7. A label is its key and its lock resource name, so a warm GetNode
// allocates only the ancestor slice of its lock path (measured 1; 6 before
// PR 21, with a division slice per label and a name per lock), and a warm
// GetChildren of a history with one child its lock pass's list and label,
// the path, and the result and its label (measured 5; 15 before PR 21).
func TestAllocWarmLockedRead(t *testing.T) {
	m := newLibrary(t, "taDOM3+", 7)
	defer m.Close()
	txn := m.Begin(tx.LevelRepeatable)
	defer txn.Commit()
	book, err := m.JumpToID(txn, "b-1-2")
	if err != nil {
		t.Fatal(err)
	}
	history, err := m.LastChild(txn, book.ID)
	if err != nil {
		t.Fatal(err)
	}
	lends, err := m.GetChildren(txn, history.ID)
	if err != nil || len(lends) != 1 || lends[0].ID.Level() != 6 {
		t.Fatalf("fixture: history %v has %d lends, %v", history.ID, len(lends), err)
	}
	lend := lends[0].ID
	for _, c := range []struct {
		name string
		max  float64
		read func() error
	}{
		{"GetNode(level 6)", 1, func() error { _, err := m.GetNode(txn, lend); return err }},
		{"GetChildren(history)", 7, func() error { _, err := m.GetChildren(txn, history.ID); return err }},
	} {
		if err := c.read(); err != nil { // warm: the locks are held
			t.Fatal(err)
		}
		if avg := testing.AllocsPerRun(200, func() {
			if err := c.read(); err != nil {
				t.Fatal(err)
			}
		}); avg > c.max {
			t.Errorf("warm %s allocates %.1f times, want at most %.0f", c.name, avg, c.max)
		}
	}
}
