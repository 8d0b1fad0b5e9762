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
// PR 21, with a division slice per label and a name per lock). A level read
// under taDOM3+ reads no list before its lock, so a warm GetChildren of a
// history with one child measured 3 (5 with the lock pass's list and label,
// 15 before PR 21), and a warm GetAttributes of a book 4 (6 with the lock
// pass). One more is a cursor moved to the heap: a walk that hands its cursor
// to a callback lets it escape.
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
		{"GetChildren(history)", 3, func() error { _, err := m.GetChildren(txn, history.ID); return err }},
		{"GetAttributes(book)", 4, func() error { _, err := m.GetAttributes(txn, book.ID); return err }},
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
