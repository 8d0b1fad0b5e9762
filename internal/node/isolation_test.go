package node

import (
	"testing"
	"time"

	"repro/internal/protocol"
	"repro/internal/tx"
)

// Isolation anomaly tests (footnote 5 of the paper): each level permits
// exactly the anomalies above it and prevents the ones below.

// TestIsolationLevelsControlLocking pins the isolation rule where it lives
// (Manager.Do's lockPlan), under every protocol: which operations lock at
// all at each of the four levels, and which locks survive the operation.
func TestIsolationLevelsControlLocking(t *testing.T) {
	for _, name := range protocol.Names() {
		m := newLibrary(t, name, -1)
		lm := m.LockManager()
		book, _ := m.Document().ElementByID([]byte("b-0-0"))
		title, _ := m.Document().FirstChild(book)
		text, _ := m.Document().FirstChild(title.ID)
		requests := func() uint64 { return lm.Stats().Requests }

		// Level none: no locks at all, reading or writing.
		r0 := requests()
		t0 := m.Begin(tx.LevelNone)
		if _, err := m.ReadFragment(t0, book, false); err != nil {
			t.Errorf("%s/none: %v", name, err)
		}
		if err := m.SetValue(t0, text.ID, []byte("none")); err != nil {
			t.Errorf("%s/none: %v", name, err)
		}
		if n := requests() - r0; n != 0 {
			t.Errorf("%s/none issued %d lock requests", name, n)
		}
		t0.Commit()

		// Uncommitted: reads lock nothing — declared update intent included,
		// UpdateTree follows the read rule — writes take long locks.
		t1 := m.Begin(tx.LevelUncommitted)
		r1 := requests()
		if _, err := m.ReadFragment(t1, book, false); err != nil {
			t.Errorf("%s/uncommitted: %v", name, err)
		}
		if _, err := m.GetChildren(t1, book); err != nil {
			t.Errorf("%s/uncommitted: %v", name, err)
		}
		if _, err := m.ReadFragmentForUpdate(t1, book, false); err != nil {
			t.Errorf("%s/uncommitted: %v", name, err)
		}
		if _, _, err := m.UpdateLastChildFragment(t1, book); err != nil {
			t.Errorf("%s/uncommitted: %v", name, err)
		}
		if n := requests() - r1; n != 0 {
			t.Errorf("%s/uncommitted reads issued %d lock requests", name, n)
		}
		if err := m.SetValue(t1, text.ID, []byte("uncommitted")); err != nil {
			t.Errorf("%s/uncommitted: %v", name, err)
		}
		if n := lm.HeldCount(t1.LockTx()); n == 0 {
			t.Errorf("%s/uncommitted dropped its write locks at operation end", name)
		}
		t1.Commit()

		// Committed: read locks are taken but released at operation end;
		// write locks are held to commit.
		t2 := m.Begin(tx.LevelCommitted)
		r2 := requests()
		if _, err := m.ReadFragment(t2, book, false); err != nil {
			t.Errorf("%s/committed: %v", name, err)
		}
		if _, err := m.ReadFragmentForUpdate(t2, book, false); err != nil {
			t.Errorf("%s/committed: %v", name, err)
		}
		if requests() == r2 {
			t.Errorf("%s/committed reads issued no lock request", name)
		}
		if n := lm.HeldCount(t2.LockTx()); n != 0 {
			t.Errorf("%s/committed kept %d read locks after the operation", name, n)
		}
		if err := m.SetValue(t2, text.ID, []byte("committed")); err != nil {
			t.Errorf("%s/committed: %v", name, err)
		}
		if n := lm.HeldCount(t2.LockTx()); n == 0 {
			t.Errorf("%s/committed dropped its write locks at operation end", name)
		}
		t2.Commit()

		// Repeatable: read locks survive until commit.
		t3 := m.Begin(tx.LevelRepeatable)
		if _, err := m.GetNode(t3, text.ID); err != nil {
			t.Errorf("%s/repeatable: %v", name, err)
		}
		if n := lm.HeldCount(t3.LockTx()); n == 0 {
			t.Errorf("%s/repeatable dropped read locks at operation end", name)
		}
		t3.Commit()
		if err := m.Audit(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		m.Close()
	}
}

func TestDirtyReadOnlyUnderUncommitted(t *testing.T) {
	m := newLibrary(t, "taDOM3+", -1)
	book, _ := m.Document().ElementByID([]byte("b-0-0"))
	title, _ := m.Document().FirstChild(book)
	text, _ := m.Document().FirstChild(title.ID)

	writer := m.Begin(tx.LevelRepeatable)
	jb, err := m.JumpToID(writer, "b-0-0")
	if err != nil || jb.ID.IsNull() {
		t.Fatal(err)
	}
	if err := m.SetValue(writer, text.ID, []byte("uncommitted-value")); err != nil {
		t.Fatal(err)
	}

	// Uncommitted read: sees the dirty value without blocking.
	dirty := m.Begin(tx.LevelUncommitted)
	v, err := m.Value(dirty, text.ID)
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "uncommitted-value" {
		t.Errorf("uncommitted read = %q", v)
	}
	dirty.Commit()

	// Committed read: blocks on the writer's long X lock (observed as a
	// timeout with a short lock timeout).
	committed := m.Begin(tx.LevelCommitted)
	if _, err := m.Value(committed, text.ID); !IsAbortWorthy(err) {
		t.Errorf("committed read under a dirty write: %v", err)
	}
	committed.Abort()
	writer.Abort()
}

func TestNonRepeatableReadUnderCommitted(t *testing.T) {
	m := newLibrary(t, "taDOM3+", -1)
	book, _ := m.Document().ElementByID([]byte("b-0-0"))
	title, _ := m.Document().FirstChild(book)
	text, _ := m.Document().FirstChild(title.ID)

	// Committed-level reader: its read lock is released at operation end,
	// so a writer can change the value between two reads — the
	// non-repeatable read anomaly the level admits.
	reader := m.Begin(tx.LevelCommitted)
	v1, err := m.Value(reader, text.ID)
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		writer := m.Begin(tx.LevelRepeatable)
		if err := m.SetValue(writer, text.ID, []byte("changed-between-reads")); err != nil {
			writer.Abort()
			done <- err
			return
		}
		done <- writer.Commit()
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("writer blocked although the committed-level read lock should be gone")
	}

	v2, err := m.Value(reader, text.ID)
	if err != nil {
		t.Fatal(err)
	}
	if string(v1) == string(v2) {
		t.Errorf("expected a non-repeatable read, got %q twice", v1)
	}
	reader.Commit()
}

func TestRepeatableReadHasNoAnomaly(t *testing.T) {
	m := newLibrary(t, "taDOM3+", -1)
	book, _ := m.Document().ElementByID([]byte("b-0-0"))
	title, _ := m.Document().FirstChild(book)
	text, _ := m.Document().FirstChild(title.ID)

	reader := m.Begin(tx.LevelRepeatable)
	v1, err := m.Value(reader, text.ID)
	if err != nil {
		t.Fatal(err)
	}
	// A concurrent writer cannot intervene.
	writer := m.Begin(tx.LevelRepeatable)
	if err := m.SetValue(writer, text.ID, []byte("never-lands")); !IsAbortWorthy(err) {
		t.Fatalf("writer error = %v", err)
	}
	writer.Abort()
	v2, err := m.Value(reader, text.ID)
	if err != nil {
		t.Fatal(err)
	}
	if string(v1) != string(v2) {
		t.Errorf("repeatable read broke: %q -> %q", v1, v2)
	}
	reader.Commit()
}
