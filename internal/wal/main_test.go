// TestMain for the wal black-box suite: crash-matrix tests that need disk
// (file-backed segment stores) allocate scratch directories through
// crashScratch, and after the run TestMain asserts none were orphaned. A
// crash-test suite that leaks directories is quietly eating disk on every
// CI run — fail loudly instead.
package wal_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// scratchRoot holds every crash-matrix scratch directory for this process.
var scratchRoot string

// crashScratch returns a fresh scratch directory under the managed root.
// Tests clean up via t.Cleanup like t.TempDir, but the root is audited by
// TestMain, so a missed or failed cleanup fails the whole run instead of
// lingering.
func crashScratch(t *testing.T) string {
	t.Helper()
	dir, err := os.MkdirTemp(scratchRoot, "burst-*")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.RemoveAll(dir); err != nil {
			t.Errorf("cleaning scratch dir %s: %v", dir, err)
		}
	})
	return dir
}

func TestMain(m *testing.M) {
	// Stale roots from previous crashed runs are orphans too: report them,
	// then clear them so one crashed run does not poison every later one. A
	// root touched in the last ten minutes belongs to a live process — under
	// -fuzz the workers run this TestMain beside the coordinator's.
	stale, _ := filepath.Glob(filepath.Join(os.TempDir(), "walcrashmatrix-*"))
	for _, d := range stale {
		if fi, err := os.Stat(d); err != nil || time.Since(fi.ModTime()) < 10*time.Minute {
			continue
		}
		fmt.Fprintf(os.Stderr, "wal: removing orphan scratch root from a previous run: %s\n", d)
		os.RemoveAll(d)
	}

	var err error
	scratchRoot, err = os.MkdirTemp("", "walcrashmatrix-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, "wal: creating scratch root:", err)
		os.Exit(1)
	}

	code := m.Run()

	orphans, err := os.ReadDir(scratchRoot)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wal: auditing scratch root:", err)
		os.Exit(1)
	}
	if len(orphans) > 0 {
		fmt.Fprintf(os.Stderr, "wal: FAIL: %d orphan scratch dir(s) left by the crash matrix:\n", len(orphans))
		for _, e := range orphans {
			fmt.Fprintf(os.Stderr, "  %s\n", filepath.Join(scratchRoot, e.Name()))
		}
		os.RemoveAll(scratchRoot)
		os.Exit(1)
	}
	os.RemoveAll(scratchRoot)
	os.Exit(code)
}
