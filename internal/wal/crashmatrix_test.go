// Crash-matrix: seeded end-to-end crash/recovery sweeps over the whole
// stack (tamix burst -> wal crash -> storage recovery). The test lives in
// the wal package's black-box suite because the log's crash semantics are
// the contract under test; it drives them through the real document and
// transaction layers rather than through synthetic records.
package wal_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/storage"
	"repro/internal/tamix"
	"repro/internal/wal"
)

// recoverAndAudit opens an engine over a burst's residue — which restarts it
// — and audits the result against the workers' knowledge.
func recoverAndAudit(t *testing.T, out *tamix.CrashOutcome) *storage.RecoveryReport {
	t.Helper()
	eng, err := core.Open(out.Backend, out.Segments, core.Config{BufferFrames: out.Opts.BufferFrames})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer eng.Close()
	rep := eng.Recovery()
	if err := tamix.AuditRecovered(eng.Manager().Document(), out.Expected(rep)); err != nil {
		t.Errorf("audit (commits %d, aborts %d, pending %d, losers %v): %v",
			out.CommittedTxns, out.AbortedTxns, out.PendingTxns, rep.Losers, err)
	}
	return rep
}

// crashAt plans one crash: the nth occurrence of site, torn if it is a page
// write.
func crashAt(site fault.Site, n int) *fault.Plan {
	return &fault.Plan{Schedule: []fault.Fault{{Site: site, N: uint64(n), Permanent: true, Torn: site == fault.PageWrite}}}
}

// burst runs one crash burst and fails the row unless every fault its plan
// schedules fired: a crash that never happens tests nothing.
func burst(t *testing.T, cfg tamix.CrashConfig) *tamix.CrashOutcome {
	t.Helper()
	out, err := tamix.CrashBurst(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range cfg.Faults.Schedule {
		if cfg.Faults.Fired(f.Site) == 0 {
			t.Fatalf("the planned %s fault #%d never fired (%d occurrences)", f.Site, f.N, cfg.Faults.Seen(f.Site))
		}
	}
	return out
}

// TestCrashMatrixLogCrash sweeps seeds over log-side crashes: the log
// crashes at a seed-dependent append, mid-burst, and pending (unsynced)
// records are dropped like a power failure would.
func TestCrashMatrixLogCrash(t *testing.T) {
	seeds := 30
	if testing.Short() {
		seeds = 8
	}
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			out := burst(t, tamix.CrashConfig{
				Seed:   int64(seed),
				Faults: crashAt(fault.LogAppend, 20+seed*13%160),
			})
			rep := recoverAndAudit(t, out)
			if out.CommittedTxns > 0 && len(rep.Committed) == 0 {
				t.Errorf("%d commits acknowledged but none in the log", out.CommittedTxns)
			}
		})
	}
}

// TestCrashMatrixTornWriteback sweeps seeds over storage-side crashes: a
// seed-dependent write-back is torn mid-page and fails permanently, the
// observing worker hard-stops the log, and recovery must heal the torn
// page from its logged full image.
func TestCrashMatrixTornWriteback(t *testing.T) {
	seeds := 24
	if testing.Short() {
		seeds = 6
	}
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			out := burst(t, tamix.CrashConfig{
				Seed:   int64(1000 + seed),
				Faults: crashAt(fault.PageWrite, 1+seed%12),
			})
			recoverAndAudit(t, out)
		})
	}
}

// TestCrashMatrixCheckpointedBurst sweeps seeds over bursts that take fuzzy
// checkpoints (and GC segments) while running, then suffer an ordinary
// log-side crash. Recovery must start from the surviving checkpoint and the
// truncated log must still hold everything it needs.
func TestCrashMatrixCheckpointedBurst(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			out := burst(t, tamix.CrashConfig{
				Seed:            int64(2000 + seed),
				CheckpointEvery: 3 + seed%4,
				Faults:          crashAt(fault.LogAppend, 60+seed*17%200),
			})
			rep := recoverAndAudit(t, out)
			if out.LogStats.Checkpoints > 0 && rep.CheckpointLSN == 0 {
				t.Errorf("burst took %d checkpoints but recovery scanned from LSN 0",
					out.LogStats.Checkpoints)
			}
		})
	}
}

// TestCrashMatrixMidCheckpoint crashes during a seed-dependent checkpoint,
// after the checkpoint record is forced but before the master pointer moves
// (phase 1). The master still names the previous checkpoint (or none), and
// recovery from that older anchor must stay correct.
func TestCrashMatrixMidCheckpoint(t *testing.T) {
	seeds := 8
	if testing.Short() {
		seeds = 3
	}
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			out := burst(t, tamix.CrashConfig{
				Seed:            int64(3000 + seed),
				CheckpointEvery: 2 + seed%3,
				Faults:          crashAt(fault.CkptForced, 1+seed%5),
			})
			recoverAndAudit(t, out)
		})
	}
}

// TestCrashMatrixMasterBeforeGC crashes between the master-pointer update
// and segment GC (phase 2): the new checkpoint is authoritative but every
// pre-checkpoint segment is still on disk. Recovery must anchor at the new
// checkpoint and ignore the un-collected garbage.
func TestCrashMatrixMasterBeforeGC(t *testing.T) {
	seeds := 8
	if testing.Short() {
		seeds = 3
	}
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			out := burst(t, tamix.CrashConfig{
				Seed:            int64(4000 + seed),
				CheckpointEvery: 2 + seed%3,
				Faults:          crashAt(fault.CkptMaster, 2+seed%5),
			})
			rep := recoverAndAudit(t, out)
			if out.LogStats.CheckpointLSN != 0 && rep.CheckpointLSN != out.LogStats.CheckpointLSN {
				t.Errorf("recovery anchored at LSN %d, want the durable master's %d",
					rep.CheckpointLSN, out.LogStats.CheckpointLSN)
			}
		})
	}
}

// TestCrashMatrixDuringGC crashes mid segment GC (phase 3), after a
// seed-dependent segment removal: the master already points past the
// removed segments, some removable segments are gone and some linger. Oldest-first removal keeps the survivors
// contiguous, so reopening must re-anchor and recover cleanly.
func TestCrashMatrixDuringGC(t *testing.T) {
	seeds := 8
	if testing.Short() {
		seeds = 3
	}
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			out := burst(t, tamix.CrashConfig{
				Seed:            int64(6000 + seed),
				CheckpointEvery: 2 + seed%3,
				SegmentSize:     8 << 10, // small segments so GC has work
				Faults:          crashAt(fault.CkptGC, 2+seed%6),
			})
			recoverAndAudit(t, out)
		})
	}
}

// copyToDisk mirrors a crashed in-memory segment store (segments plus
// master record) into a file-backed store, reproducing the burst's residue
// as a directory on disk.
func copyToDisk(t *testing.T, mem *wal.MemSegmentStore, dir string) *wal.FileSegmentStore {
	t.Helper()
	fs, err := wal.NewFileSegmentStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	idxs, err := mem.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, idx := range idxs {
		data, err := mem.ReadAll(idx)
		if err != nil {
			t.Fatal(err)
		}
		seg, err := fs.Create(idx)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := seg.Write(data); err != nil {
			t.Fatal(err)
		}
		if err := seg.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if m, err := mem.ReadMaster(); err == nil && m != nil {
		if err := fs.WriteMaster(m); err != nil {
			t.Fatal(err)
		}
	}
	return fs
}

// TestCrashMatrixFileBackedRestart replays checkpointed crash images from a
// real directory: the burst's segments and master record are mirrored to
// disk (in a scratch dir audited by TestMain) and recovery runs against the
// file-backed store, covering the file store's master read and base
// re-anchoring paths under the same hostile schedules.
func TestCrashMatrixFileBackedRestart(t *testing.T) {
	seeds := 6
	if testing.Short() {
		seeds = 2
	}
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			out := burst(t, tamix.CrashConfig{
				Seed:            int64(8000 + seed),
				CheckpointEvery: 3,
				SegmentSize:     8 << 10,
				Faults:          crashAt(fault.LogAppend, 60+seed*23%180),
			})
			fs := copyToDisk(t, out.Segments, crashScratch(t))
			log, err := wal.Open(fs, wal.Config{})
			if err != nil {
				t.Fatalf("reopening file-backed log: %v", err)
			}
			d, rep, err := storage.Recover(out.Backend, log, out.Opts)
			if err != nil {
				t.Fatalf("recover: %v", err)
			}
			defer d.Close()
			if err := tamix.AuditRecovered(d, out.Expected(rep)); err != nil {
				t.Errorf("audit: %v", err)
			}
		})
	}
}

// TestCrashMatrixFullBudgetBurst runs bursts whose plan schedules no fault,
// so they exhaust their op budget — the crash is then purely the final hard
// stop, and every acknowledged commit must survive it.
func TestCrashMatrixFullBudgetBurst(t *testing.T) {
	seeds := 6
	if testing.Short() {
		seeds = 2
	}
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			plan := &fault.Plan{}
			out := burst(t, tamix.CrashConfig{
				Seed:         int64(5000 + seed),
				OpsPerWorker: 25,
				Faults:       plan,
			})
			if out.CommittedTxns == 0 {
				t.Fatal("burst committed nothing; the matrix is vacuous")
			}
			if plan.Injected() != 0 {
				t.Fatalf("a plan with no faults injected %d", plan.Injected())
			}
			recoverAndAudit(t, out)
		})
	}
}

// TestCrashMatrixComposed runs, per seed, one plan that composes what the
// rows above test one at a time: transient page read and write faults that
// the buffer's retry absorbs, a torn write-back, a log crash, and
// checkpoints every few operations. The burst ends at whichever planned
// crash comes first; the subtest's seed replays it.
func TestCrashMatrixComposed(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			plan := &fault.Plan{Seed: int64(seed), Schedule: []fault.Fault{
				{Site: fault.PageWrite, N: uint64(20 + seed*37%120), Permanent: true, Torn: true},
				{Site: fault.LogAppend, N: uint64(20 + seed*31%120)},
			}}
			plan.Prob[fault.PageRead], plan.Prob[fault.PageWrite] = 0.2, 0.05
			bib := tamix.Scaled(0.05) // 44 pages in a 24-frame pool: reads miss, and fault
			bib.BufferFrames = 24
			out, err := tamix.CrashBurst(tamix.CrashConfig{
				Seed:            int64(7000 + seed),
				CheckpointEvery: 2 + seed%4,
				SegmentSize:     8 << 10,
				Bib:             bib,
				Faults:          plan,
			})
			if err != nil {
				t.Fatal(err)
			}
			recoverAndAudit(t, out)
			if plan.TornWrites()+plan.Fired(fault.LogAppend) == 0 {
				t.Errorf("neither the torn write-back nor the log crash fired (%d writes, %d appends)",
					plan.Seen(fault.PageWrite), plan.Seen(fault.LogAppend))
			}
			t.Logf("faults: %d read, %d write (%d torn), %d log; commits %d, pending %d",
				plan.Fired(fault.PageRead), plan.Fired(fault.PageWrite), plan.TornWrites(),
				plan.Fired(fault.LogAppend), out.CommittedTxns, out.PendingTxns)
		})
	}
}
