package tamix

import (
	"errors"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/pagestore"
	"repro/internal/tx"
)

// chaosConfig is a high-conflict, fault-injected CLUSTER1 variant: a small
// document, a write-heavy mix, a short lock timeout, and a page buffer too
// small to hold the working set, so the run exercises deadlock aborts, lock
// timeouts, transaction restarts, and storage-fault retries all at once.
func chaosConfig(seed int64) Config {
	bib := Scaled(0.05) // 5 topics, 100 books
	// Far below the working set, so the run does backend I/O throughout (at
	// 56 frames, since ordered loads fill their leaves, a run under the race
	// detector beside other tests did almost none and drew no fault), yet
	// comfortably above the 12 workers' worst-case concurrent pins.
	bib.BufferFrames = 40
	return Config{
		Protocol:  "taDOM3+",
		Isolation: tx.LevelRepeatable,
		Depth:     -1,
		Clients:   2,
		Mix: map[TxType]int{
			TAqueryBook:     1,
			TAchapter:       1,
			TArenameTopic:   2,
			TAlendAndReturn: 2,
		},
		Duration:           700 * time.Millisecond,
		WaitAfterCommit:    time.Millisecond,
		WaitAfterOperation: 500 * time.Microsecond,
		MaxStartDelay:      5 * time.Millisecond,
		LockTimeout:        30 * time.Millisecond,
		Bib:                bib,
		Seed:               seed,
	}
}

// TestChaosRestartLoopUnderFaults is the acceptance test of the recovery
// layer: a seeded fault plan under a high-conflict mix must finish
// without panic, pass Verify, leak no locks (Run audits both), and show the
// restart and retry machinery actually working.
func TestChaosRestartLoopUnderFaults(t *testing.T) {
	cfg := chaosConfig(7)
	cfg.Faults = &fault.Plan{Seed: 7, Torn: true} // transient torn writes must be healed by retry
	cfg.Faults.Prob[fault.PageRead], cfg.Faults.Prob[fault.PageWrite], cfg.Faults.Prob[fault.PageAlloc] = 0.05, 0.05, 0.02
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("chaos run failed: %v", err)
	}
	if res.Committed == 0 {
		t.Error("no transactions committed")
	}
	if res.Aborted == 0 {
		t.Error("high-conflict run produced no aborts; conflict knobs too weak")
	}
	if res.Restarts == 0 {
		t.Error("restart counter is zero; aborted transactions were not retried")
	}
	if res.RestartWait == 0 {
		t.Error("restart backoff time is zero")
	}
	counter := res.Metrics.CounterValue
	if counter("fault.injected") == 0 {
		t.Error("no faults injected; buffer too large or probabilities too low")
	}
	if counter("buffer.retries") == 0 {
		t.Error("no buffer retries; transient faults were not retried")
	}
	if n := counter("buffer.retry_failures"); n != 0 {
		t.Errorf("%d transient faults outlived the retry budget", n)
	}
	restarts := 0
	for _, typ := range TxTypes {
		restarts += res.PerType[typ].Restarts
	}
	if restarts != res.Restarts {
		t.Errorf("per-type restarts sum to %d, total says %d", restarts, res.Restarts)
	}
	t.Logf("chaos: committed=%d aborted=%d restarts=%d dropped=%d faults=%d torn=%d retries=%d",
		res.Committed, res.Aborted, res.Restarts, res.Dropped,
		counter("fault.injected"), counter("fault.torn_writes"), counter("buffer.retries"))
}

// TestChaosSnapshotContestantVersionAudit runs the high-conflict mix under
// the MVCC snapshot contestant: read-only slots pin lock-free snapshots
// while the write mix churns pages, splits, and deadlock-restarts around
// them. Run's post-run audits make this loud on regression: leaked snapshot
// registrations or page versions retained below the watermark fail the run.
func TestChaosSnapshotContestantVersionAudit(t *testing.T) {
	cfg := chaosConfig(17)
	cfg.Protocol = "snapshot"
	cfg.Faults = nil // faults exercise the retry path; here the target is the version chains
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("snapshot chaos run failed: %v", err)
	}
	if res.Committed == 0 {
		t.Error("no transactions committed")
	}
	if res.PerType[TAqueryBook].Committed == 0 {
		t.Error("no read-only (snapshot) transactions committed")
	}
	writes := res.Committed - res.PerType[TAqueryBook].Committed
	if writes == 0 {
		t.Error("no writers committed; the version chains were never exercised")
	}
	t.Logf("snapshot chaos: committed=%d (%d snapshot reads) aborted=%d restarts=%d",
		res.Committed, res.PerType[TAqueryBook].Committed, res.Aborted, res.Restarts)
}

// TestChaosPermanentFaultFailsGracefully injects an unretryable fault and
// demands a classified error from Run — not a panic, not a corrupted
// result.
func TestChaosPermanentFaultFailsGracefully(t *testing.T) {
	cfg := chaosConfig(11)
	// The first armed read fails permanently; everything else is clean. A
	// later read would not be reached by a slow run (the race detector with
	// other tests beside it), which then ends clean.
	cfg.Faults = &fault.Plan{Schedule: []fault.Fault{{Site: fault.PageRead, N: 1, Permanent: true}}}
	res, err := Run(cfg)
	if cfg.Faults.Fired(fault.PageRead) < 1 {
		t.Fatalf("planned fault never fired (%d armed page reads): %v", cfg.Faults.Seen(fault.PageRead), err)
	}
	if err == nil {
		t.Fatalf("run swallowed a permanent fault: %+v", res)
	}
	if !pagestore.IsPermanent(err) {
		t.Errorf("error not classified permanent: %v", err)
	}
	if !errors.Is(err, fault.ErrInjected) {
		t.Errorf("error chain lost the injected fault: %v", err)
	}
}

// TestChaosRestartCapDropsTransaction pins the restart cap at zero and
// checks that victims are dropped instead of retried — the pre-recovery
// behavior, now as an explicit, observable mode.
func TestChaosRestartCapDropsTransaction(t *testing.T) {
	cfg := chaosConfig(13)
	cfg.MaxRestarts = -1 // no restarts
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if res.Restarts != 0 {
		t.Errorf("restarts disabled but %d recorded", res.Restarts)
	}
	if res.Aborted == 0 {
		t.Skip("no conflicts this run; nothing to drop")
	}
	if res.Dropped != res.Aborted {
		t.Errorf("with restarts off every abort is a drop: aborted=%d dropped=%d", res.Aborted, res.Dropped)
	}
}
