package tamix

import (
	"testing"

	"repro/internal/core"
)

// TestCrashBurstAccountsForEveryTransaction: a burst with no faults runs its
// whole op budget, and every marker transaction ends committed or aborted.
// None is pending at the final hard stop, and a restart owes exactly the
// acknowledged commits.
func TestCrashBurstAccountsForEveryTransaction(t *testing.T) {
	cfg := CrashConfig{Workers: 3, OpsPerWorker: 20, Seed: 17}
	out, err := CrashBurst(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := out.CommittedTxns + out.AbortedTxns; n != cfg.Workers*cfg.OpsPerWorker {
		t.Errorf("%d committed + %d aborted = %d transactions, want %d",
			out.CommittedTxns, out.AbortedTxns, n, cfg.Workers*cfg.OpsPerWorker)
	}
	if out.CommittedTxns == 0 {
		t.Error("the burst committed nothing")
	}
	if len(out.Pending) != 0 {
		t.Errorf("%d transactions pending after a burst without faults", len(out.Pending))
	}
	eng, err := core.Open(out.Backend, out.Segments, core.Config{BufferFrames: out.Opts.BufferFrames})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := AuditRecovered(eng.Manager().Document(), out.Expected(eng.Recovery())); err != nil {
		t.Error(err)
	}
}
