// BenchmarkRecovery measures restart latency: crash a TaMix burst once per
// configuration, then repeatedly recover clones of the crash image. The
// grid crosses WAL length (burst size) × checkpointing (off / every 3 ops
// per worker): checkpoints bound restart work by work-since-checkpoint
// instead of total history. End to end, restart is bench/'s
// storage.recover_ms.
package storage_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/pagestore"
	"repro/internal/storage"
	"repro/internal/tamix"
	"repro/internal/wal"
)

func BenchmarkRecovery(b *testing.B) {
	// Per-page backend latency on the recovered clones: redo and the final
	// flush pay it. Clones only — image generation stays fast. (time.Sleep
	// granularity makes the effective cost closer to a disk seek than the
	// nominal value, which is the point.)
	const pageLatency = 20 * time.Microsecond

	for _, ops := range []int{40, 160} {
		for _, ckptEvery := range []int{0, 3} {
			cfg := tamix.CrashConfig{
				Seed:            9000 + int64(ops)*7 + int64(ckptEvery),
				OpsPerWorker:    ops,
				CheckpointEvery: ckptEvery,
			}
			// A bigger document than the crash matrix uses, so redo touches
			// many distinct pages; the trickle flusher keeps
			// the dirty-page table small, which is what lets a checkpoint
			// advance the redo LSN past already-durable history.
			cfg.Bib = tamix.Scaled(0.15)
			cfg.Bib.BufferFrames = 64
			cfg.Bib.FlusherInterval = time.Millisecond
			out, err := tamix.CrashBurst(cfg)
			if err != nil {
				b.Fatal(err)
			}
			mem, ok := out.Backend.(*pagestore.MemBackend)
			if !ok {
				b.Fatalf("benchmark needs a raw MemBackend, got %T", out.Backend)
			}
			b.Run(fmt.Sprintf("ops=%d/ckpt=%v", 3*ops, ckptEvery > 0), func(b *testing.B) {
				benchRecover(b, mem, out, pageLatency)
			})
		}
	}

	// The redo-heavy image: no trickle flusher and a small pool, so the
	// crash leaves deltas outstanding against many distinct pages.
	cfg := tamix.CrashConfig{Seed: 9997, Workers: 8, OpsPerWorker: 300}
	cfg.Bib = tamix.Scaled(0.15)
	cfg.Bib.BufferFrames = 32
	out, err := tamix.CrashBurst(cfg)
	if err != nil {
		b.Fatal(err)
	}
	mem, ok := out.Backend.(*pagestore.MemBackend)
	if !ok {
		b.Fatalf("benchmark needs a raw MemBackend, got %T", out.Backend)
	}
	b.Run("redo=heavy", func(b *testing.B) {
		benchRecover(b, mem, out, pageLatency)
	})
}

// benchRecover times one recovery configuration over clones of a crash
// image, reporting the scan size and the deltas redone alongside ns/op.
func benchRecover(b *testing.B, mem *pagestore.MemBackend, out *tamix.CrashOutcome, lat time.Duration) {
	var records, redone int
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		backend := mem.Clone()
		backend.SimulatedLatency = lat
		segs := out.Segments.Clone()
		b.StartTimer()

		log, err := wal.Open(segs, wal.Config{})
		if err != nil {
			b.Fatal(err)
		}
		d, rep, err := storage.Recover(backend, log, out.Opts)
		if err != nil {
			b.Fatal(err)
		}
		records, redone = rep.Records, rep.RedoneOps

		b.StopTimer()
		if err := d.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(records), "records")
	b.ReportMetric(float64(redone), "redone")
}
