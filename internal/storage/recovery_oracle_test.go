// Parallel-redo oracle: shard-parallel redo must be a pure reordering of
// serial redo. Pages are independent under physiological logging, so
// recovering the same crash image with 1 shard and with 16 shards has to
// produce byte-identical page stores — any divergence means the partition
// leaked state across pages or broke a page's LSN order.
package storage_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/pagestore"
	"repro/internal/storage"
	"repro/internal/tamix"
	"repro/internal/wal"
)

// recoverImage recovers a cloned crash image at the given redo parallelism
// and returns the repaired backend.
func recoverImage(t *testing.T, out *tamix.CrashOutcome, shards int) *pagestore.MemBackend {
	t.Helper()
	mem, ok := out.Backend.(*pagestore.MemBackend)
	if !ok {
		t.Fatalf("oracle needs a raw MemBackend, got %T", out.Backend)
	}
	backend := mem.Clone()
	log, err := wal.Open(out.Segments.Clone(), wal.Config{})
	if err != nil {
		t.Fatalf("reopening log: %v", err)
	}
	d, rep, err := storage.Recover(backend, log, out.Opts.WithRedoShards(shards))
	if err != nil {
		t.Fatalf("recover with %d shards: %v", shards, err)
	}
	defer d.Close()
	if err := tamix.AuditRecovered(d, out.Expected(rep)); err != nil {
		t.Errorf("audit with %d shards: %v", shards, err)
	}
	if err := d.Flush(); err != nil {
		t.Fatalf("flush after recovery: %v", err)
	}
	return backend
}

// TestRecoverySerialParallelOracle recovers the same crash images serially
// and with 16 redo shards and demands byte-identical page stores.
func TestRecoverySerialParallelOracle(t *testing.T) {
	seeds := 6
	if testing.Short() {
		seeds = 2
	}
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			cfg := tamix.CrashConfig{
				Seed:              int64(7000 + seed),
				CrashAfterAppends: uint64(40 + seed*29%180),
			}
			if seed%2 == 1 {
				// Half the images carry checkpoints and truncated logs.
				cfg.CheckpointEvery = 3
			}
			out, err := tamix.CrashBurst(cfg)
			if err != nil {
				t.Fatal(err)
			}
			serial := recoverImage(t, out, 1)
			parallel := recoverImage(t, out, 16)

			if sn, pn := serial.NumPages(), parallel.NumPages(); sn != pn {
				t.Fatalf("page counts diverge: serial %d, parallel %d", sn, pn)
			}
			sbuf := make([]byte, pagestore.PageSize)
			pbuf := make([]byte, pagestore.PageSize)
			for id := pagestore.PageID(0); id < serial.NumPages(); id++ {
				if err := serial.ReadPage(id, sbuf); err != nil {
					t.Fatalf("serial read page %d: %v", id, err)
				}
				if err := parallel.ReadPage(id, pbuf); err != nil {
					t.Fatalf("parallel read page %d: %v", id, err)
				}
				if !bytes.Equal(sbuf, pbuf) {
					t.Fatalf("page %d diverges between serial and 16-shard redo", id)
				}
			}
		})
	}
}
