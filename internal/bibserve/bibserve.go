// Package bibserve glues the TaMix bib document generator to the xtcd
// server: the engine factory that cmd/xtcd and the loopback test harnesses
// share. Each protocol a session names gets its own freshly generated bib
// document under its own lock manager — protocols have different mode
// tables, so a document is never shared across them.
package bibserve

import (
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/pagestore"
	"repro/internal/protocol"
	"repro/internal/server"
	"repro/internal/tamix"
	"repro/internal/wal"
	"repro/internal/wire"
)

// Options configure the engines a factory builds.
type Options struct {
	// Bib sizes each engine's document (tamix.DefaultBibConfig when the
	// Topics field is zero — the zero BibConfig is invalid). A
	// Bib.CheckpointInterval > 0 attaches an in-memory WAL to each engine's
	// document and has the flusher take fuzzy checkpoints at that cadence
	// (segment GC rides along, bounding log growth).
	Bib tamix.BibConfig
	// LockTimeout bounds lock waits in each engine (5s when zero).
	LockTimeout time.Duration
	// WALRetain caps how many newest segments checkpoint GC keeps
	// (wal.DefaultRetain when 0). Only meaningful with
	// Bib.CheckpointInterval.
	WALRetain int
}

// NewEngineFactory returns the server.Config.NewEngine implementation:
// generate a bib document and wrap a core.Engine around it for the protocol.
// Each engine reports into a registry of its own — protocols share instrument
// names, so they cannot share a registry — which is what OpStats ships and
// what the server's Snapshot shows under "engine.<protocol>.".
func NewEngineFactory(opts Options) func(p protocol.Protocol, depth int) (*server.Engine, error) {
	if opts.Bib.Topics == 0 {
		opts.Bib = tamix.DefaultBibConfig()
	}
	if opts.LockTimeout <= 0 {
		opts.LockTimeout = 5 * time.Second
	}
	return func(p protocol.Protocol, depth int) (*server.Engine, error) {
		bib := opts.Bib
		bib.Metrics = metrics.NewRegistry()
		doc, cat, err := tamix.GenerateBib(pagestore.NewMemBackend(), bib)
		if err != nil {
			return nil, err
		}
		var segs wal.SegmentStore
		if bib.CheckpointInterval > 0 {
			segs = wal.NewMemSegmentStore()
		}
		eng, err := core.Wrap(doc, segs, core.Config{
			Protocol:    p.Name(),
			LockDepth:   &depth,
			LockTimeout: opts.LockTimeout,
			Log:         wal.Config{Retain: opts.WALRetain},
		})
		if err != nil {
			return nil, err
		}
		if doc.WAL() != nil {
			// A WAL-backed engine can serve tx.LevelSnapshot sessions under
			// any protocol: page versions pin commit-LSN snapshots for
			// lock-free reads.
			eng.Manager().EnableSnapshotReads()
		}
		return &server.Engine{
			Mgr: eng.Manager(),
			Catalog: wire.Catalog{
				Books:   cat.BookIDs,
				Topics:  cat.TopicIDs,
				Persons: cat.PersonIDs,
			},
			CloseFn: eng.Close,
		}, nil
	}
}

// Start launches a loopback xtcd for tests and harnesses: listen on an
// ephemeral port, serve in the background, return the running server. The
// caller shuts it down with Shutdown.
func Start(opts Options, cfg server.Config) (*server.Server, error) {
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	cfg.NewEngine = NewEngineFactory(opts)
	srv, err := server.Listen(cfg)
	if err != nil {
		return nil, err
	}
	go srv.Serve()
	return srv, nil
}
