package tamix

import (
	"errors"
	"fmt"

	"repro/internal/client"
	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/storage"
	"repro/internal/tx"
	"repro/internal/wire"
	"repro/internal/xmlmodel"
)

// remoteEngine adapts one xtcd client session to Engine. A session carries
// at most one transaction and must stay on one goroutine, which matches the
// slot discipline exactly: every slot owns its session.
type remoteEngine struct {
	sess *client.Session
	// names caches resolved vocabulary names; the workload resolves the same
	// one or two every traversal and a cache turns that round trip into a map
	// hit. Single-goroutine access, no lock.
	names map[string]xmlmodel.Sur
}

func (e *remoteEngine) Begin() (Txn, error) { return e.sess.Begin() }

// Do ignores the handle: the session carries its one transaction.
func (e *remoteEngine) Do(_ Txn, op wire.Op, a wire.Args) (wire.Result, error) {
	return e.sess.Do(op, a)
}

func (e *remoteEngine) LookupName(name string) (xmlmodel.Sur, bool) {
	if sur, hit := e.names[name]; hit {
		return sur, true
	}
	sur, ok, err := e.sess.LookupName(name)
	if err != nil || !ok {
		// Lookup failures surface on the next locked operation; treat as
		// unknown here (the traversal then simply finds no summaries).
		return 0, false
	}
	e.names[name] = sur
	return sur, true
}

// countersSince returns after's counters minus before's, name by name: a
// server's counters accumulate for its engine's lifetime, a run's share is
// the difference. A server bounced mid-run starts its counters over, leaving
// after < before; the post-restart accumulation is reported then, not an
// underflowed difference.
func countersSince(after, before *metrics.Snapshot) *metrics.Snapshot {
	d := &metrics.Snapshot{Counters: make(map[string]uint64, len(after.Counters))}
	for name, v := range after.Counters {
		if b := before.CounterValue(name); b <= v {
			v -= b
		}
		d.Counters[name] = v
	}
	return d
}

// runRemote points the slot driver at an xtcd server: every slot is a wire
// session, the post-run audit runs on the server and the engine's counters
// come from it, by name.
func runRemote(cfg Config, p protocol.Protocol, res *Result, reg *metrics.Registry) (*Result, error) {
	copts := cfg.RemoteClient
	if copts.Conns <= 0 {
		copts.Conns = 4
	}
	copts.Metrics = reg
	pool, err := client.Dial(cfg.Remote, copts)
	if err != nil {
		return nil, fmt.Errorf("tamix: dial %s: %w", cfg.Remote, err)
	}
	defer pool.Close()

	// A bootstrap session forces the server to build the engine (loading the
	// document) and serves the catalog every slot works from.
	boot, err := pool.OpenSession(p.Name(), cfg.Isolation, cfg.Depth)
	if err != nil {
		return nil, fmt.Errorf("tamix: open bootstrap session: %w", err)
	}
	wcat, err := boot.Catalog()
	if cerr := boot.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("tamix: fetch catalog: %w", err)
	}
	cat := &Catalog{
		BookIDs:   wcat.Books,
		TopicIDs:  wcat.Topics,
		PersonIDs: wcat.Persons,
		Books:     len(wcat.Books),
	}
	if len(cat.BookIDs) == 0 || len(cat.TopicIDs) == 0 || len(cat.PersonIDs) == 0 {
		return nil, fmt.Errorf("tamix: server catalog for %s is empty", p.Name())
	}

	before, err := pool.Stats(p.Name())
	if err != nil && !errors.Is(err, storage.ErrNodeNotFound) {
		return nil, fmt.Errorf("tamix: baseline stats: %w", err)
	}

	engine := func(iso tx.Level) (Engine, func(), error) {
		sess, err := pool.OpenSession(p.Name(), iso, cfg.Depth)
		if err != nil {
			return nil, nil, fmt.Errorf("open session: %w", err)
		}
		return &remoteEngine{sess: sess, names: map[string]xmlmodel.Sur{}}, func() { sess.Close() }, nil
	}
	finish := func() error {
		if err := pool.Audit(p.Name()); err != nil {
			return err
		}
		after, err := pool.Stats(p.Name())
		if err != nil {
			return fmt.Errorf("final stats: %w", err)
		}
		res.Metrics.Merge(countersSince(after, before))
		return nil
	}
	return drive(cfg, p, res, reg, cat, engine, finish)
}
