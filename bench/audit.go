package main

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/pagestore"
	"repro/internal/storage"
	"repro/internal/wal"
)

// audit checks the program's outputs after a run: the document's physical
// invariants, an empty lock table, the server's own audit where there is one,
// and that the document holds what the last acknowledged writer of every
// marked node wrote. Any error fails every transaction of the workload.
func (e *env) audit() error {
	var errs []error
	if err := e.doc.Verify(); err != nil {
		errs = append(errs, fmt.Errorf("document: %w", err))
	}
	if err := e.mgr.LockManager().LeakCheck(); err != nil {
		errs = append(errs, fmt.Errorf("lock table: %w", err))
	}
	if e.pool != nil {
		if err := e.pool.Audit(protocolName); err != nil {
			errs = append(errs, fmt.Errorf("server audit: %w", err))
		}
	}
	if err := checkMarks(e.doc, e.marks()); err != nil {
		errs = append(errs, fmt.Errorf("live document: %w", err))
	}
	return errors.Join(errs...)
}

// marks merges the workers' acknowledged writes: per node, the one written
// last.
func (e *env) marks() map[string]mark {
	last := map[string]mark{}
	for _, w := range e.workers {
		for k, m := range w.acks {
			if m.seq > last[k].seq {
				last[k] = m
			}
		}
	}
	return last
}

// checkMarks reads every marked node straight from the store.
func checkMarks(d *storage.Document, marks map[string]mark) error {
	var errs []error
	for _, m := range marks {
		got, err := d.Value(m.id)
		if err != nil {
			errs = append(errs, fmt.Errorf("node %v: %w", m.id, err))
		} else if string(got) != m.value {
			errs = append(errs, fmt.Errorf("node %v holds %q, the last acknowledged write was %q", m.id, got, m.value))
		}
		if len(errs) >= 8 {
			break
		}
	}
	return errors.Join(errs...)
}

// durable reports whether the workload ends with the durability check: it
// needs a log and a page backend that can be copied.
func (sp *spec) durable() bool { return sp.wal && !sp.file && !sp.remote }

// crashAndRecover is the durability check, run with the workers quiet. It
// cuts the power on a copy of the engine's persistent state (the log's synced
// bytes first, then the page backend as the flusher left it; unsynced log
// bytes and the whole buffer pool are lost), restarts from that copy alone and
// requires every acknowledged write to be readable. The engine itself stays
// open for the live-heap reading. It returns how long the restart took.
func (e *env) crashAndRecover() (time.Duration, error) {
	mem, ok := e.backend.(*pagestore.MemBackend)
	if !ok || e.log == nil {
		return 0, errors.New("bench: durability check needs a memory backend and a log")
	}
	marks := e.marks()
	// The log is copied before the pages: a page the flusher writes in
	// between only carries changes the copied log already holds, whereas a
	// checkpoint taken after an earlier page copy could truncate records
	// that copy still needs.
	segs := e.segs.Clone()
	segs.Crash()
	pages := mem.Clone()

	t0 := time.Now()
	log, err := wal.Open(segs, wal.Config{SegmentSize: walSegmentSize, Retain: walRetain})
	if err != nil {
		return 0, fmt.Errorf("reopen log: %w", err)
	}
	defer log.Close()
	doc, rep, err := storage.Recover(pages, log, storage.Options{})
	if err != nil {
		return 0, fmt.Errorf("recover: %w", err)
	}
	took := time.Since(t0)
	defer doc.Close()
	if len(rep.Losers) > 0 {
		return took, fmt.Errorf("recovery rolled back %d transactions of a quiet engine", len(rep.Losers))
	}
	if err := doc.Verify(); err != nil {
		return took, fmt.Errorf("recovered document: %w", err)
	}
	if err := checkMarks(doc, marks); err != nil {
		return took, fmt.Errorf("recovered document: %w", err)
	}
	return took, nil
}
