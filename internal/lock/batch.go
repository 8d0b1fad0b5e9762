package lock

import "fmt"

// Req is one lock request inside a batch (see Manager.LockBatch).
type Req struct {
	Res   Resource
	Mode  Mode
	Short bool
}

// pendReq is a batch request the single-critical-section pass could not
// answer, remembering how many cache hits preceded it in the batch.
type pendReq struct {
	Req
	hitsBefore int
}

// LockBatch acquires reqs for tx with the same observable semantics as
// issuing them through Lock in order, but under a single transaction-mutex
// critical section for the entire answerable prefix: cache hits
// (epoch-stamped held entries) anywhere in the batch, and CAS fast-path
// grants for fresh resources up to the first request that needs the slow
// path. Fast grants stop at that point because granting later requests
// before an earlier one completes would break the batch's acquisition
// order — the root-first discipline the protocols rely on to avoid
// deadlocks. The remainder go through Lock one by one in their original
// order. (The old combined multi-partition immediate-grant pass is gone:
// the per-request CAS path is cheaper than taking several partition
// mutexes together, and it preserves ordering trivially.)
//
// The first error aborts the batch; earlier grants stay (exactly as with
// sequential Lock calls — the transaction's abort releases them). The
// statistics come out exactly as for the sequential calls: cache hits are
// booked just before the table request that follows them, so the counters
// advance the way a sequential caller's would, even while a request blocks.
func (m *Manager) LockBatch(tx *Tx, reqs []Req) error {
	if len(reqs) == 0 {
		return nil
	}
	// Phase 1: one pass under tx.mu. Hits are counted but not booked yet:
	// if a later request fails, sequential semantics say the requests after
	// it were never issued, so only hits that precede the failure may show
	// up in the statistics. pend is allocated lazily — a fully answered
	// batch (the protocol hot path) allocates nothing here.
	var pend []pendReq
	hits, fasts := 0, 0
	tx.mu.Lock()
	if tx.done {
		tx.mu.Unlock()
		m.stats.requests.Add(1) // the first sequential Lock would be counted
		return ErrTxDone
	}
	if tx.doomed.Load() {
		tx.mu.Unlock()
		m.stats.requests.Add(1)
		return ErrDeadlockVictim
	}
	for i, r := range reqs {
		if r.Mode == ModeNone {
			tx.mu.Unlock()
			m.bookFastGrants(fasts)
			if hits > 0 { // every counted hit precedes the failure
				m.stats.cacheHits.Add(uint64(hits))
			}
			return fmt.Errorf("lock: cannot request ModeNone on %q", r.Res)
		}
		if e := tx.held[r.Res]; e != nil {
			hm, hshort := e.loadState()
			if (hm == r.Mode || m.table.Convert(hm, r.Mode) == hm) &&
				!hshort && e.cacheEpoch == tx.cacheEpoch {
				hits++
				continue
			}
			// Held but not a pure cache hit (short-held, stale stamp, or a
			// conversion): the sequential Lock call resolves it with exact
			// booking.
		} else if len(pend) == 0 {
			hash := fnv1a(string(r.Res))
			if h := m.stripes[hash&m.mask].index.lookup(r.Res, hash); h != nil &&
				m.tryFastGrantLocked(tx, h, r.Res, r.Mode, r.Short) {
				fasts++
				continue
			}
		}
		if pend == nil {
			pend = make([]pendReq, 0, len(reqs)-i)
		}
		pend = append(pend, pendReq{Req: r, hitsBefore: hits})
	}
	tx.mu.Unlock()
	m.bookFastGrants(fasts)
	if pend == nil {
		if hits > 0 {
			m.stats.cacheHits.Add(uint64(hits))
		}
		return nil
	}

	// Phase 2: sequential Lock calls for the rest. Hits are booked just
	// before the table request they precede; a trailing run of hits is
	// booked once the last pending request has completed.
	booked := 0
	for i := range pend {
		p := &pend[i]
		if p.hitsBefore > booked {
			m.stats.cacheHits.Add(uint64(p.hitsBefore - booked))
			booked = p.hitsBefore
		}
		if err := m.Lock(tx, p.Res, p.Mode, p.Short); err != nil {
			return err
		}
	}
	if hits > booked {
		m.stats.cacheHits.Add(uint64(hits - booked))
	}
	return nil
}

// bookFastGrants books n CAS fast-path grants exactly as n sequential Lock
// calls would have.
func (m *Manager) bookFastGrants(n int) {
	if n == 0 {
		return
	}
	m.stats.requests.Add(uint64(n))
	m.stats.immediateGrants.Add(uint64(n))
	m.stats.fastGrants.Add(uint64(n))
}
