// Package wal is the write-ahead log of the engine: an append-only,
// LSN-addressed record log with CRC framing, group commit through a
// dedicated flusher goroutine, and segment rotation. It is the durability
// substrate the ARIES-lite recovery in the storage layer replays
// (DESIGN.md §9).
//
// Concurrency model: Append is cheap — it frames the record into an
// in-memory pending buffer under the log mutex and returns its LSN. The
// flusher goroutine drains the pending buffer to the current segment and
// syncs it once per batch, so any number of concurrently committing
// transactions share one fsync (group commit). Force blocks until the log
// is durable up to a given LSN.
//
// Crash testing: CrashNow, or a fault that Config.Faults plans for an append
// or a checkpoint window, turns the log fail-stop — pending records are
// dropped, and every later Append and FlushTo, and every Force of a record
// not yet durable, returns ErrCrashed. The buffer manager calls FlushTo
// before every dirty-page write-back, so a dead log also stops all page
// traffic: nothing unlogged can reach the backend after the "power failure".
package wal

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/pagestore"
)

// ErrCrashed is returned by every operation after the log crashed (test
// hook or injected failure).
var ErrCrashed = errors.New("wal: log crashed")

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log closed")

// ErrCorruptLog reports CRC-invalid bytes before the end of the log — a
// torn tail is healed silently by Open, but garbage in the middle of the
// record stream is unrecoverable corruption.
var ErrCorruptLog = errors.New("wal: corrupt record stream")

// DefaultSegmentSize is the rotation threshold when Config.SegmentSize is
// zero.
const DefaultSegmentSize = 1 << 20

// pendingKeep is the largest pending buffer the log keeps for the next batch:
// a batch that outgrew it (a burst, a bulk operation) leaves its buffer to the
// collector, so the two buffers the log owns never hold more than twice this.
const pendingKeep = 16 << 10

// Config tunes a Log.
type Config struct {
	// SegmentSize is the rotation threshold in bytes (DefaultSegmentSize
	// if <= 0). A batch is written entirely to one segment, so segments
	// can overshoot by up to one batch; frames never straddle segments.
	SegmentSize int
	// Metrics, when non-nil, receives the log's instruments: the wal.*
	// counters, append/force latency histograms, and the group-commit
	// batch-size distribution. Nil disables latency recording.
	Metrics *metrics.Registry
	// Retain is the minimum number of newest segments checkpoint GC always
	// keeps (DefaultRetain if <= 0). Retention keeps a short debugging
	// window of history even when the checkpoint would allow truncating
	// everything; the active segment is never removed regardless.
	Retain int
	// Faults, when non-nil, is consulted at every append (fault.LogAppend)
	// and at a checkpoint's three windows (fault.CkptForced, CkptMaster,
	// CkptGC); a planned fault there crashes the log like CrashNow — the
	// crash matrix's power failures.
	Faults *fault.Plan
}

// Stats counts log activity.
type Stats struct {
	// Appends counts records accepted.
	Appends uint64
	// Syncs counts segment fsyncs (group commit: Forces/Syncs > 1 means
	// commits shared a sync).
	Syncs uint64
	// Forces counts Force calls that had to wait for durability.
	Forces uint64
	// Rotations counts segment rollovers.
	Rotations uint64
	// Durable is the current durable LSN.
	Durable LSN
	// Next is the LSN the next record will get.
	Next LSN
	// Checkpoints counts completed checkpoints (record + master durable).
	Checkpoints uint64
	// SegmentsGCed counts segments unlinked by checkpoint truncation.
	SegmentsGCed uint64
	// CheckpointLSN is the LSN of the latest complete checkpoint record
	// (0 before the first).
	CheckpointLSN LSN
	// TruncLSN is the logical truncation point: every record below it has
	// been released by a checkpoint (its segment may or may not be gone).
	TruncLSN LSN
	// ActiveTxns is the size of the active-transaction table.
	ActiveTxns int
}

// Log is the write-ahead log.
type Log struct {
	store SegmentStore
	cfg   Config

	// fastDurable mirrors durable for the lock-free Force/FlushTo fast
	// path: a Force whose lsn is already strictly below the watermark
	// returns without touching the log mutex, so the sharded buffer
	// pool's concurrent write-backs of already-durable pages never
	// serialize here. Zero means "disabled": the watermark is zeroed the
	// moment the log crashes or fails, restoring the slow path's
	// every-FlushTo-fails barrier (see crashLocked). The zeroing happens
	// under mu before any caller can learn of the crash, so a page made
	// evictable after a failed append can never slip past the fast path.
	fastDurable atomic.Uint64

	// ckptMu serializes Checkpoint calls end to end (snapshot, record,
	// master write, segment GC). It is always acquired before mu and never
	// held across a blocking wait other than Force.
	ckptMu sync.Mutex

	mu   sync.Mutex
	cond *sync.Cond
	// pending takes the appended frames; the flusher borrows it for one
	// writeBatch, during which appends fill spare, and hands it back emptied
	// as the next spare. Both belong to the log from Open to Close.
	pending     []byte
	spare       []byte
	pendingRecs uint64 // records in pending (group-commit batch sizing)
	// handedBack, set by the ownership test alone, sees every drained buffer
	// at its full capacity at the moment the flusher gives it up.
	handedBack func([]byte)
	next       LSN
	durable    LSN
	appends    uint64
	crashed    bool
	closed     bool
	failure    error

	// att is the active-transaction table: every transaction with a logged
	// operation and no commit/end record yet, mapped to its first record's
	// LSN. Maintained by Append, rebuilt by Open's parse, snapshotted into
	// checkpoint records so recovery's undo set is bounded.
	att map[uint64]LSN
	// snapLSN is the newest commit-consistent log position: the LSN of the
	// last non-RecOp record appended while the active-transaction table was
	// empty. Every page stamp with pageLSN <= snapLSN belongs to a committed
	// (or fully rolled-back) operation, and the stamp itself has already been
	// applied — commit/end records are appended only after their operations'
	// Capture.Commit stamps. Snapshot transactions pin this value; it stalls
	// (stale but consistent) while writers continuously overlap.
	snapLSN LSN
	// bases maps a segment index to the LSN of its first byte. Seeded by
	// Open (from the master record once GC has unlinked prefix segments)
	// and extended by the flusher at rotation; ScanFrom and gcPlan use it
	// to address segments after truncation.
	bases map[uint64]LSN
	// lastCkpt is the latest complete checkpoint (nil before the first).
	lastCkpt *Checkpoint

	checkpoints uint64
	segsGCed    uint64
	ckptLSN     LSN
	truncLSN    LSN

	// Instruments (nil without Config.Metrics; all methods nil-safe).
	hAppend *metrics.Histogram // wal.append: Append call latency
	hForce  *metrics.Histogram // wal.force: Force latency (slow path; the
	// lock-free fast path is sub-observation noise and records nothing)
	hBatch *metrics.Histogram // wal.batch_records: records per synced batch

	forces    uint64
	syncs     uint64
	rotations uint64

	flushCh chan struct{}
	done    chan struct{}
	wg      sync.WaitGroup

	// flusher-owned state
	seg        Segment
	segIdx     uint64
	segWritten int
	writePos   LSN // LSN of the next byte the flusher will write
}

// Open replays the segment store's metadata and returns a ready log. A
// torn tail (an incomplete or CRC-invalid final frame, the residue of
// crashing mid-write) is truncated away; corruption before the tail is an
// error.
func Open(store SegmentStore, cfg Config) (*Log, error) {
	if cfg.SegmentSize <= 0 {
		cfg.SegmentSize = DefaultSegmentSize
	}
	if cfg.Retain <= 0 {
		cfg.Retain = DefaultRetain
	}
	l := &Log{
		store:   store,
		cfg:     cfg,
		att:     make(map[uint64]LSN),
		bases:   make(map[uint64]LSN),
		flushCh: make(chan struct{}, 1),
		done:    make(chan struct{}),
	}
	l.cond = sync.NewCond(&l.mu)
	if reg := cfg.Metrics; reg != nil {
		l.hAppend = reg.Histogram("wal.append")
		l.hForce = reg.Histogram("wal.force")
		l.hBatch = reg.Histogram("wal.batch_records")
		l.registerCounters(reg)
	}

	indices, err := store.List()
	if err != nil {
		return nil, err
	}
	// Checkpoint GC removes segments oldest-first, so survivors are always
	// a contiguous index range; a gap means segments vanished outside GC.
	for i := 1; i < len(indices); i++ {
		if indices[i] != indices[i-1]+1 {
			return nil, fmt.Errorf("%w: segment %d follows segment %d (survivors must be contiguous)",
				ErrCorruptLog, indices[i], indices[i-1])
		}
	}
	// LSNs are 1-based byte positions (LSN = stable offset + 1): LSN 0 is
	// reserved to mean "never stamped" in page headers, so pageLSN-
	// conditional redo can tell an untouched page from one stamped by the
	// very first record. Once GC has unlinked prefix segments the oldest
	// survivor no longer starts at LSN 1; its base comes from the master
	// record (keepIdx/keepBase), walked backward over any segments GC was
	// interrupted before removing (those are sealed, so their full length
	// is their payload).
	base := LSN(1)
	mrec, mok := readMaster(store)
	if len(indices) > 0 {
		first := indices[0]
		switch {
		case mok:
			if first > mrec.keepIdx || indices[len(indices)-1] < mrec.keepIdx {
				return nil, fmt.Errorf("%w: master record keeps segment %d but segments span %d..%d",
					ErrCorruptLog, mrec.keepIdx, first, indices[len(indices)-1])
			}
			base = mrec.keepBase
			for idx := mrec.keepIdx; idx > first; idx-- {
				buf, err := store.ReadAll(idx - 1)
				if err != nil {
					return nil, err
				}
				base -= LSN(len(buf))
			}
		case first != 0:
			return nil, fmt.Errorf("%w: oldest segment is %d but no master record locates its base LSN",
				ErrCorruptLog, first)
		}
	}
	pos := base
	var ckptPayload []byte // payload of the record the master points at
	for n, idx := range indices {
		buf, err := store.ReadAll(idx)
		if err != nil {
			return nil, err
		}
		l.bases[idx] = pos
		off := 0
		for off < len(buf) {
			rec, next, ok := parseFrame(buf, off)
			if !ok {
				break
			}
			rec.LSN = pos + LSN(off)
			l.noteRecord(rec)
			if mok && rec.Type == RecCheckpoint && rec.LSN == mrec.ckptLSN {
				ckptPayload = rec.Payload
			}
			off = next
		}
		if off < len(buf) {
			if n != len(indices)-1 {
				return nil, fmt.Errorf("%w: segment %d has %d undecodable bytes before later segments",
					ErrCorruptLog, idx, len(buf)-off)
			}
			if err := store.Truncate(idx, int64(off)); err != nil {
				return nil, err
			}
		}
		pos += LSN(off)
		l.segIdx = idx + 1
	}
	l.next, l.durable = pos, pos
	l.writePos = pos
	l.fastDurable.Store(pos)
	if mok {
		l.truncLSN = mrec.truncLSN
		// A master that points at a missing or undecodable checkpoint
		// record degrades to "no checkpoint": recovery scans everything
		// that survives. GC only ever ran behind a durable master, so the
		// surviving range still covers all live state.
		if ckptPayload != nil {
			if ck, err := DecodeCheckpoint(ckptPayload); err == nil {
				ck.LSN = mrec.ckptLSN
				l.lastCkpt = ck
				l.ckptLSN = ck.LSN
			}
		}
	}

	l.wg.Add(1)
	go l.flusher()
	return l, nil
}

// Append frames one record into the pending buffer and returns its LSN.
// The record is not durable until Force (or a page write-back's FlushTo)
// covers it.
func (l *Log) Append(typ byte, txn uint64, payload []byte) (LSN, error) {
	return l.append(typ, txn, len(payload), func(buf []byte) []byte { return append(buf, payload...) })
}

// append frames one record whose payload — payloadLen bytes — body appends
// to the pending buffer.
func (l *Log) append(typ byte, txn uint64, payloadLen int, body func([]byte) []byte) (LSN, error) {
	t0 := l.hAppend.Start()
	defer l.hAppend.Since(t0)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.crashed {
		return 0, ErrCrashed
	}
	if l.failure != nil {
		return 0, l.failure
	}
	if l.closed {
		return 0, ErrClosed
	}
	if l.cfg.Faults != nil {
		if _, crash := l.cfg.Faults.At(fault.LogAppend); crash {
			l.crashLocked()
			return 0, ErrCrashed
		}
	}
	l.appends++
	lsn := l.next
	l.noteRecord(Record{LSN: lsn, Type: typ, Txn: txn})
	// Grow once for the whole frame, not once per piece body appends.
	l.pending = appendFrame(slices.Grow(l.pending, frameSize(payloadLen)), typ, txn, body)
	l.pendingRecs++
	l.next += LSN(frameSize(payloadLen))
	l.kick()
	return lsn, nil
}

// noteRecord maintains the active-transaction table. Caller holds l.mu (or,
// during Open's parse, has exclusive access to the unpublished log).
func (l *Log) noteRecord(rec Record) {
	switch rec.Type {
	case RecOp:
		if rec.Txn != 0 {
			if _, ok := l.att[rec.Txn]; !ok {
				l.att[rec.Txn] = rec.LSN
			}
		}
	case RecCommit, RecEnd:
		delete(l.att, rec.Txn)
	}
	// Advance the commit-consistent snapshot position. RecOp records are
	// excluded: an op's page stamps land only after its record is appended
	// (Capture.Commit), so the op's own LSN is not yet a safe visibility
	// bound when the record enters the log.
	if rec.Type != RecOp && len(l.att) == 0 {
		l.snapLSN = rec.LSN
	}
}

// SnapshotLSN returns the newest commit-consistent log position: a snapshot
// reader that treats exactly the pages with pageLSN <= SnapshotLSN() as
// visible observes the committed state as of that LSN. Zero means "before
// any logged commit" (only never-stamped pages are visible).
func (l *Log) SnapshotLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return uint64(l.snapLSN)
}

// TxnLogged reports whether txn has appended at least one operation record
// not yet closed by a commit or end record. A transaction that never logged
// needs no commit record at all: recovery only classifies transactions it
// saw operations from, so the record would be pure log noise — and the
// force() it drags along, a wasted fsync per read-only transaction.
func (l *Log) TxnLogged(txn uint64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	_, ok := l.att[txn]
	return ok
}

// NextLSN returns the LSN the next appended record will receive.
func (l *Log) NextLSN() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next
}

// AppendOp appends a RecOp built from an undo payload and page deltas. The
// delta bytes are copied once, from wherever deltas point (the storage
// layer passes ranges of the pinned page frames) into the pending buffer.
// An operation too large for the record format fails with ErrOpTooLarge and
// appends nothing.
func (l *Log) AppendOp(txn uint64, undo []byte, deltas []pagestore.PageDelta) (LSN, error) {
	n, err := opLen(undo, deltas)
	if err != nil {
		return 0, err
	}
	return l.append(RecOp, txn, n, func(buf []byte) []byte { return appendOp(buf, undo, deltas) })
}

// AppendCommit appends a RecCommit. The caller must Force to the returned
// LSN's end before reporting the commit; Txn.Commit does exactly that.
func (l *Log) AppendCommit(txn uint64) (LSN, error) {
	return l.Append(RecCommit, txn, nil)
}

// AppendEnd appends a RecEnd.
func (l *Log) AppendEnd(txn uint64) (LSN, error) {
	return l.Append(RecEnd, txn, nil)
}

// Force blocks until every record appended at or before lsn is durable.
// Passing an LSN returned by Append covers that record (durability is
// tracked past the record's full frame). A record synced before the log
// crashed stays durable, and Force says so: a checkpoint may already have
// released it from what recovery scans, so a committer told ErrCrashed
// could never learn that its commit survived.
func (l *Log) Force(lsn LSN) error { return l.force(lsn, false) }

// FlushTo is the pagestore.LogSyncer hook: Force, except that a crashed log
// fails every call. The buffer manager calls it with a page's LSN before
// writing the page back, so after a crash no page reaches the backend.
func (l *Log) FlushTo(lsn uint64) error { return l.force(lsn, true) }

func (l *Log) force(lsn LSN, barrier bool) error {
	// Fast path: the record is already durable and the log was healthy
	// when the watermark was last published. crashLocked zeroes the
	// watermark, so only the slow path (which checks crashed) can answer
	// after a crash.
	if d := l.fastDurable.Load(); d != 0 && d > lsn {
		return nil
	}
	t0 := l.hForce.Start()
	defer l.hForce.Since(t0)
	l.mu.Lock()
	defer l.mu.Unlock()
	waited := false
	for {
		durable := l.durable > lsn || (l.durable == lsn && l.next == lsn)
		if l.crashed && (barrier || !durable) {
			return ErrCrashed
		}
		if l.failure != nil {
			return l.failure
		}
		if durable {
			return nil
		}
		if l.closed {
			return ErrClosed
		}
		if !waited {
			l.forces++
			waited = true
		}
		l.kick()
		l.cond.Wait()
	}
}

// kick nudges the flusher without blocking. Caller holds l.mu.
func (l *Log) kick() {
	select {
	case l.flushCh <- struct{}{}:
	default:
	}
}

// crashLocked turns the log fail-stop. Caller holds l.mu.
func (l *Log) crashLocked() {
	l.crashed = true
	l.fastDurable.Store(0)
	l.pending = nil
	l.pendingRecs = 0
	l.cond.Broadcast()
}

// CrashNow simulates a power failure: all pending (unsynced) records are
// lost and every subsequent operation fails with ErrCrashed. The segment
// store keeps only what was synced.
func (l *Log) CrashNow() {
	l.mu.Lock()
	l.crashLocked()
	l.mu.Unlock()
}

// crashAt crashes the log when its fault plan fires at site s.
func (l *Log) crashAt(s fault.Site) bool {
	if _, crash := l.cfg.Faults.At(s); !crash {
		return false
	}
	l.CrashNow()
	return true
}

// Crashed reports whether the log is fail-stopped.
func (l *Log) Crashed() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.crashed
}

// flusher is the group-commit goroutine: it drains the pending buffer in
// batches, rotating segments as they fill, and syncs once per batch.
func (l *Log) flusher() {
	defer l.wg.Done()
	for {
		select {
		case <-l.done:
			return
		case <-l.flushCh:
		}
		l.mu.Lock()
		batch := l.pending
		recs := l.pendingRecs
		if len(batch) == 0 {
			l.mu.Unlock()
			continue
		}
		l.pending, l.spare = l.spare, nil
		l.pendingRecs = 0
		l.mu.Unlock()
		err := l.writeBatch(batch)
		l.mu.Lock()
		if cap(batch) <= pendingKeep {
			l.spare = batch[:0] // the segment has its copy; nobody reads batch again
		}
		if l.handedBack != nil {
			l.handedBack(batch[:cap(batch)])
		}
		if err != nil {
			l.failure = fmt.Errorf("wal: flush: %w", err)
			l.fastDurable.Store(0)
		} else if !l.crashed {
			l.durable += LSN(len(batch))
			l.fastDurable.Store(l.durable)
			l.syncs++
			l.hBatch.Record(recs)
		}
		l.cond.Broadcast()
		l.mu.Unlock()
	}
}

// writeBatch appends one batch to the current segment (rotating first if
// it is full) and syncs it.
func (l *Log) writeBatch(batch []byte) error {
	if l.seg == nil || l.segWritten >= l.cfg.SegmentSize {
		if l.seg != nil {
			if err := l.seg.Close(); err != nil {
				return err
			}
			l.mu.Lock()
			l.rotations++
			l.mu.Unlock()
		}
		seg, err := l.store.Create(l.segIdx)
		if err != nil {
			return err
		}
		l.mu.Lock()
		l.bases[l.segIdx] = l.writePos
		l.mu.Unlock()
		l.seg = seg
		l.segIdx++
		l.segWritten = 0
	}
	if _, err := l.seg.Write(batch); err != nil {
		return err
	}
	l.segWritten += len(batch)
	l.writePos += LSN(len(batch))
	return l.seg.Sync()
}

// Scan replays every durable record in LSN order. It reads from the
// segment store, so it sees exactly what a crash would leave behind plus
// anything synced since; a torn tail in the final segment ends the scan
// cleanly.
func (l *Log) Scan(fn func(Record) error) error { return l.ScanFrom(0, fn) }

// ScanFrom replays every durable record with LSN >= from in LSN order.
// Segments that end below from are skipped entirely — this is what makes a
// checkpointed restart's redo pass proportional to work-since-checkpoint
// rather than total history.
func (l *Log) ScanFrom(from LSN, fn func(Record) error) error {
	indices, err := l.store.List()
	if err != nil {
		return err
	}
	for n, idx := range indices {
		base, ok := l.segBase(idx)
		if !ok {
			return fmt.Errorf("%w: segment %d has no known base LSN", ErrCorruptLog, idx)
		}
		buf, err := l.store.ReadAll(idx)
		if err != nil {
			return err
		}
		if base+LSN(len(buf)) <= from {
			continue
		}
		off := 0
		for off < len(buf) {
			rec, next, ok := parseFrame(buf, off)
			if !ok {
				if n != len(indices)-1 {
					return fmt.Errorf("%w: segment %d offset %d", ErrCorruptLog, idx, off)
				}
				return nil
			}
			rec.LSN = base + LSN(off)
			if rec.LSN >= from {
				if err := fn(rec); err != nil {
					return err
				}
			}
			off = next
		}
	}
	return nil
}

// segBase looks up a segment's base LSN.
func (l *Log) segBase(idx uint64) (LSN, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	b, ok := l.bases[idx]
	return b, ok
}

// Close flushes everything pending and stops the flusher. A crashed log
// closes without flushing.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	for !l.crashed && l.failure == nil && l.durable < l.next {
		l.kick()
		l.cond.Wait()
	}
	err := l.failure
	l.mu.Unlock()
	close(l.done)
	l.wg.Wait()
	if l.seg != nil {
		if cerr := l.seg.Close(); err == nil {
			err = cerr
		}
		l.seg = nil
	}
	return err
}

// registerCounters unifies the log's counters onto a metrics registry as
// snapshot-time computed values (they live under the log mutex, which a
// snapshot may briefly take).
func (l *Log) registerCounters(reg *metrics.Registry) {
	stat := func(pick func(Stats) uint64) func() uint64 {
		return func() uint64 { return pick(l.Stats()) }
	}
	reg.Func("wal.appends", stat(func(s Stats) uint64 { return s.Appends }))
	reg.Func("wal.syncs", stat(func(s Stats) uint64 { return s.Syncs }))
	reg.Func("wal.forces", stat(func(s Stats) uint64 { return s.Forces }))
	reg.Func("wal.rotations", stat(func(s Stats) uint64 { return s.Rotations }))
	reg.Func("wal.durable_lsn", stat(func(s Stats) uint64 { return uint64(s.Durable) }))
	reg.Func("wal.next_lsn", stat(func(s Stats) uint64 { return uint64(s.Next) }))
	reg.Func("wal.checkpoints", stat(func(s Stats) uint64 { return s.Checkpoints }))
	reg.Func("wal.segments_gced", stat(func(s Stats) uint64 { return s.SegmentsGCed }))
}

// Stats snapshots the log counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{
		Appends:       l.appends,
		Syncs:         l.syncs,
		Forces:        l.forces,
		Rotations:     l.rotations,
		Durable:       l.durable,
		Next:          l.next,
		Checkpoints:   l.checkpoints,
		SegmentsGCed:  l.segsGCed,
		CheckpointLSN: l.ckptLSN,
		TruncLSN:      l.truncLSN,
		ActiveTxns:    len(l.att),
	}
}
