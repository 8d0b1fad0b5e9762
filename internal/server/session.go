package server

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/lock"
	"repro/internal/storage"
	"repro/internal/tx"
	"repro/internal/wire"
)

// sessionQueue bounds each session's request queue; requests past it are
// rejected with StatusBusy. A constant, not a Config field: no caller has a
// reason to run a session's queue at another depth.
const sessionQueue = 16

// session is one client session: a protocol choice, at most one active
// transaction, and a single worker goroutine draining a bounded queue — the
// one-goroutine-per-transaction discipline the engine requires, enforced
// structurally.
type session struct {
	id     uint32
	eng    *Engine
	iso    tx.Level
	c      *conn
	queue  chan wire.Msg
	ctx    context.Context
	cancel context.CancelFunc

	// txn is the active transaction; touched only by the worker goroutine.
	txn *tx.Txn

	// done is closed when the session worker exits; after that the fate
	// fields below are final (they are written only by the worker goroutine,
	// and resumeSession reads them through the server's fate tombstones).
	done chan struct{}
	// lastTxnID and lastTxnFate record the outcome of the session's most
	// recent transaction (wire.Fate* codes) for resume-fate reporting.
	lastTxnID   uint64
	lastTxnFate uint8

	// lastUsed is the idle clock the reaper reads: UnixNano of the last
	// dispatched request or session-scoped heartbeat.
	lastUsed atomic.Int64
}

// fateRecord is the server-side tombstone of a finished session: what became
// of its last transaction.
type fateRecord struct {
	txn  uint64
	fate uint8
}

// fateTombstoneCap bounds the tombstone map; past it the map is cleared
// wholesale (fate reporting is best-effort, and a well-behaved client
// consumes its tombstone on resume).
const fateTombstoneCap = 8192

// noteFate records the outcome of the session's most recent transaction.
// Worker goroutine only.
func (sess *session) noteFate(id uint64, fate uint8) {
	sess.lastTxnID, sess.lastTxnFate = id, fate
}

// touch refreshes the session's idle clock.
func (sess *session) touch() {
	sess.lastUsed.Store(time.Now().UnixNano())
}

// isolationLevel validates the wire isolation byte. An out-of-range value is
// a malformed request to reject (StatusBadRequest), not a preference to
// silently coerce — a client asking for an isolation level this server does
// not know must not run at a different one without noticing.
func isolationLevel(b uint8) (tx.Level, error) {
	l := tx.Level(b)
	if l < tx.LevelNone || l > tx.LevelSnapshot {
		return 0, fmt.Errorf("server: invalid isolation level %d", b)
	}
	return l, nil
}

// statusOf maps an engine error to its wire status, preserving the
// distinctions remote clients must see: abort-worthy failures (deadlock
// victim, lock timeout) versus vanished targets versus cancellation.
func statusOf(err error) wire.Status {
	switch {
	case errors.Is(err, lock.ErrDeadlockVictim):
		return wire.StatusDeadlock
	case errors.Is(err, lock.ErrLockTimeout):
		return wire.StatusTimeout
	case errors.Is(err, lock.ErrCanceled):
		return wire.StatusCanceled
	case errors.Is(err, storage.ErrNodeNotFound):
		return wire.StatusNotFound
	case errors.Is(err, tx.ErrTxnDone):
		return wire.StatusTxDone
	case errors.Is(err, errBadRequest):
		return wire.StatusBadRequest
	default:
		return wire.StatusErr
	}
}

// sessionWorker drains the session queue until the session closes or its
// context is canceled (connection death or server drain).
func (s *Server) sessionWorker(sess *session) {
	defer s.sessWG.Done()
	defer close(sess.done)
	for {
		select {
		case <-sess.ctx.Done():
			s.teardown(sess)
			return
		case m := <-sess.queue:
			s.mQueue.Add(-1)
			if m.Op == wire.OpCloseSession {
				s.finishSession(sess)
				sess.c.reply(m, wire.StatusOK, result{}, true)
				return
			}
			s.handle(sess, m)
		}
	}
}

// teardown reaps a canceled session: execute any transaction-resolving
// request that fully arrived before the cancellation, abort whatever is
// still in flight, answer everything else queued with StatusShutdown, and
// release the slot.
func (s *Server) teardown(sess *session) {
	// A commit (or abort) frame the connection delivered before dying was
	// received — the readLoop enqueues it before the failed read that closes
	// the connection, so it is already in the queue when the cancellation
	// fires, racing the worker's select. Discarding it would abort a commit
	// the server took delivery of and make the resume fate report claim
	// FateAborted for a request the client is entitled to see honored.
	// Execute it instead; the reply is likely lost with the connection, but
	// the fate tombstone finishSession leaves carries the outcome.
	for drained := false; !drained; {
		select {
		case m := <-sess.queue:
			s.mQueue.Add(-1)
			if (m.Op == wire.OpCommit || m.Op == wire.OpAbort) &&
				sess.txn != nil && sess.txn.Active() {
				s.handle(sess, m)
				continue
			}
			sess.c.replyErr(m, wire.StatusShutdown, errors.New("server: session closed"))
		default:
			drained = true
		}
	}
	s.finishSession(sess)
	for {
		select {
		case m := <-sess.queue:
			s.mQueue.Add(-1)
			sess.c.replyErr(m, wire.StatusShutdown, errors.New("server: session closed"))
		default:
			return
		}
	}
}

// finishSession aborts any active transaction and unregisters the session,
// leaving a fate tombstone so a later resume can report what became of the
// session's last transaction.
func (s *Server) finishSession(sess *session) {
	if sess.txn != nil && sess.txn.Active() {
		// The session is going away; the abort itself must not hang on its
		// canceled context, so detach it first. Abort only releases locks —
		// it never acquires — but stay safe against future protocols.
		// Snapshot transactions have no lock context to detach.
		if ltx := sess.txn.LockTx(); ltx != nil {
			ltx.SetContext(context.Background())
		}
		sess.noteFate(sess.txn.ID(), wire.FateAborted)
		if err := sess.txn.Abort(); err != nil {
			s.logf("server: session %d: abort on teardown: %v", sess.id, err)
		}
	}
	sess.txn = nil
	sess.cancel()
	s.mu.Lock()
	if s.sessions[sess.id] == sess {
		delete(s.sessions, sess.id)
		s.mActive.Add(-1)
	}
	if sess.lastTxnFate != wire.FateUnknown {
		if len(s.fates) >= fateTombstoneCap {
			s.fates = map[uint32]fateRecord{}
		}
		s.fates[sess.id] = fateRecord{txn: sess.lastTxnID, fate: sess.lastTxnFate}
	}
	delete(sess.c.sessions, sess.id)
	s.mu.Unlock()
}

// handle executes one session-scoped request on the worker goroutine and
// writes its reply. server.request_ns times the execution alone: encoding
// the reply and the socket write are transport. While the queue still holds
// a request, this worker's next reply follows at once, so the write is left
// to it and pipelined replies leave together; the worker is the queue's only
// consumer and answers everything it takes, so a deferred frame never
// strands.
func (s *Server) handle(sess *session, m wire.Msg) {
	t0 := s.mLatency.Start()
	r, err := s.run(sess, m)
	s.mLatency.Since(t0)
	status := wire.StatusOK
	if err != nil {
		status, r = statusOf(err), result{raw: wire.AppendString(nil, err.Error())}
	}
	sess.c.reply(m, status, r, len(sess.queue) == 0)
}

// run executes one request. Its deadline (when present) is layered onto the
// session context and installed as the transaction's lock-wait context, so a
// slow lock queue cannot hold the request past its budget.
func (s *Server) run(sess *session, m wire.Msg) (result, error) {
	ctx := sess.ctx
	if m.DeadlineMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(sess.ctx, time.Duration(m.DeadlineMS)*time.Millisecond)
		defer cancel()
	}
	if sess.txn != nil && sess.txn.Active() {
		if ltx := sess.txn.LockTx(); ltx != nil {
			ltx.SetContext(ctx)
			defer ltx.SetContext(sess.ctx)
		}
	}
	return s.execute(sess, m, ctx)
}

// errNoTxn is the out-of-protocol "node op without a transaction" failure.
var errNoTxn = fmt.Errorf("%w: no active transaction", tx.ErrTxnDone)

// errBadRequest marks a node-op body that does not decode under its op's
// argument shape: the client's fault, answered with StatusBadRequest.
var errBadRequest = errors.New("server: malformed request")

// execute runs one session-scoped request against the session's engine,
// returning the result for reply to encode into the outgoing frame.
func (s *Server) execute(sess *session, m wire.Msg, ctx context.Context) (result, error) {
	mgr := sess.eng.Mgr

	// Transaction lifecycle ops.
	switch m.Op {
	case wire.OpBegin:
		if sess.txn != nil && sess.txn.Active() {
			return result{}, fmt.Errorf("server: session %d already has transaction %d", sess.id, sess.txn.ID())
		}
		sess.txn = mgr.Begin(sess.iso)
		// Snapshot transactions hold no lock context.
		if ltx := sess.txn.LockTx(); ltx != nil {
			ltx.SetContext(ctx)
		}
		return result{raw: wire.AppendUvarint(nil, sess.txn.ID())}, nil
	case wire.OpCommit:
		if sess.txn == nil {
			return result{}, errNoTxn
		}
		id := sess.txn.ID()
		err := sess.txn.Commit()
		if err != nil && sess.txn.Active() {
			// A durability failure leaves the transaction active; roll it
			// back so its locks release and the recorded fate is the truth.
			if aerr := sess.txn.Abort(); aerr != nil {
				s.logf("server: session %d: abort after failed commit: %v", sess.id, aerr)
			}
		}
		sess.txn = nil
		if err == nil {
			sess.noteFate(id, wire.FateCommitted)
		} else {
			sess.noteFate(id, wire.FateAborted)
		}
		return result{}, err
	case wire.OpAbort:
		if sess.txn == nil {
			return result{}, errNoTxn
		}
		id := sess.txn.ID()
		err := sess.txn.Abort()
		sess.txn = nil
		sess.noteFate(id, wire.FateAborted)
		return result{}, err
	case wire.OpCatalog:
		return result{raw: wire.AppendCatalog(nil, sess.eng.Catalog)}, nil
	case wire.OpLookupName:
		name := wire.NewReader(m.Body).String()
		sur, ok := mgr.Document().Vocabulary().Lookup(name)
		body := []byte{0}
		if ok {
			body[0] = 1
		}
		return result{raw: wire.AppendUvarint(body, uint64(sur))}, nil
	}

	// Everything else is a node operation — a row of the operation table —
	// and needs a transaction: decode its operands by the row's shape, run the
	// implementation node.Manager.Do binds to the row, encode the result by its
	// shape.
	if sess.txn == nil || !sess.txn.Active() {
		return result{}, errNoTxn
	}
	spec, _ := m.Op.Spec()
	args, err := wire.DecodeArgs(spec.Args, m.Body)
	if err != nil {
		return result{}, fmt.Errorf("%w: %s: %v", errBadRequest, m.Op, err)
	}
	res, err := mgr.Do(sess.txn, m.Op, args)
	return result{shape: spec.Result, res: res}, err
}
