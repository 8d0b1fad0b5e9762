// Package server implements xtcd: the TCP front end that exposes the node
// manager's transactional DOM operations over the wire protocol. One daemon
// hosts one engine per lock protocol (meta-synchronization at the session
// level: each session names its protocol at open time) and multiplexes many
// sessions over many connections.
//
// Concurrency model: each connection runs one reader goroutine; each session
// runs exactly one worker goroutine draining a bounded queue, which preserves
// the engine's one-goroutine-per-transaction discipline while letting
// sessions on the same connection proceed independently. There is no writer
// goroutine: whoever produced a reply — a session worker, or the reader for
// pings, heartbeats and rejections — appends it to the connection's frame
// buffer and writes the pending frames itself, under the connection's write
// mutex and write deadline. Admission control is two-level — a session cap at
// open time and the per-session queue bound per request — and both reject
// with StatusBusy rather than queueing unboundedly.
//
// Teardown: a dropped connection cancels its sessions' contexts, which
// aborts in-flight transactions and (through lock.Tx.SetContext) unblocks
// any pending lock waits with lock.ErrCanceled, so a dying client cannot
// strand locks. Shutdown drains the same way for every session, then audits
// every engine with LeakCheck.
package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/node"
	"repro/internal/protocol"
	"repro/internal/tx"
	"repro/internal/wire"
)

// Engine is one document under one lock protocol, shared by every session
// that names that protocol.
type Engine struct {
	// Mgr executes the DOM operations (and owns the lock and tx managers).
	Mgr *node.Manager
	// Catalog is the jump-target catalog served to remote workloads.
	Catalog wire.Catalog
	// CloseFn, when non-nil, releases engine resources (the document) after
	// the manager is closed during server shutdown.
	CloseFn func() error
}

// Config configures a Server.
type Config struct {
	// Addr is the TCP listen address ("127.0.0.1:0" for an ephemeral port).
	Addr string
	// NewEngine builds the engine for a protocol the first time a session
	// names it. The depth is the lock-depth parameter from that first
	// session; later sessions share the engine regardless of their depth.
	NewEngine func(p protocol.Protocol, depth int) (*Engine, error)
	// MaxSessions caps concurrently open sessions (default 256); opens past
	// the cap are rejected with StatusBusy.
	MaxSessions int
	// DrainTimeout bounds the graceful phase of Shutdown (default 10s).
	DrainTimeout time.Duration
	// WriteTimeout bounds each write to a connection (default 10s, negative
	// disables). A peer that accepts the TCP stream but stops reading would
	// otherwise park the replying session worker indefinitely — through
	// Shutdown's drain window included.
	WriteTimeout time.Duration
	// KeepAliveTimeout is how long a connection may stay silent before it
	// is closed and counted in server.heartbeat_misses (default 90s,
	// negative disables keep-alive enforcement). Any frame counts as a
	// heartbeat. The allowance also bounds how long a peer may stall
	// mid-frame.
	KeepAliveTimeout time.Duration
	// SessionIdleTimeout reaps sessions that executed no request (and were
	// not heartbeat-touched) for this long (default 5m, negative disables).
	// Reaping aborts the session's transaction, releases its locks through
	// the context-cancellation path, and frees the session slot; the
	// connection itself stays up. Counted in server.reaped_sessions. The
	// reaper scans every SessionIdleTimeout/4, clamped to [100ms, 30s].
	SessionIdleTimeout time.Duration
	// Metrics receives the server.* instruments (a private registry is used
	// when nil).
	Metrics *metrics.Registry
	// Logf, when non-nil, receives connection-level diagnostics.
	Logf func(format string, args ...any)
}

// engineSlot guards lazy engine construction so concurrent opens of the same
// protocol build it exactly once.
type engineSlot struct {
	once sync.Once
	eng  *Engine
	err  error
}

// Server is a running xtcd instance.
type Server struct {
	cfg Config
	ln  net.Listener
	reg *metrics.Registry

	baseCtx context.Context
	cancel  context.CancelFunc

	mu       sync.Mutex
	engines  map[string]*engineSlot
	sessions map[uint32]*session
	// fates are tombstones for finished sessions: the outcome of each one's
	// last transaction, kept so a reconnecting client's OpResumeSession can
	// learn whether its severed commit landed. Consumed (deleted) by resume;
	// cleared wholesale past fateTombstoneCap — fate reporting is best-effort.
	fates    map[uint32]fateRecord
	conns    map[*conn]struct{}
	nextSess uint32
	draining bool

	connWG sync.WaitGroup
	sessWG sync.WaitGroup

	mAccepted *metrics.Counter
	mRejected *metrics.Counter
	mActive   *metrics.Gauge
	mQueue    *metrics.Gauge
	mRequests *metrics.Counter
	mBusy     *metrics.Counter
	mConns    *metrics.Gauge
	mLatency  *metrics.Histogram
	mReaped   *metrics.Counter
	mHBMiss   *metrics.Counter
	mResumed  *metrics.Counter
}

// Listen binds cfg.Addr and returns a server ready to Serve.
func Listen(cfg Config) (*Server, error) {
	if cfg.NewEngine == nil {
		return nil, errors.New("server: Config.NewEngine is required")
	}
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = 256
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 10 * time.Second
	}
	if cfg.WriteTimeout == 0 {
		cfg.WriteTimeout = 10 * time.Second
	}
	if cfg.KeepAliveTimeout == 0 {
		cfg.KeepAliveTimeout = 90 * time.Second
	}
	if cfg.SessionIdleTimeout == 0 {
		cfg.SessionIdleTimeout = 5 * time.Minute
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:      cfg,
		ln:       ln,
		reg:      cfg.Metrics,
		baseCtx:  ctx,
		cancel:   cancel,
		engines:  map[string]*engineSlot{},
		sessions: map[uint32]*session{},
		fates:    map[uint32]fateRecord{},
		conns:    map[*conn]struct{}{},

		mAccepted: cfg.Metrics.Counter("server.sessions_accepted"),
		mRejected: cfg.Metrics.Counter("server.sessions_rejected"),
		mActive:   cfg.Metrics.Gauge("server.sessions_active"),
		mQueue:    cfg.Metrics.Gauge("server.queue_depth"),
		mRequests: cfg.Metrics.Counter("server.requests"),
		mBusy:     cfg.Metrics.Counter("server.busy_rejects"),
		mConns:    cfg.Metrics.Gauge("server.conns_active"),
		mLatency:  cfg.Metrics.Histogram("server.request_ns"),
		mReaped:   cfg.Metrics.Counter("server.reaped_sessions"),
		mHBMiss:   cfg.Metrics.Counter("server.heartbeat_misses"),
		mResumed:  cfg.Metrics.Counter("server.sessions_resumed"),
	}
	if s.cfg.SessionIdleTimeout > 0 {
		go s.reaper()
	}
	return s, nil
}

// reaper periodically cancels sessions idle past SessionIdleTimeout. The
// cancellation travels the same path a dead connection takes: the session
// worker aborts the in-flight transaction (unblocking pending lock waits
// via lock.ErrCanceled), answers queued requests with StatusShutdown, and
// frees the slot — so a wedged client cannot park locks forever even while
// its TCP connection stays alive.
func (s *Server) reaper() {
	every := min(max(s.cfg.SessionIdleTimeout/4, 100*time.Millisecond), 30*time.Second)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case <-t.C:
		}
		cutoff := time.Now().Add(-s.cfg.SessionIdleTimeout).UnixNano()
		var victims []*session
		s.mu.Lock()
		for _, sess := range s.sessions {
			if sess.lastUsed.Load() < cutoff {
				victims = append(victims, sess)
			}
		}
		s.mu.Unlock()
		for _, sess := range victims {
			s.mReaped.Add(1)
			s.logf("server: reaping session %d (idle > %v)", sess.id, s.cfg.SessionIdleTimeout)
			sess.cancel()
		}
	}
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Metrics returns the registry holding the server.* instruments.
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// Snapshot captures the server.* instruments and, as "engine.<protocol>.<name>",
// those of every engine built so far: the counters OpStats ships for that
// protocol plus the engine's gauges and histograms. It waits out an engine
// build in progress.
func (s *Server) Snapshot() *metrics.Snapshot {
	snap := s.reg.Snapshot()
	for name, eng := range s.builtEngines() {
		snap.MergeAs("engine."+name+".", eng.Mgr.Metrics().Snapshot())
	}
	return snap
}

// builtEngines returns the engines built so far by protocol name, waiting
// out a build in progress.
func (s *Server) builtEngines() map[string]*Engine {
	s.mu.Lock()
	slots := make(map[string]*engineSlot, len(s.engines))
	for name, slot := range s.engines {
		slots[name] = slot
	}
	s.mu.Unlock()
	engines := make(map[string]*Engine, len(slots))
	for name, slot := range slots {
		slot.once.Do(func() {})
		if slot.err == nil && slot.eng != nil {
			engines[name] = slot.eng
		}
	}
	return engines
}

// Serve accepts connections until the listener is closed by Shutdown.
func (s *Server) Serve() error {
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			if draining {
				return nil
			}
			return err
		}
		c := &conn{
			srv:      s,
			nc:       nc,
			fr:       wire.NewFrameReader(nc),
			fw:       wire.NewFrameWriter(nc),
			closed:   make(chan struct{}),
			sessions: map[uint32]*session{},
		}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			nc.Close()
			continue
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.mConns.Add(1)
		s.connWG.Add(1)
		go c.readLoop()
	}
}

// logf forwards to Config.Logf when set.
func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// engine returns (building on first use) the engine for a protocol.
func (s *Server) engine(p protocol.Protocol, depth int) (*Engine, error) {
	s.mu.Lock()
	slot, ok := s.engines[p.Name()]
	if !ok {
		slot = &engineSlot{}
		s.engines[p.Name()] = slot
	}
	s.mu.Unlock()
	slot.once.Do(func() {
		slot.eng, slot.err = s.cfg.NewEngine(p, depth)
		if slot.err != nil {
			slot.err = fmt.Errorf("server: engine %s: %w", p.Name(), slot.err)
		}
	})
	return slot.eng, slot.err
}

// lookupEngine returns an already-built engine without creating one.
func (s *Server) lookupEngine(name string) *Engine {
	p, err := protocol.Parse(name)
	if err != nil {
		return nil
	}
	s.mu.Lock()
	slot := s.engines[p.Name()]
	s.mu.Unlock()
	if slot == nil {
		return nil
	}
	slot.once.Do(func() {}) // wait out a concurrent build
	if slot.err != nil {
		return nil
	}
	return slot.eng
}

// Shutdown drains the server: stop accepting, cancel every session (aborting
// in-flight transactions and unblocking pending lock waits), wait out the
// drain, hard-close surviving connections, then audit every engine for lock
// residue. The returned error aggregates audit failures — a clean shutdown
// returns nil, so callers can turn residue into a non-zero exit status.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return errors.New("server: already shut down")
	}
	s.draining = true
	s.mu.Unlock()

	s.ln.Close()
	s.cancel() // every session ctx derives from baseCtx

	drained := make(chan struct{})
	go func() { s.sessWG.Wait(); close(drained) }()
	timer := time.NewTimer(s.cfg.DrainTimeout)
	defer timer.Stop()
	select {
	case <-drained:
	case <-ctx.Done():
	case <-timer.C:
		s.logf("server: drain timeout after %v", s.cfg.DrainTimeout)
	}

	// Hard-close whatever connections remain; their readers (and any worker
	// blocked in a write) unblock with errors and the conn teardown reaps any
	// session a worker still holds.
	s.mu.Lock()
	for c := range s.conns {
		c.nc.Close()
	}
	s.mu.Unlock()
	s.connWG.Wait()
	s.sessWG.Wait()

	var errs []error
	for _, eng := range s.builtEngines() {
		if err := eng.Mgr.LockManager().LeakCheck(); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", eng.Mgr.Protocol().Name(), err))
		}
		eng.Mgr.Close()
		if eng.CloseFn != nil {
			if err := eng.CloseFn(); err != nil {
				errs = append(errs, fmt.Errorf("%s: close: %w", eng.Mgr.Protocol().Name(), err))
			}
		}
	}
	return errors.Join(errs...)
}

// conn is one accepted TCP connection: a reader goroutine decoding frames
// and routing them, and a frame buffer the repliers share.
type conn struct {
	srv    *Server
	nc     net.Conn
	fr     *wire.FrameReader // the reader goroutine's
	closed chan struct{}
	once   sync.Once

	// wmu serializes the repliers: frames are appended to fw and written to
	// the socket only under it, so frames never interleave.
	wmu sync.Mutex
	fw  *wire.FrameWriter

	// sessions opened on this connection (guarded by srv.mu); a dying
	// connection cancels exactly these.
	sessions map[uint32]*session
}

// close tears the connection down once: closes the socket (failing any write
// in progress) and cancels every session the connection owns.
func (c *conn) close() {
	c.once.Do(func() {
		close(c.closed)
		c.nc.Close()
		c.srv.mu.Lock()
		delete(c.srv.conns, c)
		sessions := make([]*session, 0, len(c.sessions))
		for _, sess := range c.sessions {
			sessions = append(sessions, sess)
		}
		c.srv.mu.Unlock()
		c.srv.mConns.Add(-1)
		for _, sess := range sessions {
			sess.cancel()
		}
	})
}

// result is a reply body not yet encoded: the already-encoded bytes of a
// control reply, then a node operation's Result under the shape that encodes
// it. Either part may be empty.
type result struct {
	raw   []byte
	shape wire.ResultShape
	res   wire.Result
}

func (r result) appendTo(dst []byte) []byte {
	return wire.AppendResult(append(dst, r.raw...), r.shape, r.res)
}

// reply appends the response to m — header, status byte, result — to the
// connection's frame buffer and, when flush is set, writes every pending
// frame with one Write under the write deadline: a peer that stops reading
// fails the write within WriteTimeout instead of parking the replier (and
// everyone waiting on wmu) forever. A replier that knows another reply of its
// own follows at once passes flush=false so the two leave together. Any
// failure closes the connection; replies to a closed connection are dropped
// (the client is gone; nobody is waiting).
func (c *conn) reply(m wire.Msg, status wire.Status, r result, flush bool) {
	var err error
	c.wmu.Lock()
	select {
	case <-c.closed:
	default:
		b := c.fw.Begin(wire.Msg{Op: m.Op, Session: m.Session, Req: m.Req})
		if err = c.fw.End(r.appendTo(append(b, byte(status)))); err == nil && flush {
			if wt := c.srv.cfg.WriteTimeout; wt > 0 {
				c.nc.SetWriteDeadline(time.Now().Add(wt))
			}
			err = c.fw.Flush()
		}
	}
	c.wmu.Unlock()
	if err != nil {
		c.srv.logf("server: %s: write: %v", c.nc.RemoteAddr(), err)
		c.close()
	}
}

// replyErr sends a failure response carrying the error text.
func (c *conn) replyErr(m wire.Msg, status wire.Status, err error) {
	c.reply(m, status, result{raw: wire.AppendString(nil, err.Error())}, true)
}

// readLoop decodes frames and routes them until the connection dies. Any
// framing error is fatal to the connection: a peer that desynchronizes the
// stream cannot be trusted to resynchronize it. Each received frame renews
// the keep-alive allowance; a connection silent (or stalled mid-frame) past
// KeepAliveTimeout is closed as missing its heartbeats.
func (c *conn) readLoop() {
	defer c.srv.connWG.Done()
	defer c.close()
	window := c.srv.cfg.KeepAliveTimeout
	for {
		if window > 0 {
			c.nc.SetReadDeadline(time.Now().Add(window))
		}
		payload, err := c.fr.Next()
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				c.srv.mHBMiss.Add(1)
				c.srv.logf("server: %s: silent for %v, closing", c.nc.RemoteAddr(), window)
			}
			return
		}
		m, err := wire.DecodeMsg(payload)
		if err != nil {
			c.srv.logf("server: %s: bad message: %v", c.nc.RemoteAddr(), err)
			return
		}
		c.srv.dispatch(c, m)
	}
}

// dispatch routes one decoded request, whose body still aliases the
// connection's read buffer. Pings and heartbeats are answered in place;
// everything else outlives this call and gets its own copy of the body.
// Connection-scoped ops run on short spawned goroutines (opening a session
// may build an engine, which loads a document); session ops are enqueued to
// the session's worker.
func (s *Server) dispatch(c *conn, m wire.Msg) {
	s.mRequests.Add(1)
	switch m.Op {
	case wire.OpPing:
		c.reply(m, wire.StatusOK, result{raw: m.Body}, true)
		return
	case wire.OpHeartbeat:
		// The frame itself already renewed the connection's read-idle
		// allowance; a session-scoped heartbeat additionally refreshes that
		// session's reaper clock (a client may legitimately hold a session
		// idle between bursts).
		if m.Session != 0 {
			s.mu.Lock()
			if sess := s.sessions[m.Session]; sess != nil && sess.c == c {
				sess.touch()
			}
			s.mu.Unlock()
		}
		c.reply(m, wire.StatusOK, result{}, true)
		return
	}
	m.Body = bytes.Clone(m.Body)
	switch m.Op {
	case wire.OpOpenSession:
		go s.openSession(c, m)
		return
	case wire.OpResumeSession:
		go s.resumeSession(c, m)
		return
	case wire.OpStats:
		go s.serveStats(c, m)
		return
	case wire.OpAudit:
		go s.serveAudit(c, m)
		return
	}

	// An opcode outside the operation table is the client's fault; reject it
	// here, before it can occupy a session-queue slot.
	if _, ok := m.Op.Spec(); !ok {
		c.replyErr(m, wire.StatusBadRequest, fmt.Errorf("server: unknown opcode %s", m.Op))
		return
	}
	s.mu.Lock()
	sess := s.sessions[m.Session]
	s.mu.Unlock()
	if sess == nil || sess.c != c {
		// Not necessarily misuse: the session may have been reaped for
		// idleness or torn down by a drain while the connection stayed up.
		// The dedicated status lets the client resume instead of erroring.
		c.replyErr(m, wire.StatusNoSession, fmt.Errorf("server: no session %d on this connection", m.Session))
		return
	}
	sess.touch()
	// The depth rises before the send: once m is queued, the worker may take
	// it and lower the depth before this goroutine runs again.
	s.mQueue.Add(1)
	select {
	case sess.queue <- m:
	default:
		s.mQueue.Add(-1)
		s.mBusy.Add(1)
		c.replyErr(m, wire.StatusBusy, fmt.Errorf("server: session %d queue full", m.Session))
	}
}

// openSession admits (or rejects) a new session and starts its worker.
func (s *Server) openSession(c *conn, m wire.Msg) {
	r := wire.NewReader(m.Body)
	open := r.OpenSession()
	if r.Err() != nil {
		c.replyErr(m, wire.StatusBadRequest, r.Err())
		return
	}
	s.admitSession(c, m, open, nil)
}

// resumeFateWait bounds how long a resume waits for the stale session's
// worker to finish so the fate of its last transaction is final. A worker
// wedged past this resumes with FateUnknown rather than blocking the client.
const resumeFateWait = 5 * time.Second

// resumeSession re-establishes a session for a reconnected client: evict the
// stale predecessor if it survived (its transaction aborts and its locks
// release through the cancellation path — the old connection may be dead
// without the server having noticed yet), then admit a replacement with the
// same parameters. The old transaction is gone either way; resumption
// restores the session slot, not in-flight work — but the response reports
// the FATE of the old session's last transaction (committed/aborted), so a
// client whose commit reply was severed learns the true outcome instead of
// living with at-least-once ambiguity.
func (s *Server) resumeSession(c *conn, m wire.Msg) {
	r := wire.NewReader(m.Body)
	rs := r.ResumeSession()
	if r.Err() != nil {
		c.replyErr(m, wire.StatusBadRequest, r.Err())
		return
	}
	s.mu.Lock()
	stale := s.sessions[rs.Old]
	s.mu.Unlock()
	if stale != nil {
		s.logf("server: resume evicting stale session %d", rs.Old)
		stale.cancel()
		// The fate is final only once the stale worker exited (a teardown
		// abort must be recorded before we claim anything).
		select {
		case <-stale.done:
		case <-time.After(resumeFateWait):
		}
	}
	fate := wire.ResumeResult{Fate: wire.FateUnknown}
	s.mu.Lock()
	if fr, ok := s.fates[rs.Old]; ok {
		fate.Fate, fate.FateTxn = fr.fate, fr.txn
		delete(s.fates, rs.Old)
	}
	s.mu.Unlock()
	s.mResumed.Add(1)
	s.admitSession(c, m, rs.Open, &fate)
}

// admitSession runs admission control and, when admitted, registers the new
// session and starts its worker — the shared tail of open and resume. resume
// is nil for a fresh open; a resume passes the fate report to deliver, and
// the reply carries it after the session id.
func (s *Server) admitSession(c *conn, m wire.Msg, open wire.OpenSession, resume *wire.ResumeResult) {
	p, err := protocol.Parse(open.Protocol)
	if err != nil {
		c.replyErr(m, wire.StatusBadRequest, err)
		return
	}
	iso, err := isolationLevel(open.Isolation)
	if err != nil {
		c.replyErr(m, wire.StatusBadRequest, err)
		return
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		c.replyErr(m, wire.StatusShutdown, errors.New("server: draining"))
		return
	}
	if len(s.sessions) >= s.cfg.MaxSessions {
		s.mu.Unlock()
		s.mRejected.Add(1)
		c.replyErr(m, wire.StatusBusy, fmt.Errorf("server: session limit %d reached", s.cfg.MaxSessions))
		return
	}
	s.mu.Unlock()

	eng, err := s.engine(p, open.Depth)
	if err != nil {
		c.replyErr(m, wire.StatusErr, err)
		return
	}
	if iso == tx.LevelSnapshot && !eng.Mgr.SnapshotsEnabled() {
		c.replyErr(m, wire.StatusBadRequest, fmt.Errorf(
			"server: engine for %s has no snapshot reads (no WAL attached)", p.Name()))
		return
	}

	ctx, cancel := context.WithCancel(s.baseCtx)
	sess := &session{
		eng:    eng,
		iso:    iso,
		c:      c,
		queue:  make(chan wire.Msg, sessionQueue),
		ctx:    ctx,
		cancel: cancel,
		done:   make(chan struct{}),
	}
	sess.touch()

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		cancel()
		c.replyErr(m, wire.StatusShutdown, errors.New("server: draining"))
		return
	}
	s.nextSess++
	sess.id = s.nextSess
	s.sessions[sess.id] = sess
	c.sessions[sess.id] = sess
	s.mu.Unlock()

	s.mAccepted.Add(1)
	s.mActive.Add(1)
	s.sessWG.Add(1)
	go s.sessionWorker(sess)
	if resume != nil {
		resume.ID = sess.id
		c.reply(m, wire.StatusOK, result{raw: wire.AppendResumeResult(nil, *resume)}, true)
		return
	}
	c.reply(m, wire.StatusOK, result{raw: wire.AppendUvarint(nil, uint64(sess.id))}, true)
}

// serveStats answers OpStats: the counters of one protocol's engine
// registry, by name.
func (s *Server) serveStats(c *conn, m wire.Msg) {
	name := wire.NewReader(m.Body).String()
	eng := s.lookupEngine(name)
	if eng == nil {
		c.replyErr(m, wire.StatusNotFound, fmt.Errorf("server: no engine for protocol %q", name))
		return
	}
	body, err := wire.AppendCounters(nil, eng.Mgr.Metrics().Snapshot().Counters)
	if err != nil {
		c.replyErr(m, wire.StatusErr, err)
		return
	}
	c.reply(m, wire.StatusOK, result{raw: body}, true)
}

// serveAudit answers OpAudit with the engine's residue audit — the same
// node.Manager.Audit a local TaMix run ends with.
func (s *Server) serveAudit(c *conn, m wire.Msg) {
	name := wire.NewReader(m.Body).String()
	eng := s.lookupEngine(name)
	if eng == nil {
		c.replyErr(m, wire.StatusNotFound, fmt.Errorf("server: no engine for protocol %q", name))
		return
	}
	if err := eng.Mgr.Audit(); err != nil {
		c.replyErr(m, wire.StatusErr, err)
		return
	}
	c.reply(m, wire.StatusOK, result{}, true)
}
