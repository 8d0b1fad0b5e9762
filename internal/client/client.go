// Package client is the Go companion client for xtcd. A Pool dials a fixed
// set of connections and demultiplexes pipelined responses by request id;
// sessions are striped across the pool's connections (a session lives on
// exactly one connection — the server binds it there) and expose the node
// manager's operation set with the same error sentinels, so code written
// against the local engine ports to the wire by swapping the receiver.
//
// Connection lifecycle: each connection heartbeats the server so server-side
// keep-alive enforcement sees live clients, and every slot in the pool is
// self-healing — when its connection dies, the next use re-dials with
// jittered capped backoff (client.redials) and sessions on it transparently
// re-establish themselves (client.reconnects, OpResumeSession). Only the
// in-flight transaction is lost: the interrupted operation returns an error
// that satisfies node.IsAbortWorthy, so retry loops built for deadlock
// aborts absorb a server bounce unchanged.
package client

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/lock"
	"repro/internal/metrics"
	"repro/internal/storage"
	"repro/internal/tx"
	"repro/internal/wire"
)

// ErrBusy is returned for StatusBusy rejections (admission control or a full
// session queue); the caller may back off and retry.
var ErrBusy = errors.New("client: server busy")

// ErrShutdown is returned when the server is draining or the connection died.
var ErrShutdown = errors.New("client: server shutting down")

// ErrTimeout is returned when a Ping round trip got no response in time; the
// offending connection is evicted (closed) so the next use re-dials rather
// than trusting a stalled peer.
var ErrTimeout = errors.New("client: request timed out")

// ErrNoSession is returned when the server no longer knows the session the
// request named — reaped for idleness, evicted by a resume, or torn down by
// a drain while the connection stayed up. Sessions recover from it
// transparently (resume), so callers normally see ErrConnLost instead.
var ErrNoSession = errors.New("client: session no longer exists on server")

// ErrConnLost is in the chain of errors returned for operations interrupted
// by a connection loss after the session was transparently resumed: the
// in-flight transaction is gone, but the session handle is live again.
// These errors satisfy node.IsAbortWorthy — abort and retry, exactly like a
// deadlock victim. Commits are exempt from the ambiguity: the resume's fate
// report (wire.ResumeResult) says whether an interrupted commit landed, and
// Txn.Commit returns nil when it did — so a commit either returns nil (it
// landed, once) or an error chain containing ErrConnLost (it rolled back,
// unless the fate was unknowable, e.g. the old server process is gone).
var ErrConnLost = errors.New("client: connection lost")

// abortWorthyError marks an error chain abort-worthy for node.IsAbortWorthy
// without the node package importing this one. Used for connection losses
// (ErrConnLost, after a successful session resume) and for server-side
// cancellations (a draining or reaping server canceled the request — the
// transaction is being torn down and retrying it fresh is the only move).
type abortWorthyError struct{ err error }

func (e *abortWorthyError) Error() string { return e.err.Error() }
func (e *abortWorthyError) Unwrap() error { return e.err }

// AbortWorthy opts the failure into node.IsAbortWorthy.
func (e *abortWorthyError) AbortWorthy() bool { return true }

// Connection-lifecycle timing: constants, not Options, because no caller has
// a reason to run a pool at other values.
const (
	// dialTimeout bounds each dial.
	dialTimeout = 5 * time.Second
	// pingTimeout bounds each per-connection Ping round trip — one stalled
	// connection must not hang the health check; it is evicted instead.
	pingTimeout = 2 * time.Second
	// redialBackoff is the base of the jittered exponential backoff between
	// re-dial attempts. The sleep is jittered to 50-150% and doubles per
	// attempt up to redialMaxBackoff — the same shape as the TaMix restart
	// backoff.
	redialBackoff    = 25 * time.Millisecond
	redialMaxBackoff = time.Second
	// redialBudget bounds how long one operation blocks on redial/resume
	// before giving up. A server bounce shorter than this is absorbed; a
	// longer outage surfaces as a redial failure.
	redialBudget = 15 * time.Second
)

// Options configure a Pool.
type Options struct {
	// Conns is the number of TCP connections to stripe sessions over
	// (default 1).
	Conns int
	// HeartbeatInterval is the keep-alive cadence each connection ticks
	// OpHeartbeat at (default 10s, negative disables). Keep it under the
	// server's KeepAliveInterval so idle-but-healthy clients are not reaped.
	HeartbeatInterval time.Duration
	// Dialer overrides the TCP dial (fault-injection harnesses wrap
	// connections here); net.DialTimeout when nil.
	Dialer func(addr string, timeout time.Duration) (net.Conn, error)
	// Metrics, when non-nil, receives the client.* instruments.
	Metrics *metrics.Registry
}

// Pool is a set of self-healing connections to one xtcd server.
type Pool struct {
	opts  Options
	addr  string
	slots []*slot
	next  atomic.Uint64

	mu     sync.Mutex
	closed bool

	mLatency    *metrics.Histogram
	mReconnects *metrics.Counter
	mRedials    *metrics.Counter
}

// slot is one self-healing connection position in the pool: it holds the
// current connection and re-dials (with backoff) when it finds it dead.
type slot struct {
	p  *Pool
	mu sync.Mutex
	c  *Conn
}

// Dial connects opts.Conns connections to addr.
func Dial(addr string, opts Options) (*Pool, error) {
	if opts.Conns <= 0 {
		opts.Conns = 1
	}
	if opts.HeartbeatInterval == 0 {
		opts.HeartbeatInterval = 10 * time.Second
	}
	p := &Pool{
		opts:        opts,
		addr:        addr,
		mLatency:    opts.Metrics.Histogram("client.request_ns"),
		mReconnects: opts.Metrics.Counter("client.reconnects"),
		mRedials:    opts.Metrics.Counter("client.redials"),
	}
	for i := 0; i < opts.Conns; i++ {
		sl := &slot{p: p}
		c, err := p.dial()
		if err != nil {
			p.Close()
			return nil, err
		}
		sl.c = c
		p.slots = append(p.slots, sl)
	}
	return p, nil
}

// dial opens one connection (through Options.Dialer when set) and starts
// its reader and heartbeat goroutines.
func (p *Pool) dial() (*Conn, error) {
	dial := p.opts.Dialer
	if dial == nil {
		dial = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	nc, err := dial(p.addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	c := &Conn{nc: nc, pending: map[uint32]chan wire.Msg{}, hbStop: make(chan struct{})}
	go c.readLoop()
	if p.opts.HeartbeatInterval > 0 {
		go c.heartbeatLoop(p.opts.HeartbeatInterval)
	}
	return c, nil
}

// Close tears down every connection; outstanding requests fail with
// ErrShutdown and no redials happen afterwards.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	for _, sl := range p.slots {
		sl.mu.Lock()
		c := sl.c
		sl.mu.Unlock()
		if c != nil {
			c.close(ErrShutdown)
		}
	}
}

// isClosed reports whether Close has been called.
func (p *Pool) isClosed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.closed
}

// backoffSleep sleeps one jittered step (50-150% of cur) and returns the
// next step, doubled up to cap.
func backoffSleep(cur, cap time.Duration) time.Duration {
	d := cur/2 + time.Duration(rand.Int63n(int64(cur)))
	time.Sleep(d)
	if cur *= 2; cur > cap {
		cur = cap
	}
	return cur
}

// get returns the slot's connection, re-dialing with jittered capped
// backoff (bounded by redialBudget) when it is dead. Concurrent callers
// coalesce on one redial.
func (sl *slot) get() (*Conn, error) {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	if sl.c != nil && !sl.c.isClosed() {
		return sl.c, nil
	}
	p := sl.p
	if p.isClosed() {
		return nil, ErrShutdown
	}
	backoff := redialBackoff
	deadline := time.Now().Add(redialBudget)
	for {
		p.mRedials.Add(1)
		c, err := p.dial()
		if err == nil {
			sl.c = c
			return c, nil
		}
		if p.isClosed() {
			return nil, ErrShutdown
		}
		if !time.Now().Before(deadline) {
			return nil, fmt.Errorf("client: redial %s: %w", p.addr, err)
		}
		backoff = backoffSleep(backoff, redialMaxBackoff)
	}
}

// slot picks the next slot round-robin.
func (p *Pool) slot() *slot {
	return p.slots[p.next.Add(1)%uint64(len(p.slots))]
}

// conn picks the next live connection round-robin, re-dialing its slot if
// needed.
func (p *Pool) conn() (*Conn, error) {
	return p.slot().get()
}

// Ping round-trips a frame on every currently-connected slot, each under
// pingTimeout. A connection that stalls past the deadline (or fails) is
// evicted — closed, so the slot's next use re-dials — and reported; the
// remaining connections are still checked.
func (p *Pool) Ping() error {
	var errs []error
	for i, sl := range p.slots {
		sl.mu.Lock()
		c := sl.c
		sl.mu.Unlock()
		if c == nil || c.isClosed() {
			errs = append(errs, fmt.Errorf("client: conn %d: %w", i, ErrShutdown))
			continue
		}
		if _, _, err := c.roundTripTimeout(wire.OpPing, 0, 0, []byte("ping"), pingTimeout); err != nil {
			errs = append(errs, fmt.Errorf("client: conn %d: %w", i, err))
		}
	}
	return errors.Join(errs...)
}

// Stats fetches the server-side engine counters for a protocol.
func (p *Pool) Stats(protocol string) (wire.Stats, error) {
	c, err := p.conn()
	if err != nil {
		return wire.Stats{}, err
	}
	_, body, err := c.roundTrip(wire.OpStats, 0, 0, wire.AppendString(nil, protocol))
	if err != nil {
		return wire.Stats{}, err
	}
	r := wire.NewReader(body)
	st := r.Stats()
	return st, r.Err()
}

// Audit runs the server-side residue audit (node.Manager.Audit) for a
// protocol — the very check a local TaMix run finishes with.
func (p *Pool) Audit(protocol string) error {
	c, err := p.conn()
	if err != nil {
		return err
	}
	_, _, err = c.roundTrip(wire.OpAudit, 0, 0, wire.AppendString(nil, protocol))
	return err
}

// Conn is one TCP connection: a write lock serializing frames out, a reader
// goroutine routing responses to waiting requests by id, and a heartbeat
// goroutine keeping the server's keep-alive check fed.
type Conn struct {
	nc      net.Conn
	wmu     sync.Mutex
	nextReq atomic.Uint32
	hbStop  chan struct{}

	mu      sync.Mutex
	pending map[uint32]chan wire.Msg
	err     error
	closed  bool
}

// close fails the connection: every in-flight and future request returns
// cause.
func (c *Conn) close(cause error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.err = cause
	pending := c.pending
	c.pending = nil
	c.mu.Unlock()
	close(c.hbStop)
	c.nc.Close()
	for _, ch := range pending {
		close(ch)
	}
}

// isClosed reports whether the connection has died.
func (c *Conn) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// cause returns the close cause (ErrShutdown-based) or nil while live.
func (c *Conn) cause() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// readLoop routes response frames to their waiters.
func (c *Conn) readLoop() {
	for {
		payload, err := wire.ReadFrame(c.nc)
		if err != nil {
			c.close(fmt.Errorf("%w: %v", ErrShutdown, err))
			return
		}
		m, err := wire.DecodeMsg(payload)
		if err != nil {
			c.close(fmt.Errorf("%w: %v", ErrShutdown, err))
			return
		}
		c.mu.Lock()
		ch := c.pending[m.Req]
		delete(c.pending, m.Req)
		c.mu.Unlock()
		if ch != nil {
			ch <- m
		}
	}
}

// heartbeatLoop ticks OpHeartbeat frames until the connection closes. The
// responses are fire-and-forget (no pending entry; the reader drops them),
// but a failed write still detects a dead connection early.
func (c *Conn) heartbeatLoop(interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-c.hbStop:
			return
		case <-t.C:
			payload := wire.AppendMsg(nil, wire.Msg{Op: wire.OpHeartbeat, Req: c.nextReq.Add(1)})
			c.wmu.Lock()
			err := wire.WriteFrame(c.nc, payload)
			c.wmu.Unlock()
			if err != nil {
				c.close(fmt.Errorf("%w: heartbeat: %v", ErrShutdown, err))
				return
			}
		}
	}
}

// roundTrip sends one request and blocks for its response, returning the
// result portion of the body (after the status byte). Non-OK statuses are
// surfaced as the matching sentinel errors.
func (c *Conn) roundTrip(op wire.Op, session uint32, deadlineMS uint32, body []byte) (wire.Status, []byte, error) {
	return c.roundTripTimeout(op, session, deadlineMS, body, 0)
}

// roundTripTimeout is roundTrip with a client-side wall bound: when timeout
// is positive and no response arrives in time, the connection is evicted
// (closed — its response demux can no longer be trusted to be prompt) and
// the call fails with ErrTimeout.
func (c *Conn) roundTripTimeout(op wire.Op, session uint32, deadlineMS uint32, body []byte, timeout time.Duration) (wire.Status, []byte, error) {
	req := c.nextReq.Add(1)
	ch := make(chan wire.Msg, 1)
	c.mu.Lock()
	if c.closed {
		err := c.err
		c.mu.Unlock()
		return wire.StatusShutdown, nil, err
	}
	c.pending[req] = ch
	c.mu.Unlock()

	payload := wire.AppendMsg(nil, wire.Msg{
		Op: op, Session: session, Req: req, DeadlineMS: deadlineMS, Body: body,
	})
	c.wmu.Lock()
	err := wire.WriteFrame(c.nc, payload)
	c.wmu.Unlock()
	if err != nil {
		c.close(fmt.Errorf("%w: %v", ErrShutdown, err))
		c.mu.Lock()
		delete(c.pending, req)
		c.mu.Unlock()
		return wire.StatusShutdown, nil, c.cause()
	}

	var timeoutCh <-chan time.Time
	if timeout > 0 {
		timer := time.NewTimer(timeout)
		defer timer.Stop()
		timeoutCh = timer.C
	}
	select {
	case m, ok := <-ch:
		if !ok {
			return wire.StatusShutdown, nil, c.cause()
		}
		if len(m.Body) == 0 {
			return wire.StatusErr, nil, fmt.Errorf("client: empty response body for %s", op)
		}
		status := wire.Status(m.Body[0])
		rest := m.Body[1:]
		if status != wire.StatusOK {
			return status, nil, statusError(status, rest)
		}
		return status, rest, nil
	case <-timeoutCh:
		terr := fmt.Errorf("%w: %s after %v", ErrTimeout, op, timeout)
		c.close(fmt.Errorf("%w: %v", ErrShutdown, terr))
		return wire.StatusShutdown, nil, terr
	}
}

// statusError converts a non-OK response to an error wrapping the sentinel
// the local engine would have returned, so errors.Is-based control flow
// (node.IsAbortWorthy, vanished-target checks) works unchanged over the
// wire.
func statusError(status wire.Status, body []byte) error {
	msg := wire.NewReader(body).String()
	if msg == "" {
		msg = status.String()
	}
	var base error
	switch status {
	case wire.StatusDeadlock:
		base = lock.ErrDeadlockVictim
	case wire.StatusTimeout:
		base = lock.ErrLockTimeout
	case wire.StatusCanceled:
		base = lock.ErrCanceled
	case wire.StatusNotFound:
		base = storage.ErrNodeNotFound
	case wire.StatusTxDone:
		base = tx.ErrTxnDone
	case wire.StatusBusy:
		base = ErrBusy
	case wire.StatusShutdown:
		base = ErrShutdown
	case wire.StatusNoSession:
		base = ErrNoSession
	default:
		return fmt.Errorf("client: server error: %s", msg)
	}
	err := fmt.Errorf("%w: %s", base, msg)
	if status == wire.StatusCanceled {
		// The server canceled the request — it is draining or reaping this
		// session and the transaction is going away. Mark it abort-worthy so
		// restart loops treat a server bounce like a deadlock abort.
		return &abortWorthyError{err}
	}
	return err
}
