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
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/lock"
	"repro/internal/metrics"
	"repro/internal/spin"
	"repro/internal/storage"
	"repro/internal/tx"
	"repro/internal/wire"
)

// ErrBusy is returned for StatusBusy rejections (admission control or a full
// session queue); the caller may back off and retry.
var ErrBusy = errors.New("client: server busy")

// ErrShutdown is returned when the server is draining or the connection died.
var ErrShutdown = errors.New("client: server shutting down")

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
	// server's KeepAliveTimeout so idle-but-healthy clients are not reaped.
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
	c := &Conn{nc: nc, fw: wire.NewFrameWriter(nc), pending: map[uint32]chan reply{}, done: make(chan struct{})}
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

// backoffSleep sleeps one jittered step of cur (spin.Backoff) and returns
// the next step, doubled up to cap.
func backoffSleep(cur, cap time.Duration) time.Duration {
	d, next := spin.Backoff(cur, cap, rand.Int63n)
	time.Sleep(d)
	return next
}

// get returns the slot's connection, re-dialing with jittered capped
// backoff (bounded by redialBudget) when it is dead. Concurrent callers
// coalesce on one redial.
func (sl *slot) get() (*Conn, error) {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	if sl.c != nil && sl.c.cause() == nil {
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

// Stats fetches the counters of a protocol's server-side engine registry, by
// the names a local run's snapshot carries (lock.requests, tx.committed, …).
func (p *Pool) Stats(protocol string) (*metrics.Snapshot, error) {
	c, err := p.conn()
	if err != nil {
		return nil, err
	}
	body, err := c.roundTrip(wire.OpStats, 0, wire.AppendString(nil, protocol))
	if err != nil {
		return nil, err
	}
	r := wire.NewReader(body)
	counters := r.Counters()
	if err := r.Err(); err != nil {
		return nil, err
	}
	return &metrics.Snapshot{Counters: counters}, nil
}

// Audit runs the server-side residue audit (node.Manager.Audit) for a
// protocol — the very check a local TaMix run finishes with.
func (p *Pool) Audit(protocol string) error {
	c, err := p.conn()
	if err != nil {
		return err
	}
	_, err = c.roundTrip(wire.OpAudit, 0, wire.AppendString(nil, protocol))
	return err
}

// Conn is one TCP connection: a frame buffer under a write lock, a reader
// goroutine routing responses to waiting requests by id, and a heartbeat
// goroutine keeping the server's keep-alive check fed.
type Conn struct {
	nc      net.Conn
	nextReq atomic.Uint32
	done    chan struct{} // closed when the connection dies

	// wmu guards fw: send appends a caller's frames and writes them with one
	// Write under it, so frames never interleave.
	wmu sync.Mutex
	fw  *wire.FrameWriter

	mu      sync.Mutex
	pending map[uint32]chan reply
	err     error // why the connection died; nil while it lives
}

// reply is one response as the reader hands it to its waiter: the request id
// it answers and a private copy of the body (status byte, then the result),
// which decoded results go on aliasing.
type reply struct {
	req  uint32
	body []byte
}

// close fails the connection: every in-flight and future request returns
// cause.
func (c *Conn) close(cause error) {
	c.mu.Lock()
	if c.err != nil {
		c.mu.Unlock()
		return
	}
	c.err = cause
	c.pending = nil
	c.mu.Unlock()
	close(c.done)
	c.nc.Close()
}

// cause returns the close cause (ErrShutdown-based) or nil while live.
func (c *Conn) cause() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// readLoop routes response frames to their waiters. A mailbox always has room
// for the replies registered on it, so the send under mu never blocks — and
// no reply is delivered once close has dropped the registrations.
func (c *Conn) readLoop() {
	fr := wire.NewFrameReader(c.nc)
	for {
		payload, err := fr.Next()
		var m wire.Msg
		if err == nil {
			m, err = wire.DecodeMsg(payload)
		}
		if err != nil {
			c.close(fmt.Errorf("%w: %v", ErrShutdown, err))
			return
		}
		c.mu.Lock()
		if box := c.pending[m.Req]; box != nil {
			delete(c.pending, m.Req)
			box <- reply{m.Req, bytes.Clone(m.Body)}
		}
		c.mu.Unlock()
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
		case <-c.done:
			return
		case <-t.C:
			err := c.send(func(fw *wire.FrameWriter) error {
				return fw.End(fw.Begin(wire.Msg{Op: wire.OpHeartbeat, Req: c.nextReq.Add(1)}))
			})
			if err != nil {
				return
			}
		}
	}
}

// send lets frames append to the connection's frame buffer and writes what
// it appended with one Write. Any failure is fatal to the connection and
// comes back as its close cause.
func (c *Conn) send(frames func(fw *wire.FrameWriter) error) error {
	c.wmu.Lock()
	err := frames(c.fw)
	if err == nil {
		err = c.fw.Flush()
	}
	c.wmu.Unlock()
	if err == nil {
		return nil
	}
	c.close(fmt.Errorf("%w: %v", ErrShutdown, err))
	return c.cause()
}

// await blocks for the next reply on box, or the connection's death.
func (c *Conn) await(box chan reply) (reply, error) {
	select {
	case r := <-box:
		return r, nil
	case <-c.done:
		select {
		case r := <-box: // delivered just before the connection died
			return r, nil
		default:
			return reply{}, c.cause()
		}
	}
}

// result splits a reply body into status and result, surfacing non-OK
// statuses as the matching sentinel errors.
func (r reply) result(op wire.Op) ([]byte, error) {
	if len(r.body) == 0 {
		return nil, fmt.Errorf("client: empty response body for %s", op)
	}
	if status := wire.Status(r.body[0]); status != wire.StatusOK {
		return nil, statusError(status, r.body[1:])
	}
	return r.body[1:], nil
}

// exchange is the one way a request leaves: it sends hdr's request — hdr.Body,
// then a under shape — behind an OpBegin frame for the same session when
// begin is set, both in one Write, and returns the reply to each. box needs
// room for them. The server executes a session's pipelined requests in order,
// but a rejection can overtake a reply queued behind a worker, so the replies
// are told apart by request id.
func (c *Conn) exchange(box chan reply, begin bool, hdr wire.Msg, shape wire.ArgShape, a wire.Args) (op, bgn reply, err error) {
	n := uint32(1)
	if begin {
		n = 2
	}
	hdr.Req = c.nextReq.Add(n)
	first := hdr.Req - n + 1 // the Begin's id when begin is set, else hdr.Req
	c.mu.Lock()
	if err = c.err; err == nil {
		c.pending[first], c.pending[hdr.Req] = box, box
	}
	c.mu.Unlock()
	if err != nil {
		return op, bgn, err
	}
	err = c.send(func(fw *wire.FrameWriter) error {
		if begin {
			b := fw.Begin(wire.Msg{Op: wire.OpBegin, Session: hdr.Session, Req: first, DeadlineMS: hdr.DeadlineMS})
			if err := fw.End(b); err != nil {
				return err
			}
		}
		return fw.End(wire.AppendArgs(fw.Begin(hdr), shape, a))
	})
	for ; n > 0 && err == nil; n-- {
		var r reply
		if r, err = c.await(box); r.req == hdr.Req {
			op = r
		} else {
			bgn = r
		}
	}
	return op, bgn, err
}

// roundTrip sends one connection-scoped request (or a session's open and
// close) and blocks for its response, returning the result portion of the
// body.
func (c *Conn) roundTrip(op wire.Op, session uint32, body []byte) ([]byte, error) {
	r, _, err := c.exchange(make(chan reply, 1), false, wire.Msg{Op: op, Session: session, Body: body}, 0, wire.Args{})
	if err != nil {
		return nil, err
	}
	return r.result(op)
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
