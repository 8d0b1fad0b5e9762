package client_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/bibserve"
	"repro/internal/client"
	"repro/internal/node"
	"repro/internal/server"
	"repro/internal/tamix"
	"repro/internal/tx"
	"repro/internal/wire"
)

// A Begin costs no round trip: its frame leaves in the same Write as the
// session's next request. These tests pin the bytes of that Write and what
// the deferral must not change — exactly-once transaction fate when the wire
// is cut around it, a transaction with no operation, an id asked for early,
// and a server that goes away between Begin and the first operation.

// wireTap wraps the connections a Dialer hands out: it records every Write,
// and while armed cuts the connection around the first Write that starts with
// an OpBegin frame — before it leaves (cutBefore), or once the server has
// answered its last frame (cutAfter: the replies are dropped, so the server
// did the work and the client never hears of it).
type wireTap struct {
	mu       sync.Mutex
	writes   [][]byte
	armed    cutMode
	draining net.Conn // the connection whose next Read is cut
	lastReq  uint32   // the request whose reply completes the cut
}

type cutMode int

const (
	noCut cutMode = iota
	cutBefore
	cutAfter
)

func (w *wireTap) dial(addr string, timeout time.Duration) (net.Conn, error) {
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return &tappedConn{Conn: nc, tap: w}, nil
}

func (w *wireTap) arm(m cutMode) {
	w.mu.Lock()
	w.armed = m
	w.mu.Unlock()
}

// lastWrite returns the most recent Write.
func (w *wireTap) lastWrite() []byte {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.writes[len(w.writes)-1]
}

type tappedConn struct {
	net.Conn
	tap *wireTap
}

func (c *tappedConn) Write(b []byte) (int, error) {
	w := c.tap
	w.mu.Lock()
	w.writes = append(w.writes, append([]byte{}, b...))
	mode := noCut
	if len(b) > 4 && wire.Op(b[4]) == wire.OpBegin {
		mode, w.armed = w.armed, noCut
	}
	if mode == cutAfter {
		w.draining, w.lastReq = c.Conn, lastReq(b)
	}
	w.mu.Unlock()
	if mode == cutBefore {
		c.Conn.Close()
		return 0, errors.New("wiretap: connection cut before the Begin left")
	}
	return c.Conn.Write(b)
}

// Read cuts the draining connection once the reply to the tapped Write's last
// frame is in, swallowing it and every reply before it. Cutting at the first
// reply bytes could cut before the server read the later frames.
func (c *tappedConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.tap.mu.Lock()
	cut, last := c.tap.draining == c.Conn && n > 0, c.tap.lastReq
	c.tap.mu.Unlock()
	if !cut {
		return n, err
	}
	fr := wire.NewFrameReader(io.MultiReader(bytes.NewReader(b[:n]), c.Conn))
	for {
		p, err := fr.Next()
		if err != nil {
			break
		}
		if m, err := wire.DecodeMsg(p); err == nil && m.Req == last {
			break
		}
	}
	c.Conn.Close()
	return 0, errors.New("wiretap: connection cut before the replies arrived")
}

// lastReq returns the request id of the last frame in a Write's bytes.
func lastReq(b []byte) (req uint32) {
	fr := wire.NewFrameReader(bytes.NewReader(b))
	for p, err := fr.Next(); err == nil; p, err = fr.Next() {
		if m, err := wire.DecodeMsg(p); err == nil {
			req = m.Req
		}
	}
	return req
}

// beginFixture is a loopback server, a one-connection pool dialled through a
// wireTap (no heartbeats, so request ids and writes are the test's alone) and
// one session that knows a book.
type beginFixture struct {
	srv  *server.Server
	tap  *wireTap
	pool *client.Pool
	sess *client.Session
	book string
}

func newBeginFixture(t *testing.T) *beginFixture {
	t.Helper()
	f := &beginFixture{tap: &wireTap{}}
	var err error
	if f.srv, err = bibserve.Start(bibserve.Options{Bib: tamix.Scaled(0.01)}, server.Config{}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { shutdown(t, f.srv) })
	f.open(t)
	cat, err := f.sess.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	f.book = cat.Books[0]
	return f
}

func (f *beginFixture) open(t *testing.T) {
	t.Helper()
	var err error
	if f.pool, err = client.Dial(f.srv.Addr(), client.Options{HeartbeatInterval: -1, Dialer: f.tap.dial}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.pool.Close)
	if f.sess, err = f.pool.OpenSession("taDOM3+", tx.LevelRepeatable, 7); err != nil {
		t.Fatal(err)
	}
}

// lends counts the book's lend records in a transaction of its own.
func (f *beginFixture) lends(t *testing.T) int {
	t.Helper()
	txn, err := f.sess.Begin()
	if err != nil {
		t.Fatal(err)
	}
	book, err := f.sess.JumpToID(f.book)
	if err != nil {
		t.Fatal(err)
	}
	history, err := f.sess.LastChild(book.ID)
	if err != nil {
		t.Fatal(err)
	}
	lends, err := f.sess.GetChildren(history.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	return len(lends)
}

// committed reads the engine's count of committed transactions.
func (f *beginFixture) committed(t *testing.T) uint64 {
	t.Helper()
	st, err := f.pool.Stats("taDOM3+")
	if err != nil {
		t.Fatal(err)
	}
	return st.CounterValue("tx.committed")
}

// TestBeginRidesWithFirstRequestGolden: Begin itself writes nothing, and the
// first request's Write is byte for byte the OpBegin frame followed by the
// request's frame, as AppendMsg+WriteFrame build them.
func TestBeginRidesWithFirstRequestGolden(t *testing.T) {
	f := newBeginFixture(t)
	f.tap.mu.Lock()
	before := len(f.tap.writes)
	f.tap.mu.Unlock()
	txn, err := f.sess.Begin()
	if err != nil {
		t.Fatal(err)
	}
	f.tap.mu.Lock()
	if n := len(f.tap.writes) - before; n != 0 {
		t.Errorf("Begin wrote %d times, want 0", n)
	}
	f.tap.mu.Unlock()
	f.sess.SetRequestDeadline(1500 * time.Millisecond)
	if _, err := f.sess.JumpToID(f.book); err != nil {
		t.Fatal(err)
	}
	f.sess.SetRequestDeadline(0)
	got := f.tap.lastWrite()

	// The header fields the test cannot know (session id, request ids) come
	// from the write itself; everything else is rebuilt the old way.
	first, err := wire.ReadFrame(bytes.NewReader(got))
	if err != nil {
		t.Fatal(err)
	}
	hdr, err := wire.DecodeMsg(first)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	for _, m := range []wire.Msg{
		{Op: wire.OpBegin, Session: hdr.Session, Req: hdr.Req, DeadlineMS: 1500},
		{Op: wire.OpJumpToID, Session: hdr.Session, Req: hdr.Req + 1, DeadlineMS: 1500, Body: wire.AppendString(nil, f.book)},
	} {
		if err := wire.WriteFrame(&want, wire.AppendMsg(nil, m)); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("the first request's write is\n%x\nAppendMsg+WriteFrame build\n%x", got, want.Bytes())
	}
	if txn.ID() == 0 {
		t.Error("the transaction id did not arrive with the first reply")
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestBeginCutWithFirstOperation cuts the wire around the Write that carries
// Begin and a first operation that is not idempotent (AppendElement), before
// the frames leave and after the server has executed them. Nothing of the
// transaction was acknowledged, so the session resumes and starts it again
// unseen — and whatever the lost frames did must have been rolled back: after
// the commit there is exactly one more lend, not two.
func TestBeginCutWithFirstOperation(t *testing.T) {
	for name, mode := range map[string]cutMode{"before the write": cutBefore, "after the server executed it": cutAfter} {
		t.Run(name, func(t *testing.T) {
			f := newBeginFixture(t)
			before := f.lends(t)
			// The history's id, learnt in a transaction of its own: the cut
			// transaction's very first request is the append.
			look, err := f.sess.Begin()
			if err != nil {
				t.Fatal(err)
			}
			book, err := f.sess.JumpToID(f.book)
			if err != nil {
				t.Fatal(err)
			}
			history, err := f.sess.LastChild(book.ID)
			if err != nil {
				t.Fatal(err)
			}
			if err := look.Commit(); err != nil {
				t.Fatal(err)
			}

			txn, err := f.sess.Begin()
			if err != nil {
				t.Fatal(err)
			}
			f.tap.arm(mode)
			if _, err := f.sess.AppendElement(history.ID, "lend"); err != nil {
				t.Fatalf("first operation across the cut: %v, want it restarted unseen", err)
			}
			if txn.ID() == 0 {
				t.Error("the restarted transaction has no id")
			}
			if err := txn.Commit(); err != nil {
				t.Fatalf("commit: %v", err)
			}
			if got := f.lends(t); got != before+1 {
				t.Errorf("%d lends after one committed append, %d before: the lost frames' work was not rolled back exactly once", got, before)
			}
			if err := f.pool.Audit("taDOM3+"); err != nil {
				t.Errorf("audit: %v", err)
			}
		})
	}
}

// TestBeginThenCommit: a transaction with no operation is Begin and Commit in
// one Write, and commits. With the wire cut around that Write the commit is
// never repeated: it ends in nil or in the abort-worthy ErrConnLost, the
// engine commits at most one transaction for it, and the session lives on.
func TestBeginThenCommit(t *testing.T) {
	for name, mode := range map[string]cutMode{"clean": noCut, "cut before the write": cutBefore, "cut after the server executed it": cutAfter} {
		t.Run(name, func(t *testing.T) {
			f := newBeginFixture(t)
			base := f.committed(t)
			txn, err := f.sess.Begin()
			if err != nil {
				t.Fatal(err)
			}
			f.tap.arm(mode)
			err = txn.Commit()
			if err != nil && !(errors.Is(err, client.ErrConnLost) && node.IsAbortWorthy(err)) {
				t.Fatalf("commit: %v, want nil or an abort-worthy ErrConnLost", err)
			}
			if mode == noCut && err != nil {
				t.Fatalf("commit on a healthy wire: %v", err)
			}
			// A restart loop's next move, then business as usual.
			if aerr := txn.Abort(); err != nil && aerr != nil && !errors.Is(aerr, tx.ErrTxnDone) {
				t.Errorf("abort after the failed commit: %v", aerr)
			}
			// The frames reached the server unless they were cut before the
			// write; what it got it executed once.
			want := uint64(1)
			if mode == cutBefore {
				want = 0
			}
			if got := f.committed(t) - base; got != want {
				t.Errorf("the engine committed %d transactions, want %d", got, want)
			}
			f.lends(t)
		})
	}
}

// TestTxnIDBeforeFirstOperation: asking for the id forces the Begin out on
// its own; the first operation then carries no second one.
func TestTxnIDBeforeFirstOperation(t *testing.T) {
	f := newBeginFixture(t)
	txn, err := f.sess.Begin()
	if err != nil {
		t.Fatal(err)
	}
	id := txn.ID()
	if id == 0 {
		t.Fatal("no transaction id")
	}
	if _, err := f.sess.JumpToID(f.book); err != nil {
		t.Fatalf("first operation after ID(): %v", err)
	}
	if wire.Op(f.tap.lastWrite()[4]) != wire.OpJumpToID {
		t.Error("the first operation carried a second Begin")
	}
	if again := txn.ID(); again != id {
		t.Errorf("id changed from %d to %d", id, again)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	next, err := f.sess.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if next.ID() <= id {
		t.Errorf("next transaction has id %d after %d", next.ID(), id)
	}
	// Never sent or sent: an abort must end either kind.
	if err := next.Abort(); err != nil {
		t.Errorf("abort: %v", err)
	}
	unsent, err := f.sess.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := unsent.Abort(); err != nil {
		t.Errorf("abort of a transaction whose Begin never left: %v", err)
	}
	f.lends(t)
}

// TestBeginAgainstBouncedServer: the server drains and a replacement comes up
// between Begin and the first operation. The operation finds its connection
// dead before anything is written; the session resumes on the replacement and
// the queued Begin goes with it.
func TestBeginAgainstBouncedServer(t *testing.T) {
	f := newBeginFixture(t)
	txn, err := f.sess.Begin()
	if err != nil {
		t.Fatal(err)
	}
	addr := f.srv.Addr()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := f.srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for i := 0; ; i++ {
		if f.srv, err = bibserve.Start(bibserve.Options{Bib: tamix.Scaled(0.01)}, server.Config{Addr: addr}); err == nil {
			break
		}
		if i == 50 {
			t.Fatalf("rebind %s: %v", addr, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if _, err := f.sess.JumpToID(f.book); err != nil {
		t.Fatalf("first operation against the replacement server: %v", err)
	}
	if txn.ID() == 0 {
		t.Error("no transaction id from the replacement server")
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
}
