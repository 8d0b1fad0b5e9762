package server

import (
	"bytes"
	"context"
	"errors"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/protocol"
	"repro/internal/splid"
	"repro/internal/tx"
	"repro/internal/wire"
)

// startBib serves one small bib engine on loopback; the cleanup's Shutdown
// audits it for lock residue.
func startBib(t *testing.T, cfg Config) (*Server, []string) {
	t.Helper()
	eng, cat := newBibEngine(t)
	cfg.Addr = "127.0.0.1:0"
	cfg.NewEngine = func(protocol.Protocol, int) (*Engine, error) { return eng, nil }
	srv, err := Listen(cfg)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(func() {
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Errorf("shutdown audit: %v", err)
		}
	})
	return srv, cat.BookIDs
}

// dialSession connects a raw client and opens a session with a transaction.
func dialSession(t *testing.T, srv *Server) (*rawConn, uint32) {
	t.Helper()
	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	c := &rawConn{t: t, nc: nc}
	st, body := c.call(wire.OpOpenSession, 0, wire.AppendOpenSession(nil,
		wire.OpenSession{Protocol: "taDOM3+", Isolation: uint8(tx.LevelRepeatable), Depth: 7}))
	if st != wire.StatusOK {
		t.Fatalf("open session: %s", st)
	}
	sess := uint32(wire.NewReader(body).Uvarint())
	if st, _ := c.call(wire.OpBegin, sess, nil); st != wire.StatusOK {
		t.Fatalf("begin: %s", st)
	}
	return c, sess
}

// titleText finds the text node under a book's title.
func (c *rawConn) titleText(sess uint32, book string) wire.Args {
	c.t.Helper()
	var id wire.Args
	for _, step := range []struct {
		op   wire.Op
		body func() []byte
	}{
		{wire.OpJumpToID, func() []byte { return wire.AppendString(nil, book) }},
		{wire.OpFirstChild, func() []byte { return wire.AppendID(nil, id.ID) }},
		{wire.OpFirstChild, func() []byte { return wire.AppendID(nil, id.ID) }},
	} {
		st, body := c.call(step.op, sess, step.body())
		n := wire.NewReader(body).Node()
		if st != wire.StatusOK || n.ID.IsNull() {
			c.t.Fatalf("%s: %s, node %+v", step.op, st, n)
		}
		id.ID = n.ID
	}
	return id
}

// onlyConn returns the server's single connection.
func onlyConn(t *testing.T, srv *Server) *conn {
	t.Helper()
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if len(srv.conns) != 1 {
		t.Fatalf("%d connections, want 1", len(srv.conns))
	}
	for c := range srv.conns {
		return c
	}
	return nil
}

// recordedConn is a net.Conn that keeps what is written to it.
type recordedConn struct {
	net.Conn
	writes [][]byte
}

func (r *recordedConn) Write(b []byte) (int, error) {
	r.writes = append(r.writes, append([]byte{}, b...))
	return len(b), nil
}
func (r *recordedConn) SetWriteDeadline(time.Time) error { return nil }
func (r *recordedConn) Close() error                     { return nil }

// TestCoalescedRepliesGolden pins the bytes the reply path puts on the wire:
// a reply whose flush is deferred and the one that follows it leave in one
// Write, and that Write is byte for byte the two frames AppendMsg+WriteFrame
// built when every reply was its own buffer.
func TestCoalescedRepliesGolden(t *testing.T) {
	eng, cat := newBibEngine(t)
	w := newWired(t, eng)
	begin := wire.Msg{Op: wire.OpBegin, Session: 3, Req: 8}
	jump := wire.Msg{Op: wire.OpJumpToID, Session: 3, Req: 9, DeadlineMS: 250, Body: wire.AppendString(nil, cat.BookIDs[0])}
	book, err := w.srv.execute(w.sess, jump, context.Background())
	if err != nil {
		t.Fatal(err)
	}
	txnID := result{raw: wire.AppendUvarint(nil, w.sess.txn.ID())}

	var want bytes.Buffer
	for _, r := range []struct {
		m    wire.Msg
		body []byte
	}{
		{begin, txnID.raw},
		{jump, wire.AppendResult(nil, wire.ResNode, book.res)},
	} {
		resp := wire.Msg{Op: r.m.Op, Session: r.m.Session, Req: r.m.Req, Body: append([]byte{byte(wire.StatusOK)}, r.body...)}
		if err := wire.WriteFrame(&want, wire.AppendMsg(nil, resp)); err != nil {
			t.Fatal(err)
		}
	}

	rec := &recordedConn{}
	c := &conn{srv: &Server{}, nc: rec, fw: wire.NewFrameWriter(rec), closed: make(chan struct{})}
	c.reply(begin, wire.StatusOK, txnID, false)
	if len(rec.writes) != 0 {
		t.Fatalf("a deferred reply was written (%d writes)", len(rec.writes))
	}
	c.reply(jump, wire.StatusOK, book, true)
	if len(rec.writes) != 1 || !bytes.Equal(rec.writes[0], want.Bytes()) {
		t.Fatalf("%d writes; the first is\n%x\nAppendMsg+WriteFrame built\n%x", len(rec.writes), rec.writes, want.Bytes())
	}
}

// TestConnBuffersShrinkAfterLargeFrame: a 1 MiB SetValue (the engine turns a
// value that long away, but the frame has to be read to find out) and a 1 MiB
// ping echo grow the connection's read and write buffers for the moment only
// — a large frame must not stay pinned by every connection that ever carried
// one.
func TestConnBuffersShrinkAfterLargeFrame(t *testing.T) {
	srv, books := startBib(t, Config{})
	rc, sess := dialSession(t, srv)
	text := rc.titleText(sess, books[0])
	text.Bytes = bytes.Repeat([]byte("x"), 1<<20)

	if st, _ := rc.call(wire.OpSetValue, sess, wire.AppendArgs(nil, wire.ArgID|wire.ArgBytes, text)); st != wire.StatusErr {
		t.Fatalf("1 MiB SetValue: %s, want the engine's refusal", st)
	}
	if st, echo := rc.call(wire.OpPing, 0, text.Bytes); st != wire.StatusOK || !bytes.Equal(echo, text.Bytes) {
		t.Fatalf("1 MiB ping: %s, %d bytes back", st, len(echo))
	}
	// One small round trip takes the reader past the large frames.
	if st, _ := rc.call(wire.OpAbort, sess, nil); st != wire.StatusOK {
		t.Fatalf("abort: %s", st)
	}

	c := onlyConn(t, srv)
	rc.nc.Close()
	<-c.closed // the reader goroutine is done with c.fr
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if r, w := c.fr.Cap(), c.fw.Cap(); r > 64<<10 || w > 64<<10 {
		t.Errorf("after 1 MiB frames in and out the connection holds a %d-byte read and a %d-byte write buffer", r, w)
	}
}

// TestStalledPeerFailsWriteWithinTimeout: a peer that keeps sending requests
// and never reads a reply. No writer goroutine stands between a session
// worker and the socket any more, so the worker itself blocks in Write once
// the kernel's buffers are full — and must fail within WriteTimeout, close
// the connection, release the session's locks and leave no goroutine behind.
func TestStalledPeerFailsWriteWithinTimeout(t *testing.T) {
	const writeTimeout = 300 * time.Millisecond
	srv, books := startBib(t, Config{WriteTimeout: writeTimeout})
	base := runtime.NumGoroutine()

	rc, sess := dialSession(t, srv)
	text := rc.titleText(sess, books[0])
	text.Bytes = []byte("held by the stalled peer")
	if st, _ := rc.call(wire.OpSetValue, sess, wire.AppendArgs(nil, wire.ArgID|wire.ArgBytes, text)); st != wire.StatusOK {
		t.Fatalf("SetValue: %s", st)
	}
	if n := srv.mActive.Load(); n != 1 {
		t.Fatalf("%d active sessions, want 1", n)
	}

	// Ask for the whole document (some 40 KiB) over and over and read
	// nothing. Once the worker is stuck in Write the reader stops too (its
	// queue-full rejections want the same write mutex), so these writes stall
	// in turn — until the server gives up on the connection and they fail.
	frame := wire.AppendMsg(nil, wire.Msg{Op: wire.OpReadFragment, Session: sess, Req: 1000,
		Body: wire.AppendArgs(nil, wire.ArgID|wire.ArgFlag, wire.Args{ID: splid.Root()})})
	start := time.Now()
	var werr error
	for werr == nil {
		if time.Since(start) > 20*time.Second {
			t.Fatal("the server kept accepting requests from a peer that reads nothing")
		}
		rc.nc.SetWriteDeadline(time.Now().Add(5 * time.Second))
		werr = wire.WriteFrame(rc.nc, frame)
	}
	var ne net.Error
	if errors.As(werr, &ne) && ne.Timeout() {
		t.Fatalf("the stalled connection was never closed: %v", werr)
	}

	waitFor(t, "the session to be torn down", func() bool { return srv.mActive.Load() == 0 && srv.mConns.Load() == 0 })
	// The X lock on the text node is free again.
	rc2, sess2 := dialSession(t, srv)
	text.Bytes = []byte("after the stall")
	if st, msg := rc2.call(wire.OpSetValue, sess2, wire.AppendArgs(nil, wire.ArgID|wire.ArgBytes, text)); st != wire.StatusOK {
		t.Fatalf("SetValue after the stalled peer was dropped: %s (%s)", st, wire.NewReader(msg).String())
	}
	if st, _ := rc2.call(wire.OpCloseSession, sess2, nil); st != wire.StatusOK {
		t.Fatalf("close session: %s", st)
	}
	rc2.nc.Close()
	waitFor(t, "the goroutine count to return to its baseline", func() bool { return runtime.NumGoroutine() <= base })
}

// waitFor polls cond for up to five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}
