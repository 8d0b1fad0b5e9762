package server

import (
	"context"
	"net"
	"testing"
	"time"

	"repro/internal/protocol"
	"repro/internal/splid"
	"repro/internal/tx"
	"repro/internal/wire"
)

// rawConn speaks frames to a live server with no client library in between,
// so it can say things a well-behaved client never would.
type rawConn struct {
	t   *testing.T
	nc  net.Conn
	req uint32
}

// call sends one request and returns the response's status and the rest of
// its body.
func (c *rawConn) call(op wire.Op, session uint32, body []byte) (wire.Status, []byte) {
	c.t.Helper()
	c.req++
	c.nc.SetDeadline(time.Now().Add(10 * time.Second))
	if err := wire.WriteFrame(c.nc, wire.AppendMsg(nil, wire.Msg{Op: op, Session: session, Req: c.req, Body: body})); err != nil {
		c.t.Fatalf("%s: write: %v", op, err)
	}
	payload, err := wire.ReadFrame(c.nc)
	if err != nil {
		c.t.Fatalf("%s: read: %v", op, err)
	}
	m, err := wire.DecodeMsg(payload)
	if err != nil || m.Req != c.req || len(m.Body) == 0 {
		c.t.Fatalf("%s: response %+v, err %v", op, m, err)
	}
	return wire.Status(m.Body[0]), m.Body[1:]
}

// TestHostileRequestsAreBadRequests pins that a request the server cannot
// make sense of is answered as the client's fault (StatusBadRequest), not as
// a server failure (StatusErr), and costs the session nothing: an opcode
// outside the operation table is turned away before the session lookup — so
// before it could occupy a queue slot — and a node-op body that does not
// decode under its op's argument shape leaves the transaction usable.
func TestHostileRequestsAreBadRequests(t *testing.T) {
	srv, err := Listen(Config{Addr: "127.0.0.1:0",
		NewEngine: func(protocol.Protocol, int) (*Engine, error) {
			eng, _ := newBibEngine(t)
			return eng, nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer func() {
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Errorf("shutdown audit: %v", err)
		}
	}()
	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	c := &rawConn{t: t, nc: nc}

	st, body := c.call(wire.OpOpenSession, 0, wire.AppendOpenSession(nil,
		wire.OpenSession{Protocol: "taDOM3+", Isolation: uint8(tx.LevelRepeatable), Depth: 7}))
	if st != wire.StatusOK {
		t.Fatalf("open session: %s", st)
	}
	sess := uint32(wire.NewReader(body).Uvarint())

	unknown := wire.Op(wire.NumOps + 100)
	for name, session := range map[string]uint32{"live session": sess, "no such session": sess + 1000} {
		if st, _ := c.call(unknown, session, nil); st != wire.StatusBadRequest {
			t.Errorf("unknown opcode, %s: status %s, want %s", name, st, wire.StatusBadRequest)
		}
	}

	if st, _ := c.call(wire.OpBegin, sess, nil); st != wire.StatusOK {
		t.Fatalf("begin: %s", st)
	}
	for name, body := range map[string][]byte{
		"empty":                 nil,
		"id length past body":   wire.AppendUvarint(nil, 100),
		"id without its bytes":  wire.AppendID(nil, splid.Root()),
		"bytes length past end": append(wire.AppendID(nil, splid.Root()), 0x40, 'x'),
		"not a SPLID":           wire.AppendBytes(nil, []byte{0xFF, 0xFF, 0xFF}),
	} {
		if st, msg := c.call(wire.OpSetValue, sess, body); st != wire.StatusBadRequest {
			t.Errorf("SetValue with body %q: status %s (%s), want %s", name, st, wire.NewReader(msg).String(), wire.StatusBadRequest)
		}
	}
	// The transaction survived all of it.
	if st, _ := c.call(wire.OpGetNode, sess, wire.AppendID(nil, splid.Root())); st != wire.StatusOK {
		t.Errorf("GetNode after the hostile requests: %s", st)
	}
	if st, _ := c.call(wire.OpCommit, sess, nil); st != wire.StatusOK {
		t.Errorf("commit after the hostile requests: %s", st)
	}
	if st, _ := c.call(wire.OpCloseSession, sess, nil); st != wire.StatusOK {
		t.Errorf("close session: %s", st)
	}
	if n := srv.mBusy.Load(); n != 0 {
		t.Errorf("%d busy rejects: a hostile request took a queue slot", n)
	}
}
