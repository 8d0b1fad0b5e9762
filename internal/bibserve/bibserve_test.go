package bibserve

import (
	"context"
	"encoding/json"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/server"
	"repro/internal/tamix"
	"repro/internal/tx"
	"repro/internal/wire"
)

// testOptions is the small-document engine configuration the tests share.
func testOptions() Options {
	return Options{Bib: tamix.Scaled(0.03), LockTimeout: 3 * time.Second}
}

func startServer(t *testing.T, cfg server.Config) *server.Server {
	t.Helper()
	srv, err := Start(testOptions(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return srv
}

// TestLoopbackTaMixAllProtocols is the acceptance smoke: a TaMix run over
// loopback must complete under every registered protocol — per-session
// protocol selection end to end — and pass the server-side Verify and
// LeakCheck audits (tamix.Run fails otherwise).
func TestLoopbackTaMixAllProtocols(t *testing.T) {
	srv := startServer(t, server.Config{})
	for _, name := range protocol.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			res, err := tamix.Run(tamix.Config{
				Protocol:  name,
				Isolation: tx.LevelRepeatable,
				Depth:     7,
				Clients:   1,
				Mix: map[tamix.TxType]int{
					tamix.TAqueryBook:     1,
					tamix.TAchapter:       1,
					tamix.TAlendAndReturn: 2,
					tamix.TArenameTopic:   1,
				},
				Duration:        300 * time.Millisecond,
				WaitAfterCommit: time.Millisecond,
				MaxStartDelay:   2 * time.Millisecond,
				Seed:            42,
				Remote:          srv.Addr(),
				RemoteClient:    client.Options{Conns: 2},
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Committed == 0 {
				t.Fatal("no transactions committed over loopback")
			}
			if res.Metrics.CounterValue("lock.requests") == 0 {
				t.Fatal("server reported no lock requests — stats plumbing broken")
			}
		})
	}
}

// rawConn drives the wire protocol directly, so tests can die abruptly
// mid-transaction — something the polite client package never does.
type rawConn struct {
	t    *testing.T
	nc   net.Conn
	req  uint32
	sess uint32
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return &rawConn{t: t, nc: nc}
}

// send writes one frame without waiting for the response.
func (r *rawConn) send(op wire.Op, body []byte) {
	r.t.Helper()
	r.req++
	payload := wire.AppendMsg(nil, wire.Msg{Op: op, Session: r.sess, Req: r.req, Body: body})
	if err := wire.WriteFrame(r.nc, payload); err != nil {
		r.t.Fatalf("%s: write: %v", op, err)
	}
}

// call round-trips one request and requires StatusOK.
func (r *rawConn) call(op wire.Op, body []byte) []byte {
	r.t.Helper()
	r.send(op, body)
	payload, err := wire.ReadFrame(r.nc)
	if err != nil {
		r.t.Fatalf("%s: read: %v", op, err)
	}
	m, err := wire.DecodeMsg(payload)
	if err != nil {
		r.t.Fatalf("%s: decode: %v", op, err)
	}
	if len(m.Body) == 0 || wire.Status(m.Body[0]) != wire.StatusOK {
		r.t.Fatalf("%s: status %s (%s)", op, wire.Status(m.Body[0]),
			wire.NewReader(m.Body[1:]).String())
	}
	return m.Body[1:]
}

// open creates a session and targets subsequent requests at it.
func (r *rawConn) open(proto string) {
	r.t.Helper()
	resp := r.call(wire.OpOpenSession, wire.AppendOpenSession(nil, wire.OpenSession{
		Protocol: proto, Isolation: uint8(tx.LevelRepeatable), Depth: 7,
	}))
	rd := wire.NewReader(resp)
	r.sess = uint32(rd.Uvarint())
	if err := rd.Err(); err != nil {
		r.t.Fatal(err)
	}
}

// TestAbruptDisconnectMidTransaction kills a client that holds write locks
// inside an open transaction. The server must abort the transaction and
// release its locks: a second session then acquires the same lock well
// within the lock timeout, and the post-run audits pass.
func TestAbruptDisconnectMidTransaction(t *testing.T) {
	const proto = "taDOM3+"
	srv := startServer(t, server.Config{})

	victim := dialRaw(t, srv.Addr())
	victim.open(proto)
	cat := func() wire.Catalog {
		rd := wire.NewReader(victim.call(wire.OpCatalog, nil))
		c := rd.Catalog()
		if err := rd.Err(); err != nil {
			t.Fatal(err)
		}
		return c
	}()
	victim.call(wire.OpBegin, nil)
	rd := wire.NewReader(victim.call(wire.OpJumpToID, wire.AppendString(nil, cat.Books[0])))
	book := rd.Node()
	if err := rd.Err(); err != nil {
		t.Fatal(err)
	}
	// Write inside the open transaction: the X lock is now held.
	victim.call(wire.OpSetAttribute,
		wire.AppendBytes(wire.AppendString(wire.AppendID(nil, book.ID), "flag"), []byte("dirty")))
	// Die without commit, abort, or session close.
	victim.nc.Close()

	// A healthy session must be able to take the same lock: the server's
	// teardown aborted the orphan and released it. The 3s engine lock
	// timeout is the failure detector — a leaked lock fails this call.
	pool, err := client.Dial(srv.Addr(), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	sess, err := pool.OpenSession(proto, tx.LevelRepeatable, 7)
	if err != nil {
		t.Fatal(err)
	}
	txn, err := sess.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.SetAttribute(book.ID, "flag", []byte("clean")); err != nil {
		t.Fatalf("lock not released after abrupt disconnect: %v", err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	// The victim's write must have been rolled back, not committed.
	txn2, err := sess.Begin()
	if err != nil {
		t.Fatal(err)
	}
	v, err := sess.AttributeValue(book.ID, "flag")
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "clean" {
		t.Fatalf("attribute = %q, want the committed value (orphan write rolled back)", v)
	}
	if err := txn2.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	// Document integrity and lock-table residue, checked server-side.
	if err := pool.Audit(proto); err != nil {
		t.Fatalf("post-disconnect audit: %v", err)
	}
}

// TestDisconnectCancelsPendingLockWait pins the context-cancellation path:
// a session whose request is WAITING in the lock queue disconnects, and the
// pending request must stop waiting immediately — observable as the lock
// manager's Canceled counter — rather than sit until timeout or grant.
func TestDisconnectCancelsPendingLockWait(t *testing.T) {
	const proto = "URIX"
	// Wrap the factory to capture the engine for white-box lock inspection.
	var mu sync.Mutex
	engines := map[string]*server.Engine{}
	fac := NewEngineFactory(testOptions())
	cfg := server.Config{
		Addr: "127.0.0.1:0",
		NewEngine: func(p protocol.Protocol, depth int) (*server.Engine, error) {
			eng, err := fac(p, depth)
			if err == nil {
				mu.Lock()
				engines[p.Name()] = eng
				mu.Unlock()
			}
			return eng, err
		},
	}
	srv, err := server.Listen(cfg)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})

	holder := dialRaw(t, srv.Addr())
	holder.open(proto)
	cat := func() wire.Catalog {
		rd := wire.NewReader(holder.call(wire.OpCatalog, nil))
		c := rd.Catalog()
		return c
	}()
	holder.call(wire.OpBegin, nil)
	rd := wire.NewReader(holder.call(wire.OpJumpToID, wire.AppendString(nil, cat.Books[1])))
	book := rd.Node()
	if err := rd.Err(); err != nil {
		t.Fatal(err)
	}
	holder.call(wire.OpSetAttribute,
		wire.AppendBytes(wire.AppendString(wire.AppendID(nil, book.ID), "held"), []byte("x")))

	mu.Lock()
	eng := engines[proto]
	mu.Unlock()
	if eng == nil {
		t.Fatal("engine not captured")
	}
	lm := eng.Mgr.LockManager()
	baseWaits := lm.Stats().Waits

	// The waiter requests a conflicting write and blocks in the lock queue.
	waiter := dialRaw(t, srv.Addr())
	waiter.open(proto)
	waiter.call(wire.OpBegin, nil)
	waiter.send(wire.OpSetAttribute,
		wire.AppendBytes(wire.AppendString(wire.AppendID(nil, book.ID), "held"), []byte("y")))

	deadline := time.Now().Add(5 * time.Second)
	for lm.Stats().Waits == baseWaits {
		if time.Now().After(deadline) {
			t.Fatal("waiter never blocked in the lock queue")
		}
		time.Sleep(time.Millisecond)
	}

	// Kill the waiter while its request is pending. The holder still holds
	// the lock, so only context cancellation can end that wait.
	waiter.nc.Close()
	for lm.Stats().Canceled == 0 {
		if time.Now().After(deadline) {
			t.Fatal("pending lock wait was not canceled by the disconnect")
		}
		time.Sleep(time.Millisecond)
	}

	// The holder finishes normally; afterwards the table must be clean.
	holder.call(wire.OpCommit, nil)
	holder.call(wire.OpCloseSession, nil)
	for !time.Now().After(deadline) {
		if lm.LeakCheck() == nil {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if err := lm.LeakCheck(); err != nil {
		t.Fatalf("lock residue after canceled wait: %v", err)
	}
	if err := eng.Mgr.Document().Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestServerMetricsSnapshotGolden drives a fixed request sequence and pins
// the server.* counter snapshot as JSON — the admission and traffic counters
// are deterministic even though latencies are not.
func TestServerMetricsSnapshotGolden(t *testing.T) {
	reg := metrics.NewRegistry()
	srv := startServer(t, server.Config{MaxSessions: 1, Metrics: reg})

	c := dialRaw(t, srv.Addr())
	defer c.nc.Close()
	c.call(wire.OpPing, []byte("hi"))
	c.open("taDOM2")

	// Second open must be rejected by admission control (MaxSessions: 1).
	rejected := dialRaw(t, srv.Addr())
	defer rejected.nc.Close()
	rejected.send(wire.OpOpenSession, wire.AppendOpenSession(nil, wire.OpenSession{
		Protocol: "taDOM2", Isolation: uint8(tx.LevelRepeatable), Depth: 7,
	}))
	payload, err := wire.ReadFrame(rejected.nc)
	if err != nil {
		t.Fatal(err)
	}
	m, err := wire.DecodeMsg(payload)
	if err != nil {
		t.Fatal(err)
	}
	if wire.Status(m.Body[0]) != wire.StatusBusy {
		t.Fatalf("over-limit open: status %s, want busy", wire.Status(m.Body[0]))
	}

	c.call(wire.OpBegin, nil)
	c.call(wire.OpCommit, nil)
	c.call(wire.OpCloseSession, nil)
	c.sess = 0

	snap := reg.Snapshot()
	got := struct {
		Accepted    uint64 `json:"sessions_accepted"`
		Active      int64  `json:"sessions_active"`
		Rejected    uint64 `json:"sessions_rejected"`
		BusyRejects uint64 `json:"busy_rejects"`
		QueueDepth  int64  `json:"queue_depth"`
		Conns       int64  `json:"conns_active"`
		Requests    uint64 `json:"requests"`
	}{
		Accepted:    snap.Counters["server.sessions_accepted"],
		Active:      snap.Gauges["server.sessions_active"],
		Rejected:    snap.Counters["server.sessions_rejected"],
		BusyRejects: snap.Counters["server.busy_rejects"],
		QueueDepth:  snap.Gauges["server.queue_depth"],
		Conns:       snap.Gauges["server.conns_active"],
		Requests:    snap.Counters["server.requests"],
	}
	b, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	const golden = `{
  "sessions_accepted": 1,
  "sessions_active": 0,
  "sessions_rejected": 1,
  "busy_rejects": 0,
  "queue_depth": 0,
  "conns_active": 2,
  "requests": 6
}`
	if string(b) != golden {
		t.Errorf("metrics snapshot mismatch:\ngot:\n%s\nwant:\n%s", b, golden)
	}
	// Request latencies were recorded even though their values float.
	if n := snap.Hist("server.request_ns").Count; n == 0 {
		t.Error("no request latencies recorded")
	}
}
