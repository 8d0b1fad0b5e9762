package bibserve

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/node"
	"repro/internal/server"
	"repro/internal/tamix"
	"repro/internal/tx"
	"repro/internal/wire"
)

// The netchaos suite (make netchaos) exercises the connection-lifecycle
// resilience layer end to end: server keep-alives and the idle-session
// reaper on one side, the client's redial/resume machinery on the other,
// and seeded network-fault injection across both. Every server started
// here passes LeakCheck at shutdown (startServer's cleanup), so "zero lock
// residue" is asserted structurally in every test.

// callStatus round-trips one request and returns the raw status — for
// requests that are supposed to fail.
func (r *rawConn) callStatus(op wire.Op, body []byte) wire.Status {
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
	if len(m.Body) == 0 {
		r.t.Fatalf("%s: empty response body", op)
	}
	return wire.Status(m.Body[0])
}

// catalog fetches the engine catalog through a raw connection.
func (r *rawConn) catalog() wire.Catalog {
	r.t.Helper()
	rd := wire.NewReader(r.call(wire.OpCatalog, nil))
	c := rd.Catalog()
	if err := rd.Err(); err != nil {
		r.t.Fatal(err)
	}
	return c
}

// counterAtLeast polls the server registry until the counter reaches want.
func counterAtLeast(t *testing.T, srv *server.Server, name string, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if got := srv.Metrics().Snapshot().Counters[name]; got >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never reached %d (now %d)",
				name, want, srv.Metrics().Snapshot().Counters[name])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestNetChaosKeepAliveClosesSilentConn: a connection that goes silent
// mid-transaction (no heartbeats, no requests) while holding an X lock must
// be closed after KeepAliveTimeout, counted in server.heartbeat_misses, and
// its locks released so a healthy client acquires them well inside the
// engine lock timeout.
func TestNetChaosKeepAliveClosesSilentConn(t *testing.T) {
	const proto = "taDOM2"
	// The window is the test's clock in both directions: the silent victim
	// must outlive it, and everyone else must get a frame through inside it
	// however the scheduler treats them. At 100ms a loaded machine (four
	// -race copies on two CPUs) stalled the heartbeating clients long enough
	// to get them closed about once in 70 runs; 400ms leaves room.
	srv := startServer(t, server.Config{
		KeepAliveTimeout: 400 * time.Millisecond,
	})

	// Warm the engine through a heartbeating client first: building the
	// document takes longer than the keep-alive window, and only a client
	// that heartbeats through the build survives it. The raw victim below
	// then rides the cached engine between its (fast) calls.
	warm, err := client.Dial(srv.Addr(), client.Options{HeartbeatInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	wsess, err := warm.OpenSession(proto, tx.LevelRepeatable, 7)
	if err != nil {
		t.Fatal(err)
	}
	wsess.Close()
	warm.Close()

	victim := dialRaw(t, srv.Addr())
	// Silent is not gone: the socket stays open until the test is over. With
	// no reference left after the last call, the collector would finalize the
	// connection, the server would read EOF inside the window, and no
	// keep-alive miss would ever be counted.
	defer victim.nc.Close()
	victim.open(proto)
	cat := victim.catalog()
	victim.call(wire.OpBegin, nil)
	rd := wire.NewReader(victim.call(wire.OpJumpToID, wire.AppendString(nil, cat.Books[0])))
	book := rd.Node()
	if err := rd.Err(); err != nil {
		t.Fatal(err)
	}
	victim.call(wire.OpSetAttribute,
		wire.AppendBytes(wire.AppendString(wire.AppendID(nil, book.ID), "flag"), []byte("stalled")))

	// Go silent: no heartbeats, no requests. The server's keep-alive window
	// must fire and tear the connection down.
	counterAtLeast(t, srv, "server.heartbeat_misses", 1)

	// The victim's X lock must be free for a live client (which heartbeats
	// fast enough to survive the aggressive keep-alive policy itself).
	pool, err := client.Dial(srv.Addr(), client.Options{HeartbeatInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	sess, err := pool.OpenSession(proto, tx.LevelRepeatable, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	txn, err := sess.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.SetAttribute(book.ID, "flag", []byte("live")); err != nil {
		t.Fatalf("lock not released after keep-alive kill: %v", err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestNetChaosReaperFreesIdleSessionLocks: a session idle past
// SessionIdleTimeout is reaped — transaction aborted, locks released, slot
// freed, server.reaped_sessions counted — even though its connection stays
// up (conn-scoped heartbeats keep the keep-alive window renewed but do not
// touch the session's idle clock). The connection survives; the session is
// gone (StatusNoSession).
func TestNetChaosReaperFreesIdleSessionLocks(t *testing.T) {
	const proto = "taDOM3+"
	srv := startServer(t, server.Config{
		SessionIdleTimeout: 200 * time.Millisecond,
	})

	victim := dialRaw(t, srv.Addr())
	victim.open(proto)
	sessID := victim.sess
	cat := victim.catalog()
	victim.call(wire.OpBegin, nil)
	rd := wire.NewReader(victim.call(wire.OpJumpToID, wire.AppendString(nil, cat.Books[0])))
	book := rd.Node()
	if err := rd.Err(); err != nil {
		t.Fatal(err)
	}
	victim.call(wire.OpSetAttribute,
		wire.AppendBytes(wire.AppendString(wire.AppendID(nil, book.ID), "flag"), []byte("idle")))

	// Keep the connection demonstrably alive with conn-scoped heartbeats
	// while the session idles into the reaper's cutoff.
	stop := make(chan struct{})
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		hb := dialRaw(t, srv.Addr()) // separate conn: rawConn is not concurrency-safe
		defer hb.nc.Close()
		for {
			select {
			case <-stop:
				return
			case <-time.After(20 * time.Millisecond):
				hb.call(wire.OpPing, nil)
			}
		}
	}()
	victim.sess = 0
	for i := 0; i < 20; i++ { // conn-level heartbeats on the victim conn itself
		victim.call(wire.OpHeartbeat, nil)
		time.Sleep(25 * time.Millisecond)
	}
	victim.sess = sessID
	close(stop)
	hbWG.Wait()

	counterAtLeast(t, srv, "server.reaped_sessions", 1)

	// Connection alive, session gone.
	victim.sess = 0
	victim.call(wire.OpPing, nil)
	victim.sess = sessID
	if st := victim.callStatus(wire.OpGetNode, wire.AppendID(nil, book.ID)); st != wire.StatusNoSession {
		t.Fatalf("op on reaped session: status %s, want %s", st, wire.StatusNoSession)
	}

	// And the reaped session's X lock must be free.
	pool, err := client.Dial(srv.Addr(), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	sess, err := pool.OpenSession(proto, tx.LevelRepeatable, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	txn, err := sess.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.SetAttribute(book.ID, "flag", []byte("fresh")); err != nil {
		t.Fatalf("lock not released after reap: %v", err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestNetChaosClientKillMidBurst kills a fleet of clients abruptly in the
// middle of write bursts — open transactions, held X locks, frames possibly
// half-consumed. The server must tear every session down (sessions_active
// returns to zero) and leave zero lock residue: a survivor then writes to
// every contested book and the server-side audit passes.
func TestNetChaosClientKillMidBurst(t *testing.T) {
	const proto = "taDOM2+"
	const clients = 4
	srv := startServer(t, server.Config{})

	var books []wire.Catalog
	raws := make([]*rawConn, clients)
	for i := range raws {
		raws[i] = dialRaw(t, srv.Addr())
		raws[i].open(proto)
		books = append(books, raws[i].catalog())
	}
	var wg sync.WaitGroup
	for i, r := range raws {
		wg.Add(1)
		go func(i int, r *rawConn) {
			defer wg.Done()
			r.call(wire.OpBegin, nil)
			rd := wire.NewReader(r.call(wire.OpJumpToID, wire.AppendString(nil, books[i].Books[i])))
			book := rd.Node()
			if err := rd.Err(); err != nil {
				t.Error(err)
				return
			}
			for n := 0; n < 20; n++ {
				r.call(wire.OpSetAttribute,
					wire.AppendBytes(wire.AppendString(wire.AppendID(nil, book.ID), "burst"), []byte{byte(n)}))
			}
			r.nc.Close() // die mid-burst: no commit, no abort, no close
		}(i, r)
	}
	wg.Wait()

	// Every orphaned session must be torn down.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if srv.Metrics().Snapshot().Gauges["server.sessions_active"] == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sessions_active stuck at %d after client kill",
				srv.Metrics().Snapshot().Gauges["server.sessions_active"])
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Zero residue: a survivor locks every contested book, and the
	// server-side Verify+LeakCheck audit passes.
	pool, err := client.Dial(srv.Addr(), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	sess, err := pool.OpenSession(proto, tx.LevelRepeatable, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	txn, err := sess.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < clients; i++ {
		n, err := sess.JumpToID(books[i].Books[i])
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.SetAttribute(n.ID, "burst", []byte("survivor")); err != nil {
			t.Fatalf("book %d lock leaked: %v", i, err)
		}
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := pool.Audit(proto); err != nil {
		t.Fatalf("post-kill audit: %v", err)
	}
}

// TestNetChaosSessionResumeAbortWorthy cuts a session's connection out from
// under it mid-transaction. The next operation must (a) fail with an error
// that satisfies node.IsAbortWorthy and wraps ErrConnLost, (b) leave the
// session transparently resumed — the follow-up abort succeeds and a fresh
// transaction commits — and (c) count one reconnect and at least one redial.
func TestNetChaosSessionResumeAbortWorthy(t *testing.T) {
	const proto = "taDOM3"
	srv := startServer(t, server.Config{})

	var connMu sync.Mutex
	var conns []net.Conn
	reg := metrics.NewRegistry()
	pool, err := client.Dial(srv.Addr(), client.Options{
		Metrics: reg,
		Dialer: func(addr string, timeout time.Duration) (net.Conn, error) {
			nc, err := net.DialTimeout("tcp", addr, timeout)
			if err == nil {
				connMu.Lock()
				conns = append(conns, nc)
				connMu.Unlock()
			}
			return nc, err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	sess, err := pool.OpenSession(proto, tx.LevelRepeatable, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	cat, err := sess.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	txn, err := sess.Begin()
	if err != nil {
		t.Fatal(err)
	}
	book, err := sess.JumpToID(cat.Books[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.SetAttribute(book.ID, "flag", []byte("before-cut")); err != nil {
		t.Fatal(err)
	}

	// Cut the wire under the session.
	connMu.Lock()
	for _, nc := range conns {
		nc.Close()
	}
	connMu.Unlock()

	_, err = sess.JumpToID(cat.Books[0])
	if err == nil {
		t.Fatal("operation across a cut connection succeeded")
	}
	if !errors.Is(err, client.ErrConnLost) {
		t.Fatalf("want ErrConnLost in chain, got %v", err)
	}
	if !node.IsAbortWorthy(err) {
		t.Fatalf("connection-loss error is not abort-worthy: %v", err)
	}
	// The restart loop's next moves must both work: abort the lost
	// transaction (vacuously — the resumed session has no transaction, which
	// surfaces as ErrTxnDone exactly like a local double-finish, the case
	// TaMix's restart loop already tolerates), then run it again.
	if err := txn.Abort(); err != nil && !errors.Is(err, tx.ErrTxnDone) {
		t.Fatalf("abort after resume: %v", err)
	}
	txn, err = sess.Begin()
	if err != nil {
		t.Fatalf("begin on resumed session: %v", err)
	}
	if err := sess.SetAttribute(book.ID, "flag", []byte("after-cut")); err != nil {
		t.Fatalf("write on resumed session: %v", err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	if snap.Counters["client.reconnects"] < 1 {
		t.Fatalf("client.reconnects = %d, want >= 1", snap.Counters["client.reconnects"])
	}
	if snap.Counters["client.redials"] < 1 {
		t.Fatalf("client.redials = %d, want >= 1", snap.Counters["client.redials"])
	}
	if err := pool.Audit(proto); err != nil {
		t.Fatalf("post-resume audit: %v", err)
	}
}

// TestNetChaosServerRestartUnderTaMixLoad bounces the server in the middle
// of a 16-connection TaMix run. The client fleet must ride the bounce:
// every session redials and resumes against the replacement server, only
// in-flight transactions abort (absorbed by the restart loop as restart
// counters, not run errors), and the run finishes with commits and a clean
// server-side audit.
func TestNetChaosServerRestartUnderTaMixLoad(t *testing.T) {
	const proto = "taDOM3+"
	srv1, err := Start(testOptions(), server.Config{DrainTimeout: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	addr := srv1.Addr()

	cfg := tamix.Config{
		Protocol:  proto,
		Isolation: tx.LevelRepeatable,
		Depth:     7,
		Clients:   4,
		Mix: map[tamix.TxType]int{
			tamix.TAqueryBook:     1,
			tamix.TAchapter:       1,
			tamix.TAlendAndReturn: 1,
			tamix.TArenameTopic:   1,
		}, // 16 slots = 16 sessions over 16 connections
		Duration:        4 * time.Second,
		WaitAfterCommit: time.Millisecond,
		MaxStartDelay:   5 * time.Millisecond,
		MaxRestarts:     50, // a bounce aborts every in-flight txn at once
		Seed:            7,
		Remote:          addr,
		RemoteClient:    client.Options{Conns: 16},
	}
	type runOut struct {
		res *tamix.Result
		err error
	}
	done := make(chan runOut, 1)
	go func() {
		res, err := tamix.Run(cfg)
		done <- runOut{res, err}
	}()

	// Let the fleet get properly in flight, then bounce the server.
	time.Sleep(1 * time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	if err := srv1.Shutdown(ctx); err != nil {
		t.Fatalf("first server shutdown not clean: %v", err)
	}
	cancel()

	// The replacement must bind the same address (the listener closed at
	// the start of Shutdown, so the port is free).
	var srv2 *server.Server
	for i := 0; ; i++ {
		srv2, err = Start(testOptions(), server.Config{Addr: addr})
		if err == nil {
			break
		}
		if i >= 50 {
			t.Fatalf("rebind %s: %v", addr, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv2.Shutdown(ctx); err != nil {
			t.Errorf("second server shutdown: %v", err)
		}
	})

	out := <-done
	if out.err != nil {
		t.Fatalf("TaMix run did not absorb the server bounce: %v", out.err)
	}
	res := out.res
	if res.Committed == 0 {
		t.Fatal("no transactions committed across the bounce")
	}
	snap := res.Metrics
	if snap.Counters["client.reconnects"] < 1 {
		t.Fatalf("client.reconnects = %d, want >= 1 (fleet never resumed)",
			snap.Counters["client.reconnects"])
	}
	if snap.Counters["client.redials"] < 1 {
		t.Fatalf("client.redials = %d, want >= 1", snap.Counters["client.redials"])
	}
	// The bounce must cost bounded aborts: at worst every session loses its
	// in-flight transaction once per disruption event (the drain and the
	// cut), plus ordinary deadlock aborts. A leak of "every retry aborts
	// forever" would blow far past this.
	if res.Aborted > 0 && res.Restarts == 0 && res.Dropped == 0 {
		t.Fatalf("aborts (%d) without restarts or drops — restart loop not engaged", res.Aborted)
	}
	t.Logf("across bounce: committed=%d aborted=%d restarts=%d dropped=%d reconnects=%d redials=%d",
		res.Committed, res.Aborted, res.Restarts, res.Dropped,
		snap.Counters["client.reconnects"], snap.Counters["client.redials"])
}

// TestNetChaosFaultyNetworkTaMix runs TaMix through connections that consult
// a fault plan: seeded corruption, drops, partial writes, and stalls on the
// client→server path while the run is mid-flight. Corrupted frames kill
// connections (the server cannot trust a desynchronized stream), so the
// fleet must redial and resume its way through the weather — the run still
// commits and the post-run server-side audit still passes.
func TestNetChaosFaultyNetworkTaMix(t *testing.T) {
	const proto = "taDOM2"
	// Tight keep-alive: a corrupted length header can poison a connection
	// into a never-completing frame — the server sits in a blocked read that
	// only the keep-alive window (renewed per completed frame) bounds. At
	// the default 90s window one poisoned connection stalls a session for
	// the whole test; at 1.5s the fleet shrugs it off.
	srv := startServer(t, server.Config{
		KeepAliveTimeout: 1500 * time.Millisecond,
	})

	// Warm the engine through a heartbeating client: the document build is
	// longer than the aggressive keep-alive window, and the TaMix bootstrap
	// session must not be killed mid-build.
	warm, err := client.Dial(srv.Addr(), client.Options{HeartbeatInterval: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	wsess, err := warm.OpenSession(proto, tx.LevelRepeatable, 7)
	if err != nil {
		t.Fatal(err)
	}
	wsess.Close()
	warm.Close()

	plan := &fault.Plan{Seed: 99}
	plan.Prob[fault.ConnDrop], plan.Prob[fault.ConnPartial] = 0.001, 0.001
	plan.Prob[fault.ConnCorrupt], plan.Prob[fault.ConnStall] = 0.004, 0.002
	cfg := tamix.Config{
		Protocol:  proto,
		Isolation: tx.LevelRepeatable,
		Depth:     7,
		Clients:   2,
		Mix: map[tamix.TxType]int{
			tamix.TAqueryBook:     1,
			tamix.TAchapter:       1,
			tamix.TAlendAndReturn: 1,
			tamix.TArenameTopic:   1,
		},
		Duration:        3 * time.Second,
		WaitAfterCommit: time.Millisecond,
		MaxStartDelay:   5 * time.Millisecond,
		MaxRestarts:     50,
		Seed:            13,
		Remote:          srv.Addr(),
		RemoteClient: client.Options{
			Conns: 8,
			// Heartbeat under the server's keep-alive window so sessions
			// parked in lock queues don't get their (healthy) connections
			// reaped as silent.
			HeartbeatInterval: 100 * time.Millisecond,
			Dialer: func(addr string, timeout time.Duration) (net.Conn, error) {
				nc, err := net.DialTimeout("tcp", addr, timeout)
				if err != nil {
					return nil, err
				}
				return plan.Conn(nc), nil
			},
		},
	}
	type runOut struct {
		res *tamix.Result
		err error
	}
	done := make(chan runOut, 1)
	go func() {
		res, err := tamix.Run(cfg)
		done <- runOut{res, err}
	}()

	// Arm after the bootstrap (catalog + baseline stats) is done, disarm
	// before the run's deadline so the final audit runs on clean wires.
	time.Sleep(400 * time.Millisecond)
	plan.Arm()
	time.Sleep(1600 * time.Millisecond)
	plan.Disarm()

	out := <-done
	if out.err != nil {
		t.Fatalf("TaMix run did not absorb network faults: %v", out.err)
	}
	if out.res.Committed == 0 {
		t.Fatal("no transactions committed under network faults")
	}
	if plan.Injected() == 0 {
		t.Fatal("fault plan armed but injected nothing — test exercised no chaos")
	}
	killed := plan.Fired(fault.ConnDrop) + plan.Fired(fault.ConnCorrupt) + plan.Fired(fault.ConnPartial)
	if killed > 0 {
		if snap := out.res.Metrics; snap.Counters["client.redials"] < 1 {
			t.Fatalf("%d connection-killing faults injected but client.redials = %d", killed,
				snap.Counters["client.redials"])
		}
	}
	t.Logf("faults injected: %d (%d stalls); committed=%d aborted=%d elapsed=%v", plan.Injected(),
		plan.Fired(fault.ConnStall), out.res.Committed, out.res.Aborted, out.res.Elapsed)
}

// commitCut wraps the connections one Dialer hands out: while armed, the
// first OpCommit frame written is either forwarded — and the connection cut
// the moment its response comes back, so the server committed but the
// client never hears it — or cut before the frame leaves, so the commit
// never happened. Exactly the two halves of the classic at-least-once
// commit ambiguity.
type commitCut struct {
	net.Conn
	afterSend bool
	armed     *atomic.Bool
	cut       atomic.Bool
}

func (c *commitCut) Write(b []byte) (int, error) {
	// A commit that follows an operation is the only frame in its Write —
	// [u32 len][payload][u32 crc] — so b[4] is the message opcode. (A commit
	// that carries its transaction's Begin is client.TestBeginThenCommit's.)
	if len(b) >= 5 && wire.Op(b[4]) == wire.OpCommit && c.armed.CompareAndSwap(true, false) {
		if !c.afterSend {
			c.Conn.Close()
			return 0, errors.New("netchaos: connection cut before commit frame")
		}
		n, err := c.Conn.Write(b)
		c.cut.Store(true)
		return n, err
	}
	return c.Conn.Write(b)
}

func (c *commitCut) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if c.cut.Load() && n > 0 {
		// The commit's response reached the client side of the wire:
		// proof the server processed the commit. Drop it and kill the
		// connection so only the resume's fate report can say what happened.
		c.Conn.Close()
		return 0, errors.New("netchaos: connection cut before commit response")
	}
	return n, err
}

// TestNetChaosResumeCommitFate severs the connection around an OpCommit
// round trip, on both sides of the ambiguity, and demands the resumed
// session report the truth: a commit the server processed before the cut
// returns nil (it landed exactly once — the resume's fate report vouches for
// it), while a commit that never reached the server surfaces the usual
// abort-worthy ErrConnLost error. A fresh transaction then audits the
// document state against the verdict.
func TestNetChaosResumeCommitFate(t *testing.T) {
	const proto = "taDOM3"
	srv := startServer(t, server.Config{})

	for _, tc := range []struct {
		name      string
		afterSend bool
	}{
		{"commit-reached-server", true},
		{"commit-never-sent", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			armed := &atomic.Bool{}
			pool, err := client.Dial(srv.Addr(), client.Options{
				Dialer: func(addr string, timeout time.Duration) (net.Conn, error) {
					nc, err := net.DialTimeout("tcp", addr, timeout)
					if err != nil {
						return nil, err
					}
					return &commitCut{Conn: nc, afterSend: tc.afterSend, armed: armed}, nil
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer pool.Close()
			sess, err := pool.OpenSession(proto, tx.LevelRepeatable, 7)
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			cat, err := sess.Catalog()
			if err != nil {
				t.Fatal(err)
			}

			// Baseline: a committed attribute value the interrupted write must
			// either replace (fate committed) or leave untouched (fate aborted).
			seed, err := sess.Begin()
			if err != nil {
				t.Fatal(err)
			}
			book, err := sess.JumpToID(cat.Books[0])
			if err != nil {
				t.Fatal(err)
			}
			if err := sess.SetAttribute(book.ID, "fate", []byte("baseline")); err != nil {
				t.Fatal(err)
			}
			if err := seed.Commit(); err != nil {
				t.Fatal(err)
			}

			txn, err := sess.Begin()
			if err != nil {
				t.Fatal(err)
			}
			if err := sess.SetAttribute(book.ID, "fate", []byte("cut")); err != nil {
				t.Fatal(err)
			}
			armed.Store(true)
			err = txn.Commit()
			want := []byte("baseline")
			if tc.afterSend {
				// The server committed before the cut; the fate report must turn
				// the severed round trip into a clean nil.
				if err != nil {
					t.Fatalf("interrupted-but-landed commit = %v, want nil via fate report", err)
				}
				want = []byte("cut")
			} else {
				// The commit never left the client; the server aborted the
				// transaction at session teardown and the fate report says so.
				if err == nil {
					t.Fatal("commit that never reached the server returned nil")
				}
				if !errors.Is(err, client.ErrConnLost) {
					t.Fatalf("want ErrConnLost in chain, got %v", err)
				}
				if !node.IsAbortWorthy(err) {
					t.Fatalf("unsent-commit error is not abort-worthy: %v", err)
				}
			}

			// The session resumed either way; audit durable state against the
			// verdict from a fresh transaction.
			check, err := sess.Begin()
			if err != nil {
				t.Fatalf("begin on resumed session: %v", err)
			}
			got, err := sess.AttributeValue(book.ID, "fate")
			if err != nil {
				t.Fatalf("read-back on resumed session: %v", err)
			}
			if string(got) != string(want) {
				t.Fatalf("fate attribute = %q, want %q — durable state contradicts the commit verdict", got, want)
			}
			if err := check.Commit(); err != nil {
				t.Fatal(err)
			}
			if err := pool.Audit(proto); err != nil {
				t.Fatalf("post-fate audit: %v", err)
			}
		})
	}
}
