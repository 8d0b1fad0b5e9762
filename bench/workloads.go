package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/metrics"
	"repro/internal/node"
	"repro/internal/pagestore"
	"repro/internal/protocol"
	"repro/internal/server"
	"repro/internal/splid"
	"repro/internal/storage"
	"repro/internal/tamix"
	"repro/internal/tx"
	"repro/internal/wal"
	"repro/internal/wire"
	"repro/internal/xmlmodel"
)

// Load shape and engine configuration shared by every workload. They are
// constants of the benchmark, not flags: a result is comparable only with
// results taken under the same values (bench/CALIBRATION.md records how they
// were chosen).
const (
	workers      = 2 // closed-loop clients, one session and one connection each
	protocolName = "taDOM3+"
	lockDepth    = 7
	lockTimeout  = 5 * time.Second

	// Flush policy: the log lives in memory (wal.NewMemSegmentStore) and every
	// commit forces it. The flusher trickles dirty pages out and takes a fuzzy
	// checkpoint on a fixed cadence so the log is truncated and stays bounded.
	walSegmentSize     = 64 << 10
	walRetain          = 2
	flusherInterval    = 100 * time.Millisecond
	checkpointInterval = 100 * time.Millisecond

	coldFrames = 64 // cold_jump's buffer pool, about 0.5 MiB

	// The paper draws 5-10 chapters and 9-10 lends per book.
	bookChapters = 8
	bookLends    = 10
)

// clusterMix is TaMix's CLUSTER1 ratio without TAdelBook, so the document
// keeps its size: 9 TAqueryBook : 5 TAchapter : 2 TArenameTopic :
// 8 TAlendAndReturn. A transaction's type is one uniform draw from it.
var clusterMix = func() []txKind {
	var m []txKind
	for _, part := range []struct {
		kind txKind
		n    int
	}{{txQueryBook, 9}, {txChapter, 5}, {txRenameTopic, 2}, {txLendAndReturn, 8}} {
		for i := 0; i < part.n; i++ {
			m = append(m, part.kind)
		}
	}
	return m
}()

// spec is one workload: document size, engine shape, transaction mix and the
// fixed warm-up that sizes its set-up.
type spec struct {
	name   string
	why    string
	scale  float64 // share of the paper's bib document (1.0 = 2000 books)
	remote bool    // through a loopback xtcd instead of in-process
	wal    bool
	file   bool // pagestore.OpenFile backend in a scratch directory
	frames int  // buffer pool frames (0 = pagestore.DefaultFrames, 1024)
	mix    []txKind
	warmup int // transactions of the single-worker warm-up
}

var specs = []*spec{
	{
		name: "remote_nav", scale: 0.1, remote: true, mix: []txKind{txQueryBook}, warmup: 1500,
		why: "read-only TAqueryBook over loopback xtcd on a buffer-resident document: client, wire, server and kernel TCP do the work; lock, buffer and WAL do little",
	},
	{
		name: "remote_mix", scale: 0.02, remote: true, wal: true, mix: clusterMix, warmup: 1500,
		why: "CLUSTER1 mix over loopback xtcd with a forced log: write bodies, logged commits and locks held across round trips; remote_mix minus local_mix is the transport share for writes",
	},
	{
		name: "local_mix", scale: 0.02, wal: true, mix: clusterMix, warmup: 8000,
		why: "the same mix, document and log driven in-process: protocol, lock, tx, wal and storage writes do the work, with no transport to hide them",
	},
	{
		name: "cold_jump", scale: 1.0, file: true, frames: coldFrames, mix: []txKind{txColdJump}, warmup: 4000,
		why: "point lookups over a file-backed document far larger than its 64-frame pool: btree descents and pagestore misses, eviction, checksums and write-back do the work",
	},
}

// runs reports whether the workload's mix holds transaction type k.
func (sp *spec) runs(k txKind) bool {
	for _, m := range sp.mix {
		if m == k {
			return true
		}
	}
	return false
}

func specByName(name string) *spec {
	for _, s := range specs {
		if s.name == name {
			return s
		}
	}
	return nil
}

// countConn counts the bytes a client connection carries and keeps the head
// of each direction for the wire codec probe.
type countConn struct {
	net.Conn
	in, out   atomic.Int64
	headIn    []byte
	headOut   []byte
	headLimit int
}

func (c *countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in.Add(int64(n))
	if room := c.headLimit - len(c.headIn); room > 0 {
		c.headIn = append(c.headIn, p[:min(n, room)]...)
	}
	return n, err
}

func (c *countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.out.Add(int64(n))
	if room := c.headLimit - len(c.headOut); room > 0 {
		c.headOut = append(c.headOut, p[:min(n, room)]...)
	}
	return n, err
}

// env is one set-up of a workload: the engine, its clients and, in a traced
// run, the registry every layer reports into.
type env struct {
	sp     *spec
	seed   int64
	scale  float64 // of the bib document; the spec's, except in a smoke run
	traced bool

	dir     string // scratch directory of a file backend
	backend pagestore.Backend
	doc     *storage.Document
	cat     *tamix.Catalog
	segs    *wal.MemSegmentStore
	log     *wal.Log
	mgr     *node.Manager
	srv     *server.Server
	pool    *client.Pool
	reg     *metrics.Registry
	conns   []*countConn
	workers []*worker
	seq     atomic.Uint64
	lat     []int64 // merged latencies of the current window, reused

	genDur   time.Duration
	genNodes int
}

// scratchRoot is where file backends and trace files go: inside the
// benchmark's own directory, so a run writes nowhere else.
var scratchRoot = "bench/out"

// setUp builds the workload from nothing: generate the document, open the
// engine (log, server, pool, sessions) and run the fixed warm-up. Everything
// here is timed as setup_s.
func setUp(sp *spec, seed int64, sh shape, traced bool) (*env, error) {
	e := &env{sp: sp, seed: seed, traced: traced, scale: sp.scale / float64(sh.warmDiv)}
	if traced {
		e.reg = metrics.NewRegistry()
	}
	if err := e.open(protocolName); err != nil {
		e.tearDown()
		return nil, err
	}
	if err := e.warmUp(sp.warmup / sh.warmDiv); err != nil {
		e.tearDown()
		return nil, err
	}
	return e, nil
}

// open generates the document and starts the engine under the named protocol.
func (e *env) open(proto string) error {
	sp := e.sp
	p, err := protocol.Parse(proto)
	if err != nil {
		return err
	}
	e.backend = pagestore.NewMemBackend()
	if sp.file {
		if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
			return err
		}
		if e.dir, err = os.MkdirTemp(scratchRoot, "pages-"); err != nil {
			return err
		}
		if e.backend, err = pagestore.OpenFile(filepath.Join(e.dir, "bib.xtc")); err != nil {
			return err
		}
	}
	bib := tamix.Scaled(e.scale)
	// Every book gets the same shape, so the work of a transaction does not
	// depend on which seed drew the document.
	bib.ChaptersMin, bib.ChaptersMax = bookChapters, bookChapters
	bib.LendsMin, bib.LendsMax = bookLends, bookLends
	bib.Seed = e.seed
	bib.BufferFrames = sp.frames
	bib.Metrics = e.reg
	if sp.wal {
		bib.FlusherInterval = flusherInterval
		bib.CheckpointInterval = checkpointInterval
	}
	t0 := time.Now()
	if e.doc, e.cat, err = tamix.GenerateBib(e.backend, bib); err != nil {
		return err
	}
	e.genDur, e.genNodes = time.Since(t0), e.doc.Size()
	if sp.wal {
		e.segs = wal.NewMemSegmentStore()
		e.log, err = wal.Open(e.segs, wal.Config{SegmentSize: walSegmentSize, Retain: walRetain, Metrics: e.reg})
		if err != nil {
			return err
		}
		if err := e.doc.AttachWAL(e.log); err != nil {
			return err
		}
	}
	e.mgr = node.New(e.doc, p, node.Options{Depth: lockDepth, LockTimeout: lockTimeout, Metrics: e.reg})
	if e.log != nil {
		e.mgr.TxManager().SetWAL(e.log)
	}
	sumSur, _ := e.doc.Vocabulary().Lookup("summary")
	session := make([]ops, workers)
	if sp.remote {
		if err := e.serve(p, session); err != nil {
			return err
		}
	} else {
		for i := range session {
			session[i] = &localOps{m: e.mgr}
		}
	}
	for i, s := range session {
		w := &worker{
			id: i, ops: s, cat: e.cat, mix: sp.mix, sumSur: sumSur, seq: &e.seq,
			rng:  rand.New(rand.NewSource(e.seed*1000003 + int64(i)*7919)),
			acks: map[string]mark{},
			lat:  make([]int64, 0, latencyReserve),
		}
		if e.traced {
			w.rec = newRecorder(time.Now())
			w.ops = &tracedOps{in: s, rec: w.rec}
			w.touched = make([]splid.ID, 0, touchedKeep)
		}
		e.workers = append(e.workers, w)
	}
	return nil
}

// serve puts the engine behind a loopback xtcd and opens one session per
// worker, each on its own connection.
func (e *env) serve(p protocol.Protocol, session []ops) error {
	eng := &server.Engine{
		Mgr:     e.mgr,
		Catalog: wire.Catalog{Books: e.cat.BookIDs, Topics: e.cat.TopicIDs, Persons: e.cat.PersonIDs},
	}
	srv, err := server.Listen(server.Config{
		Addr:      "127.0.0.1:0",
		NewEngine: func(protocol.Protocol, int) (*server.Engine, error) { return eng, nil },
		Metrics:   e.reg,
	})
	if err != nil {
		return err
	}
	e.srv = srv
	go srv.Serve()
	copts := client.Options{Conns: workers, Metrics: e.reg}
	if e.traced {
		copts.Dialer = func(addr string, timeout time.Duration) (net.Conn, error) {
			nc, err := net.DialTimeout("tcp", addr, timeout)
			if err != nil {
				return nil, err
			}
			c := &countConn{Conn: nc, headLimit: 64 << 10}
			e.conns = append(e.conns, c)
			return c, nil
		}
	}
	if e.pool, err = client.Dial(srv.Addr(), copts); err != nil {
		return err
	}
	for i := range session {
		s, err := e.pool.OpenSession(p.Name(), tx.LevelRepeatable, lockDepth)
		if err != nil {
			return err
		}
		session[i] = &remoteOps{Session: s}
	}
	return nil
}

// warmUp runs a fixed number of transactions on one worker at a time, so
// set-up is the same deterministic work on every run.
func (e *env) warmUp(txns int) error {
	for i, w := range e.workers {
		for n := txns / len(e.workers); n > 0; n-- {
			if !w.runTxn() {
				return w.fatal
			}
		}
		if w.failed > 0 {
			return fmt.Errorf("bench: %d warm-up transactions failed on worker %d", w.failed, i)
		}
		w.lat = w.lat[:0]
		w.committed, w.restarts, w.vanished, w.backoffNS = 0, 0, 0, 0
		if w.rec != nil {
			w.rec.reset()
			w.touched = w.touched[:0]
		}
	}
	return nil
}

// tearDown closes whatever open built. It is safe on a half-built env.
func (e *env) tearDown() error {
	var errs []error
	for _, w := range e.workers {
		if r, ok := w.ops.(*tracedOps); ok {
			w.ops = r.in
		}
		if r, ok := w.ops.(*remoteOps); ok {
			if err := r.Close(); err != nil {
				errs = append(errs, err)
			}
		}
	}
	e.workers = nil
	if e.pool != nil {
		e.pool.Close()
	}
	if e.srv != nil {
		// Shutdown audits the lock table and closes the manager.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, e.srv.Shutdown(ctx))
		cancel()
	} else if e.mgr != nil {
		e.mgr.Close()
	}
	if e.doc != nil {
		// A crashed log (durability audit) refuses the closing flush; that
		// store is being thrown away.
		if err := e.doc.Close(); err != nil && !errors.Is(err, wal.ErrCrashed) {
			errs = append(errs, err)
		}
	} else if e.backend != nil {
		e.backend.Close()
	}
	if e.log != nil {
		errs = append(errs, e.log.Close())
	}
	if e.dir != "" {
		errs = append(errs, os.RemoveAll(e.dir))
	}
	return errors.Join(errs...)
}

// bookOracle counts, with physical reads that take no locks, the nodes
// TAqueryBook must see under each book. It is only valid while nothing
// writes.
func (e *env) bookOracle() (map[string]int, error) {
	oracle := make(map[string]int, len(e.cat.BookIDs))
	for _, id := range e.cat.BookIDs {
		book, err := e.doc.ElementByID([]byte(id))
		if err != nil {
			return nil, err
		}
		var kids []xmlmodel.Node
		if err := e.doc.ScanChildren(book, func(n xmlmodel.Node) bool {
			kids = append(kids, n)
			return true
		}); err != nil {
			return nil, err
		}
		n := 0
		for _, k := range kids {
			size, err := e.doc.SubtreeSize(k.ID)
			if err != nil {
				return nil, err
			}
			n += size
		}
		oracle[id] = n
	}
	return oracle, nil
}
