// Command xtcd is the XTC-style server daemon: it serves the transactional
// DOM API over the wire protocol, hosting one bib-document engine per lock
// protocol (sessions pick their protocol at open time) and multiplexing
// sessions across connections with admission control and backpressure.
//
// Usage:
//
//	xtcd                                  # listen on 127.0.0.1:4410
//	xtcd -addr :4410 -doc 0.05
//	xtcd -debug-addr localhost:6060       # live /metrics + pprof: server.* and,
//	                                      # per built engine, engine.<protocol>.*
//	                                      # (lock.wait, lock.deadlocks, tx.commit, …)
//
// SIGINT/SIGTERM drain gracefully: the listener closes, in-flight
// transactions are aborted, and every engine must pass LeakCheck before the
// process exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/bibserve"
	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/server"
	"repro/internal/tamix"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:4410", "TCP listen address")
		docScale     = flag.Float64("doc", 0.02, "document scale per engine (1.0 = 2000 books)")
		lockTimeout  = flag.Duration("lock-timeout", 5*time.Second, "lock-wait timeout inside each engine")
		ckptEvery    = flag.Duration("checkpoint-interval", 0, "fuzzy-checkpoint cadence per engine; enables WAL logging + segment GC (0 disables)")
		walRetain    = flag.Int("wal-retain", 0, "newest WAL segments kept by checkpoint GC (0 = default)")
		maxSessions  = flag.Int("max-sessions", 256, "admission cap on concurrently open sessions")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "graceful-drain budget before in-flight sessions are cut")
		writeTimeout = flag.Duration("write-timeout", 10*time.Second, "per-frame write deadline; a peer that stops reading is cut (negative disables)")
		keepAlive    = flag.Duration("keepalive-timeout", 90*time.Second, "close a connection silent this long: no heartbeat, no request (negative disables)")
		idleSession  = flag.Duration("idle-session", 5*time.Minute, "reap sessions idle this long: abort their transaction, release locks, free the slot (negative disables)")
		debugAddr    = flag.String("debug-addr", "", "serve /metrics (server.* plus every built engine's instruments as engine.<protocol>.*) and /debug/pprof on this address")
		quiet        = flag.Bool("quiet", false, "suppress connection-level diagnostics")
	)
	flag.Parse()

	logf := log.New(os.Stderr, "xtcd: ", log.LstdFlags).Printf
	bib := tamix.Scaled(*docScale)
	bib.CheckpointInterval = *ckptEvery
	cfg := server.Config{
		Addr: *addr,
		NewEngine: bibserve.NewEngineFactory(bibserve.Options{
			Bib:         bib,
			LockTimeout: *lockTimeout,
			WALRetain:   *walRetain,
		}),
		MaxSessions:  *maxSessions,
		DrainTimeout: *drainTimeout,

		WriteTimeout:       *writeTimeout,
		KeepAliveTimeout:   *keepAlive,
		SessionIdleTimeout: *idleSession,
	}
	if !*quiet {
		cfg.Logf = logf
	}

	srv, err := server.Listen(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xtcd:", err)
		os.Exit(1)
	}
	if *debugAddr != "" {
		dbg, stop, err := metrics.ServeDebug(*debugAddr, srv.Snapshot)
		if err != nil {
			fmt.Fprintln(os.Stderr, "xtcd: debug endpoint:", err)
			os.Exit(1)
		}
		defer stop()
		logf("debug endpoint on http://%s/ (metrics, pprof)", dbg)
	}
	logf("listening on %s (protocols: %s)", srv.Addr(), protocol.NamesHelp())

	// Serve until a signal arrives, then drain: stop admitting, let in-flight
	// requests finish inside the drain budget, abort whatever remains, and
	// audit every engine for lock residue.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve() }()

	select {
	case sig := <-sigCh:
		logf("received %v, draining (budget %s)", sig, *drainTimeout)
	case err := <-serveErr:
		// Listener died without a signal — still drain sessions and audit.
		logf("accept loop failed: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout+5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "xtcd: shutdown:", err)
		os.Exit(1)
	}
	logf("clean shutdown: all engines passed LeakCheck")
}
