// Command touchserved serves TOUCH indexes over JSON-HTTP: a catalog of
// named, versioned, hot-swappable datasets answering range/point/knn
// queries and intersection/ε-distance joins, with admission control and
// Prometheus-text metrics (see internal/server for the API).
//
// Usage:
//
//	touchserved [-addr :8080] [-max-inflight 64] [-timeout 10s]
//	            [-max-body 8388608] [-workers 0] [-data-dir DIR]
//	            [-load name=path ...] [-slow-query-ms N]
//	            [-debug-addr ADDR] [-log-format text|json]
//	            [-bin-addr ADDR] [-node-id ID]
//
// -node-id names this instance in the wire hello ("node/<id>") so a
// routing tier (cmd/touchrouter) can label the backend stably; it
// defaults to the wire listener's bound host:port.
//
// -load preloads a text-format dataset file (ReadDataset syntax) under
// the given name, building its index before the listener opens; it may
// be repeated. The actual listen address is printed on startup —
// `-addr 127.0.0.1:0` picks a free port, for smoke tests.
//
// -data-dir makes the catalog durable: every successful build writes a
// checksummed snapshot to the directory before it becomes visible, and
// startup restores every valid snapshot from it — checksums verified,
// no rebuilds, serving within milliseconds. Corrupt or torn files are
// quarantined to DIR/corrupt with a logged reason instead of blocking
// startup. Without -data-dir the catalog is in-memory only (the
// pre-existing behavior).
//
// -slow-query-ms enables the bounded slow-query log: requests slower
// than the threshold are kept (with their full phase spans) in a ring
// served at GET /debug/slowlog; SIGUSR1 dumps the ring to the log.
// -debug-addr opens a second, operator-only listener carrying
// net/http/pprof and a /debug/slowlog mirror — keep it off any
// public interface.
//
// SIGINT/SIGTERM trigger a graceful drain: new requests are rejected
// with 503 while in-flight ones complete, then the listener closes.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"touch"
	"touch/internal/api"
	"touch/internal/server"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address (host:0 picks a free port)")
		binAddr     = flag.String("bin-addr", "", "binary wire-protocol listen address (empty = HTTP only)")
		debugAddr   = flag.String("debug-addr", "", "debug listener with net/http/pprof and /debug/slowlog (empty = disabled; never expose publicly)")
		maxInFlight = flag.Int("max-inflight", 64, "max concurrently admitted requests; more get 429")
		timeout     = flag.Duration("timeout", 10*time.Second, "per-request processing budget; expiry cancels the running computation")
		maxBody     = flag.Int64("max-body", 8<<20, "request body cap in bytes")
		workers     = flag.Int("workers", 0, "default per-join parallelism (a request's workers field overrides)")
		grace       = flag.Duration("grace", 15*time.Second, "shutdown drain budget")
		dataDir     = flag.String("data-dir", "", "snapshot directory for a durable catalog (empty = in-memory only)")
		slowMs      = flag.Int("slow-query-ms", 0, "record requests slower than this many milliseconds in the slow-query log (0 = disabled)")
		nodeID      = flag.String("node-id", "", "stable instance name advertised in the wire hello (default: the wire listener's host:port)")
		logFormat   = flag.String("log-format", "text", "log output format: text or json")
		showVersion = flag.Bool("version", false, "print version information and exit")
	)
	var preloads []string
	flag.Func("load", "preload a text dataset as name=path (repeatable)", func(v string) error {
		if !strings.Contains(v, "=") {
			return fmt.Errorf("want name=path, got %q", v)
		}
		preloads = append(preloads, v)
		return nil
	})
	flag.Parse()

	if *showVersion {
		fmt.Println(server.BuildInfo())
		return
	}

	var handler slog.Handler
	switch *logFormat {
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	default:
		fmt.Fprintf(os.Stderr, "touchserved: -log-format %q: want text or json\n", *logFormat)
		os.Exit(2)
	}
	logger := slog.New(handler)
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	srv := server.New(server.Config{
		MaxInFlight:        *maxInFlight,
		RequestTimeout:     *timeout,
		MaxBodyBytes:       *maxBody,
		Workers:            *workers,
		DataDir:            *dataDir,
		SlowQueryThreshold: time.Duration(*slowMs) * time.Millisecond,
		Logger:             logger,
	})

	logger.Info("touchserved starting", "build", server.BuildInfo())

	if *dataDir != "" {
		start := time.Now()
		stats, err := srv.Recover()
		if err != nil {
			fatal("recovery failed", "data_dir", *dataDir, "err", err)
		}
		// The smoke tests grep this exact sentence; keep it stable.
		logger.Info(fmt.Sprintf("recovered %d dataset(s) from %s in %v (%d quarantined)",
			stats.Loaded, *dataDir, time.Since(start).Round(time.Millisecond), stats.Quarantined))
	}

	for _, p := range preloads {
		name, path, _ := strings.Cut(p, "=")
		if !api.ValidDatasetName(name) {
			fatal("-load name must be 1-128 chars of [A-Za-z0-9._-]", "arg", p)
		}
		f, err := os.Open(path)
		if err != nil {
			fatal("-load open failed", "arg", p, "err", err)
		}
		ds, err := touch.ReadDataset(f)
		f.Close()
		if err != nil {
			fatal("-load parse failed", "arg", p, "err", err)
		}
		start := time.Now()
		_, stats := srv.Load(name, ds, touch.TOUCHConfig{Workers: *workers})
		// "built in" marks an index build; the recovery smoke test asserts
		// its absence after a restore.
		logger.Info(fmt.Sprintf("loaded %q: %d objects, %s static, built in %v",
			name, stats.Objects, touch.FormatBytes(stats.StaticBytes), time.Since(start).Round(time.Millisecond)))
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal("listen failed", "addr", *addr, "err", err)
	}
	// Read deadlines close the slow-body loophole: body decoding happens
	// before the handler's processing budget is enforced, so without
	// them a client trickling one byte at a time could pin an admission
	// slot indefinitely. Write/idle deadlines leave room for the handler
	// budget plus response transfer.
	hs := &http.Server{
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       *timeout + 15*time.Second,
		WriteTimeout:      *timeout + 30*time.Second,
		IdleTimeout:       120 * time.Second,
	}

	// The parseable startup line smoke tests grab the port from.
	logger.Info(fmt.Sprintf("touchserved listening on %s", ln.Addr()))

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	// The binary protocol is a second front door onto the same catalog,
	// admission slots and metrics — see internal/wire for the framing
	// and the client package for the pipelining dialer.
	wireServing := false
	if *nodeID != "" {
		srv.SetNodeID(*nodeID)
	}
	if *binAddr != "" {
		bln, err := net.Listen("tcp", *binAddr)
		if err != nil {
			fatal("listen -bin-addr failed", "addr", *binAddr, "err", err)
		}
		if *nodeID == "" {
			// Routers key their logs and metrics on this ID; the bound
			// wire address is the natural default for one.
			srv.SetNodeID(bln.Addr().String())
		}
		logger.Info(fmt.Sprintf("touchserved wire listening on %s", bln.Addr()))
		wireServing = true
		go func() {
			if err := srv.ServeWire(bln); err != nil {
				errc <- err
			}
		}()
	}

	// The debug listener is a separate, operator-only mux: pprof plus a
	// plain-text slow-log mirror. Deliberately not mounted on the serving
	// mux — profiling endpoints have no place on a public interface.
	if *debugAddr != "" {
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dmux.HandleFunc("/debug/slowlog", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			srv.DumpSlowLog(w)
		})
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fatal("listen -debug-addr failed", "addr", *debugAddr, "err", err)
		}
		logger.Info(fmt.Sprintf("touchserved debug listening on %s", dln.Addr()))
		go func() {
			if err := http.Serve(dln, dmux); err != nil {
				logger.Error("debug listener failed", "err", err)
			}
		}()
	}

	// SIGUSR1 dumps the slow-query log — forensics without restarting or
	// even having the debug listener open.
	usr1 := make(chan os.Signal, 1)
	signal.Notify(usr1, syscall.SIGUSR1)
	go func() {
		for range usr1 {
			srv.DumpSlowLog(os.Stderr)
		}
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		fatal("serve failed", "err", err)
	case <-ctx.Done():
	}

	logger.Info("draining", "grace", *grace)
	srv.BeginShutdown()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if wireServing {
		if err := srv.ShutdownWire(shutdownCtx); err != nil {
			fatal("wire shutdown failed", "err", err)
		}
	}
	if err := hs.Shutdown(shutdownCtx); err != nil {
		fatal("shutdown failed", "err", err)
	}
	logger.Info("drained, bye")
}
