// Package daemon is the process lifecycle cmd/touchserved and
// cmd/touchrouter share, so the two behave alike for the same flags. It
// owns four things:
//
//   - the logger -log-format picks: text or json, anything else exits 2;
//   - the http.Server and its deadlines. The read deadline closes the
//     slow-body loophole: a body is decoded before the handler's
//     processing budget is enforced, so without it a client trickling
//     one byte at a time could pin an admission slot indefinitely. The
//     write and idle deadlines leave room for that budget plus the
//     response transfer;
//   - the "<prog> listening on ADDR" and "<prog> wire listening on ADDR"
//     startup lines, which scripts/serve-smoke.sh parses;
//   - the SIGINT/SIGTERM drain: the caller's begin step, then the wire
//     front, then HTTP, all within the -grace budget, ending in
//     "drained, bye".
//
// Each main keeps its flags, its construction and its own extras.
package daemon

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// Front is what a daemon serves: touchserved's *server.Server or
// touchrouter's *router.Router.
type Front interface {
	http.Handler
	ServeWire(net.Listener) error
	ShutdownWire(context.Context) error
}

// Daemon is one serving process. Create it with New, then Serve and
// Wait.
type Daemon struct {
	// Log is the process logger, in the format -log-format picked.
	Log *slog.Logger

	prog string
	hs   *http.Server
	// shutdownWire drains the wire front; nil when there is none.
	shutdownWire func(context.Context) error
	// errc takes each listener's serve error, one slot per listener, so
	// neither serving goroutine blocks once Wait has stopped reading.
	errc chan error
}

// New returns the daemon of the program prog, logging to stderr in
// format, "text" or "json". Any other format is a usage error: New says
// so and exits 2.
func New(prog, format string) *Daemon {
	var h slog.Handler
	switch format {
	case "text":
		h = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		h = slog.NewJSONHandler(os.Stderr, nil)
	default:
		fmt.Fprintf(os.Stderr, "%s: -log-format %q: want text or json\n", prog, format)
		os.Exit(2)
	}
	return &Daemon{Log: slog.New(h), prog: prog, errc: make(chan error, 2)}
}

// Fatal logs msg with args at error level and exits 1.
func (d *Daemon) Fatal(msg string, args ...any) {
	d.Log.Error(msg, args...)
	os.Exit(1)
}

// Serve opens the HTTP listener at addr and serves f there, then the
// wire listener at wireAddr when it is not empty (HTTP only otherwise),
// logging one startup line per listener. Call it once f is ready to
// answer: until then both ports refuse connections. timeout is the
// front's per-request budget; the HTTP deadlines are set past it.
func (d *Daemon) Serve(f Front, addr, wireAddr string, timeout time.Duration) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		d.Fatal("listen failed", "addr", addr, "err", err)
	}
	d.hs = &http.Server{
		Handler:           f,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       timeout + 15*time.Second,
		WriteTimeout:      timeout + 30*time.Second,
		IdleTimeout:       120 * time.Second,
	}
	d.Log.Info(fmt.Sprintf("%s listening on %s", d.prog, ln.Addr()))
	go func() { d.errc <- d.hs.Serve(ln) }()
	if wireAddr == "" {
		return
	}
	wln, err := net.Listen("tcp", wireAddr)
	if err != nil {
		d.Fatal("listen -bin-addr failed", "addr", wireAddr, "err", err)
	}
	d.Log.Info(fmt.Sprintf("%s wire listening on %s", d.prog, wln.Addr()))
	d.shutdownWire = f.ShutdownWire
	go func() {
		if err := f.ServeWire(wln); err != nil {
			d.errc <- err
		}
	}()
}

// Wait blocks until SIGINT or SIGTERM, then drains within grace: begin
// (when not nil), the wire front, then HTTP, and logs "drained, bye". A
// listener that fails, or a drain that runs out of grace, exits 1.
func (d *Daemon) Wait(grace time.Duration, begin func()) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-d.errc:
		d.Fatal("serve failed", "err", err)
	case <-ctx.Done():
	}

	d.Log.Info("draining", "grace", grace)
	if begin != nil {
		begin()
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if d.shutdownWire != nil {
		if err := d.shutdownWire(shutdownCtx); err != nil {
			d.Fatal("wire shutdown failed", "err", err)
		}
	}
	if err := d.hs.Shutdown(shutdownCtx); err != nil {
		d.Fatal("shutdown failed", "err", err)
	}
	d.Log.Info("drained, bye")
}
