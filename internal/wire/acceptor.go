package wire

import (
	"context"
	"errors"
	"net"
	"sync"
	"time"
)

// handshakeTimeout caps the hello exchange; a dialer that never speaks
// cannot pin the connection goroutine.
const handshakeTimeout = 10 * time.Second

// Acceptor is the listener lifecycle every wire front shares: accept
// loop, hello exchange with version check, connection registry, and the
// stop → drain → force-close → wait shutdown. touchserved and the
// router's wire front each own one and supply the per-connection
// serving loop; what a frame means stays theirs.
//
// Set the exported fields before the first Serve.
type Acceptor struct {
	// MaxFrame caps inbound frame payloads (see NewReader).
	MaxFrame int
	// Handle serves one connection after a successful handshake and
	// returns when its reader is done and its in-flight work has unwound.
	// ctx is the connection's lifetime: canceled by Shutdown's
	// force-close, and when Handle returns.
	Handle func(ctx context.Context, r *Reader, w *Writer)

	mu      sync.RWMutex
	lns     map[net.Listener]struct{}
	conns   map[net.Conn]context.CancelFunc
	stopped bool
	// reqs counts requests registered with BeginRequest; Shutdown waits
	// on it. The Add runs under mu.RLock with stopped checked, and Wait
	// only after stopped is set under mu.Lock, so Add can never race a
	// Wait that already saw zero.
	reqs   sync.WaitGroup
	connWG sync.WaitGroup
}

// Serve accepts connections on ln, answering each client's hello with
// info, until the listener fails or Shutdown closes it (which returns
// nil). Run it on its own goroutine, one per listener.
func (a *Acceptor) Serve(ln net.Listener, info string) error {
	a.mu.Lock()
	if a.stopped {
		a.mu.Unlock()
		ln.Close()
		return errors.New("wire: Serve after Shutdown")
	}
	if a.lns == nil {
		a.lns = make(map[net.Listener]struct{})
		a.conns = make(map[net.Conn]context.CancelFunc)
	}
	a.lns[ln] = struct{}{}
	a.mu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			a.mu.Lock()
			delete(a.lns, ln)
			stopped := a.stopped
			a.mu.Unlock()
			if stopped {
				return nil
			}
			return err
		}
		a.connWG.Add(1)
		go a.serveConn(nc, info)
	}
}

func (a *Acceptor) serveConn(nc net.Conn, info string) {
	defer a.connWG.Done()
	defer nc.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Register before the handshake so Shutdown can force-close a
	// connection that dials during drain and never completes its hello.
	a.mu.Lock()
	if a.stopped {
		a.mu.Unlock()
		return
	}
	a.conns[nc] = cancel
	a.mu.Unlock()
	defer func() {
		a.mu.Lock()
		delete(a.conns, nc)
		a.mu.Unlock()
	}()

	nc.SetDeadline(time.Now().Add(handshakeTimeout))
	r, w := NewReader(nc, a.MaxFrame), NewWriter(nc)
	// The client helloes first; the server always replies with its own
	// hello so a version-mismatched client learns what this server
	// speaks, then the connection closes on mismatch. The client's info
	// string is informational only and ignored here.
	clientV, _, err := r.ReadHello()
	if err != nil {
		return
	}
	if w.WriteHello(info) != nil || w.Flush() != nil || clientV != Version {
		return
	}
	nc.SetDeadline(time.Time{})
	a.Handle(ctx, r, w)
}

// BeginRequest registers one in-flight request with the drain
// accounting; false means Shutdown has begun and the request must be
// rejected. Pair a true return with EndRequest.
func (a *Acceptor) BeginRequest() bool {
	a.mu.RLock()
	defer a.mu.RUnlock()
	if a.stopped {
		return false
	}
	a.reqs.Add(1)
	return true
}

// EndRequest marks a request registered with BeginRequest finished.
func (a *Acceptor) EndRequest() { a.reqs.Done() }

// Shutdown stops accepting, waits (bounded by ctx) for the requests
// registered with BeginRequest, then force-closes every connection —
// canceling its context so in-flight work aborts cooperatively — and
// waits for the connection goroutines to unwind. It returns ctx's error
// when the drain budget ran out first.
func (a *Acceptor) Shutdown(ctx context.Context) error {
	a.mu.Lock()
	a.stopped = true
	for ln := range a.lns {
		ln.Close()
	}
	a.mu.Unlock()

	done := make(chan struct{})
	go func() {
		a.reqs.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}

	a.mu.Lock()
	for nc, cancel := range a.conns {
		cancel()
		nc.Close()
	}
	a.mu.Unlock()
	a.connWG.Wait()
	return err
}
