package client_test

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"touch/client"
	"touch/internal/wire"
)

// silentAfterFirst is the regression rig for the Pool.Conn lock bug: its
// first accepted connection completes the wire handshake and then idles
// (a healthy pooled conn), while every later connection is accepted but
// never answered — the shape of a server that stops responding mid-dial.
// Its second accept is signaled on second: from then on the dial that
// made it is parked in its handshake.
type silentAfterFirst struct {
	ln     net.Listener
	second chan struct{}

	mu    sync.Mutex
	conns []net.Conn
	n     int
}

func newSilentAfterFirst(t *testing.T) *silentAfterFirst {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &silentAfterFirst{ln: ln, second: make(chan struct{})}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			s.conns = append(s.conns, c)
			first := s.n == 0
			s.n++
			if s.n == 2 {
				close(s.second)
			}
			s.mu.Unlock()
			if first {
				go func() {
					// Complete the handshake, then idle: the client
					// side stays healthy (Err() == nil) indefinitely.
					buf := make([]byte, 64)
					io := c
					if _, err := io.Read(buf); err == nil {
						wire.WriteHello(io, "")
					}
				}()
			}
			// Later conns: accepted, never replied to. Dial blocks in
			// ReadHello until its context deadline fires.
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		s.hangUpSilent()
	})
	return s
}

// hangUpSilent closes every never-answered connection, failing any dial
// still parked in its handshake.
func (s *silentAfterFirst) hangUpSilent() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, c := range s.conns {
		if i > 0 {
			c.Close()
		}
	}
}

// TestPoolConnDialOutsideLock pins the fix for Pool.Conn dialing while
// holding p.mu: a dial that hangs on the handshake must neither block
// concurrent Conn calls nor surface as an error while a healthy pooled
// connection exists.
func TestPoolConnDialOutsideLock(t *testing.T) {
	s := newSilentAfterFirst(t)
	p := client.NewPool(s.ln.Addr().String(), 2)
	defer p.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	c1, err := p.Conn(ctx)
	if err != nil {
		t.Fatalf("first Conn: %v", err)
	}

	// Park a second Conn call in the hanging dial. Before the fix this
	// held p.mu for its whole 3-second handshake wait.
	parked := make(chan struct{})
	go func() {
		defer close(parked)
		pctx, pcancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer pcancel()
		c, err := p.Conn(pctx)
		// Whatever happens to the dial, the call must resolve to the
		// healthy conn, not an error: dial failure falls back to c1.
		if err != nil || c != c1 {
			t.Errorf("parked Conn: got %p err %v, want fallback %p", c, err, c1)
		}
	}()

	// Wait until the parked call's dial is accepted — it hangs in the
	// handshake from then on — then demand service.
	select {
	case <-s.second:
	case <-ctx.Done():
		t.Fatal("the parked Conn call never dialed")
	}
	start := time.Now()
	qctx, qcancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
	defer qcancel()
	c2, err := p.Conn(qctx)
	if err != nil {
		t.Fatalf("Conn during hanging dial: %v", err)
	}
	if c2 != c1 {
		t.Fatalf("Conn during hanging dial returned %p, want pooled %p", c2, c1)
	}
	// The pre-fix behavior waits out the parked dial's 3s context; the
	// fixed path only waits its own 250ms dial attempt at worst.
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("Conn blocked %v behind a hanging dial", elapsed)
	}

	// Hang up on the parked dial: it must fail over to c1 immediately
	// rather than surfacing the dial error.
	s.hangUpSilent()
	<-parked
}

// refusingAddr returns an address that actively refuses connections: a
// listener is bound to reserve the port, then closed.
func refusingAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestPoolDialBackoff pins the dial-storm fix: a dead backend must cost
// the pool a bounded number of connect attempts, not one per request.
// 50 rapid Conn calls against a refusing listener may dial a handful of
// times (concurrent callers can race past the first failure) but far
// fewer than once per call, and each call still fails fast with the
// cached dial error instead of blocking in the dialer.
func TestPoolDialBackoff(t *testing.T) {
	p := client.NewPool(refusingAddr(t), 2)
	defer p.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	for i := 0; i < 50; i++ {
		if _, err := p.Conn(ctx); err == nil {
			t.Fatal("Conn against a refusing listener succeeded")
		}
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("50 failing Conn calls took %v; backoff should make them near-instant", elapsed)
	}
	if n := p.DialAttempts(); n > 10 {
		t.Fatalf("50 Conn calls caused %d dial attempts, want a handful under backoff", n)
	}
}

// TestPoolCloseIdempotent: Close on a pool holding a live connection can
// be called repeatedly, and a closed pool hands out nothing.
func TestPoolCloseIdempotent(t *testing.T) {
	s := newSilentAfterFirst(t)
	p := client.NewPool(s.ln.Addr().String(), 1)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := p.Conn(ctx); err != nil {
		t.Fatalf("Conn: %v", err)
	}
	for i := 0; i < 3; i++ {
		if err := p.Close(); err != nil {
			t.Fatalf("Close #%d: %v", i+1, err)
		}
	}
	if _, err := p.Conn(ctx); err != client.ErrClosed {
		t.Fatalf("Conn after Close: err %v, want ErrClosed", err)
	}
}
