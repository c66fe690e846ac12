package client_test

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"touch"
	"touch/client"
	"touch/internal/server"
	"touch/internal/wire"
)

func startServer(t *testing.T) string {
	t.Helper()
	srv := server.New(server.Config{})
	srv.Load("d", touch.GenerateUniform(200, 1), touch.TOUCHConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeWire(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.ShutdownWire(ctx)
	})
	return ln.Addr().String()
}

// TestServerNodeAndCatalog: a server with a node ID advertises it in
// the hello info ("node/<id>"), ServerNode parses it back, and the wire
// catalog listing mirrors what the server is actually serving.
func TestServerNodeAndCatalog(t *testing.T) {
	srv := server.New(server.Config{NodeID: "replica-7"})
	srv.Load("d", touch.GenerateUniform(200, 1), touch.TOUCHConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeWire(ln)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.ShutdownWire(ctx)
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	c, err := client.Dial(ctx, ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := c.ServerNode(); got != "replica-7" {
		t.Fatalf("ServerNode = %q (info %q), want %q", got, c.ServerInfo(), "replica-7")
	}
	infos, err := c.Datasets(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Name != "d" || infos[0].Objects != 200 || infos[0].Status != "ready" {
		t.Fatalf("Datasets = %+v, want one ready row for %q with 200 objects", infos, "d")
	}
}

// TestServerNodeAbsent: servers without a node ID yield "".
func TestServerNodeAbsent(t *testing.T) {
	addr := startServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	c, err := client.Dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := c.ServerNode(); got != "" {
		t.Fatalf("ServerNode = %q, want empty for a server without -node-id", got)
	}
}

// TestPool: at most size connections, shared round-robin, dead ones
// replaced on the next checkout.
func TestPool(t *testing.T) {
	addr := startServer(t)
	p := client.NewPool(addr, 2)
	defer p.Close()
	ctx := context.Background()

	box := touch.Box{Max: touch.Point{500, 500, 500}}
	seen := map[*client.Conn]bool{}
	for i := 0; i < 6; i++ {
		c, err := p.Conn(ctx)
		if err != nil {
			t.Fatal(err)
		}
		seen[c] = true
		if _, _, err := c.Range(ctx, "d", box); err != nil {
			t.Fatal(err)
		}
	}
	if len(seen) != 2 {
		t.Fatalf("pool used %d connections, want 2", len(seen))
	}

	var dead *client.Conn
	for c := range seen {
		dead = c
		break
	}
	dead.Close()
	replaced := false
	for i := 0; i < 4; i++ {
		c, err := p.Conn(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if c == dead {
			t.Fatal("pool handed out a closed connection")
		}
		if !seen[c] {
			replaced = true
		}
		if _, _, err := c.Range(ctx, "d", box); err != nil {
			t.Fatal(err)
		}
	}
	if !replaced {
		t.Fatal("pool never replaced the dead connection")
	}
}

// TestConnSharedPipelining: many goroutines multiplexing one connection
// each get their own correct answer.
func TestConnSharedPipelining(t *testing.T) {
	addr := startServer(t)
	ctx := context.Background()
	c, err := client.Dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	_, want, err := c.Range(ctx, "d", touch.Box{Max: touch.Point{500, 500, 500}})
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		go func() {
			for i := 0; i < 50; i++ {
				_, ids, err := c.Range(ctx, "d", touch.Box{Max: touch.Point{500, 500, 500}})
				if err == nil && len(ids) != len(want) {
					err = context.DeadlineExceeded // any sentinel: wrong answer
				}
				if err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for g := 0; g < 16; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestErrSeesIdleHangUp: nobody reads a connection that has no request
// in flight, so a peer that goes away meanwhile is found by looking:
// Err peeks at the socket and reports the hang-up, and a pool hands the
// connection out no more — no request has to fail to find out.
func TestErrSeesIdleHangUp(t *testing.T) {
	srv := server.New(server.Config{})
	srv.Load("d", touch.GenerateUniform(50, 1), touch.TOUCHConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeWire(ln)
	ctx := context.Background()
	p := client.NewPool(ln.Addr().String(), 1)
	defer p.Close()
	c, err := p.Conn(ctx)
	if err != nil {
		t.Fatal(err)
	}
	box := touch.Box{Max: touch.Point{500, 500, 500}}
	if _, _, err := c.Range(ctx, "d", box); err != nil {
		t.Fatal(err)
	}
	if err := c.Err(); err != nil {
		t.Fatalf("Err on a live idle connection: %v", err)
	}
	if !p.Healthy() {
		t.Fatal("the pool holds a live connection and reports unhealthy")
	}

	sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := srv.ShutdownWire(sctx); err != nil {
		t.Fatal(err)
	}
	// The close is on the wire once ShutdownWire returns; loopback
	// delivers it at once, a loaded machine a little later.
	for deadline := time.Now().Add(5 * time.Second); c.Err() == nil; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("Err never reported the peer's hang-up on an idle connection")
		}
	}
	if p.Healthy() {
		t.Fatal("the pool reports a hung-up connection healthy")
	}
	// The pool looks at the connection it is about to hand out: the dead
	// one is dropped, and with the server gone the redial fails.
	if c2, err := p.Conn(ctx); err == nil {
		t.Fatalf("the pool handed out a connection (the hung-up one: %v) with the server gone", c2 == c)
	}
	if _, _, err := c.Range(ctx, "d", box); err == nil {
		t.Fatal("a request on the hung-up connection succeeded")
	}
}

// TestCancelReachesTheReadingCaller: a lone caller reads its own
// response, so it is inside a blocked read when its context ends — the
// cancel frame goes out all the same, the server aborts the join, the
// terminal frame comes back to the same caller and the connection stays
// usable.
func TestCancelReachesTheReadingCaller(t *testing.T) {
	srv := server.New(server.Config{})
	srv.Load("big", touch.GenerateUniform(60_000, 2).Expand(30), touch.TOUCHConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeWire(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.ShutdownWire(ctx)
	})
	c, err := client.Dial(context.Background(), ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	// A self-join of 60,000 fat boxes runs for seconds.
	_, _, err = c.JoinCount(ctx, "big", client.JoinSpec{Probe: "big", Eps: 40})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("the join returned %v after %v, want the context's deadline", err, time.Since(start))
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("the canceled join took %v to come back", took)
	}
	if _, ids, err := c.Range(context.Background(), "big", touch.Box{Max: touch.Point{50, 50, 50}}); err != nil || len(ids) == 0 {
		t.Fatalf("the connection after a cancel: %d ids, %v", len(ids), err)
	}
}

// scriptedPeer is a wire peer that answers a request only when the test
// says so: it completes the handshake, reports the tag of every request
// frame on reqs, and answer writes one empty OpIDs frame.
type scriptedPeer struct {
	reqs chan uint32
	mu   sync.Mutex
	w    *wire.Writer
}

func startScriptedPeer(t *testing.T) (*scriptedPeer, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	p := &scriptedPeer{reqs: make(chan uint32, 1024)}
	ready := make(chan struct{})
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		r := wire.NewReader(nc, 0)
		p.w = wire.NewWriter(nc)
		if _, _, err := r.ReadHello(); err != nil || p.w.WriteHello("") != nil || p.w.Flush() != nil {
			return
		}
		close(ready)
		for {
			op, tag, _, err := r.ReadFrame()
			if err != nil {
				return
			}
			if op != wire.OpCancel {
				p.reqs <- tag
			}
		}
	}()
	t.Cleanup(func() { <-ready }) // p.w is the accepting goroutine's until then
	return p, ln.Addr().String()
}

func (p *scriptedPeer) answer(tags ...uint32) {
	p.mu.Lock()
	defer p.mu.Unlock()
	empty := wire.AppendIDsResp(nil, 1, nil)
	for _, tag := range tags {
		p.w.WriteFrame(wire.OpIDs, tag, empty)
	}
	p.w.Flush()
}

// TestReadSideTokenIsNeverSwallowed walks the one interleaving in which
// a hand-off token can be lost. Caller A reads the connection; B and C
// find the read side taken and, before they go to sleep, A reads B's
// answer and its own and leaves a token. B wakes to a completed call and
// a waiting token at once — Go picks between two ready select cases at
// random — and if it takes the token and simply leaves, C sleeps on a
// connection nobody reads: its answer, and the reply to its cancel
// frame, sit in the socket, so no deadline rescues it. Each round loses
// the token with probability one half at a client that drops it.
func TestReadSideTokenIsNeverSwallowed(t *testing.T) {
	peer, addr := startScriptedPeer(t)
	c, err := client.Dial(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// The first two waiters of a round stop in the gap until released.
	var held atomic.Int32
	gaps := make(chan chan struct{})
	client.SetAwaitGap(func() {
		if held.Add(1) <= 2 {
			release := make(chan struct{})
			gaps <- release
			<-release
		}
	})
	defer client.SetAwaitGap(nil)

	call := func(done chan<- error) {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_, _, err := c.Range(ctx, "d", touch.Box{})
		done <- err
	}
	expect := func(what string, done <-chan error) {
		t.Helper()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s is stranded: its answer is on the socket and nobody reads the connection", what)
		}
	}
	for round := 0; round < 24; round++ {
		held.Store(0)
		doneA, doneB, doneC := make(chan error, 1), make(chan error, 1), make(chan error, 1)
		go call(doneA)
		tagA := <-peer.reqs
		for !c.ReadSideTaken() { // A is the reader before anyone else waits
			time.Sleep(50 * time.Microsecond)
		}
		go call(doneB)
		tagB := <-peer.reqs
		gapB := <-gaps
		go call(doneC)
		tagC := <-peer.reqs
		gapC := <-gaps

		peer.answer(tagB, tagA)
		expect("caller A", doneA) // A has completed B, left, and put a token down
		close(gapB)
		expect("caller B", doneB)
		close(gapC)
		peer.answer(tagC)
		expect("caller C", doneC)
	}
}

// TestReadSideHandOffNeverStrands: many goroutines share one Conn, and
// the read side passes from caller to caller as each gets its answer. A
// hand-off token swallowed by a caller that was already done would leave
// the others' answers unread on the socket with nobody coming for them —
// and no deadline can help, the reply to the cancel frame sits in the
// same socket. The peer here answers only once every caller of a burst
// is waiting, all answers in one segment: whoever reads completes several
// calls and leaves, so callers keep finding their call done and a token
// waiting at once, and no later request comes along to pick a stranded
// caller up by accident.
func TestReadSideHandOffNeverStrands(t *testing.T) {
	const callers, bursts = 12, 300
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		r, w := wire.NewReader(nc, 0), wire.NewWriter(nc)
		if _, _, err := r.ReadHello(); err != nil || w.WriteHello("") != nil || w.Flush() != nil {
			return
		}
		empty := wire.AppendIDsResp(nil, 1, nil)
		for {
			var tags [callers]uint32
			for i := 0; i < callers; {
				op, tag, _, err := r.ReadFrame()
				if err != nil {
					return
				}
				if op != wire.OpCancel {
					tags[i] = tag
					i++
				}
			}
			for _, tag := range tags {
				w.WriteFrame(wire.OpIDs, tag, empty)
			}
			w.Flush()
		}
	}()
	c, err := client.Dial(context.Background(), ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	errs := make(chan error, callers)
	for b := 0; b < bursts; b++ {
		for g := 0; g < callers; g++ {
			go func() {
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				_, _, err := c.Range(ctx, "d", touch.Box{})
				errs <- err
			}()
		}
		// A stranded caller never returns at all (wait outlasts its
		// context until the terminal frame is read), so the test keeps
		// its own clock.
		timeout := time.After(20 * time.Second)
		for g := 0; g < callers; g++ {
			select {
			case err := <-errs:
				if err != nil {
					t.Fatalf("burst %d: a call on the shared connection: %v", b, err)
				}
			case <-timeout:
				t.Fatalf("burst %d: %d of %d callers are stranded, nobody reads the connection", b, callers-g, callers)
			}
		}
	}
}
