package client_test

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"touch"
	"touch/client"
	"touch/internal/server"
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
