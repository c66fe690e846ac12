// Router: a consistent-hash routing tier over two replicas, with
// failover you can watch.
//
// Two in-process touchserved instances serve the same dataset over the
// binary wire protocol; a router in front owns the hash ring and fans
// reads out to the dataset's R=2 ring owners. The example sends range,
// knn and join requests to the router's own wire front — a client.Conn
// pointed at the router, exactly as at a backend — and checks that every
// answer is the same frames a direct connection to a backend (the
// oracle) gets, then kills the dataset's primary owner and shows reads
// on the same connection keep succeeding — same answers, zero errors —
// while the router fails over to the fallback owner. Run with:
//
//	go run ./examples/router [-objects 5000]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"time"

	"touch"
	"touch/client"
	"touch/internal/router"
	"touch/internal/server"
)

func main() {
	objects := flag.Int("objects", 5000, "objects per replica dataset")
	flag.Parse()
	ctx := context.Background()

	// Two replicas, same dataset: the replica model the router assumes.
	// Each gets a node ID, which the router learns from the wire hello
	// and uses to label its logs and metrics.
	ds := touch.GenerateUniform(*objects, 42)
	servers := make(map[string]*server.Server, 2)
	addrs := make(map[string]string, 2)
	var backends []string
	for _, id := range []string{"replica-a", "replica-b"} {
		servers[id] = server.New(server.Config{NodeID: id})
		servers[id].Load("parts", ds, touch.TOUCHConfig{})
		addrs[id] = serve(servers[id].ServeWire)
		backends = append(backends, addrs[id])
		fmt.Printf("%s serving %d objects on %s\n", id, *objects, addrs[id])
	}

	rt, err := router.New(router.Config{
		Backends:       backends,
		Replication:    2,
		HealthInterval: 100 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	rt.Start()
	defer rt.Close()
	// The router's wire front takes the same client and the same
	// requests as a backend: it reads the dataset name and relays the
	// frame to an owner.
	front := serve(rt.ServeWire)
	defer rt.ShutdownWire(ctx)
	fmt.Printf("router wire front on %s\n", front)

	owners := rt.Owners("parts")
	fmt.Printf("\nring owners of \"parts\": primary %s, fallback %s\n", owners[0], owners[1])

	// The oracle: a direct connection to one replica. Every routed
	// answer must be its answer, frame for frame.
	oracle, routed := dial(ctx, addrs[owners[0]]), dial(ctx, front)
	defer oracle.Close()
	defer routed.Close()
	same := func(req client.Request) *client.Reply {
		want, got := do(ctx, oracle, req), do(ctx, routed, req)
		if fmt.Sprint(got.Frame, got.Stream) != fmt.Sprint(want.Frame, want.Stream) {
			log.Fatalf("routed answer diverged: %#02x (%d stream frames) vs %#02x (%d)",
				got.Op, len(got.Stream), want.Op, len(want.Stream))
		}
		return got
	}

	rangeReq := client.Range("parts", touch.Box{Max: touch.Point{500, 500, 500}})
	_, want, err := same(rangeReq).IDs()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("routed range query: %d ids, identical to the direct answer\n", len(want))

	_, nbrs, err := same(client.KNN("parts", touch.Point{10, 20, 30}, 5)).Neighbors()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("routed knn query:   %d neighbors, identical\n", len(nbrs))

	spec := client.JoinSpec{Boxes: []touch.Box{{Max: touch.Point{200, 200, 200}}}}
	_, _, count, err := same(client.Join("parts", spec)).Join()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("routed join:        %d pairs, identical\n\n", count)

	// Kill the primary owner the way a crash would: listener and every
	// connection torn down at once, no goodbye.
	fmt.Printf("killing primary owner %s...\n", owners[0])
	killCtx, cancel := context.WithCancel(ctx)
	cancel()
	servers[owners[0]].ShutdownWire(killCtx)

	// Reads keep working on the same connection to the router: the
	// first one trips over the dead backend, fails over to the fallback
	// owner inside the same request, and ejects the corpse so later
	// reads skip it entirely. A read the router loses ends the example
	// in do; one it answers wrongly counts as failed.
	failed := 0
	for i := 0; i < 50; i++ {
		if _, ids, err := do(ctx, routed, rangeReq).IDs(); err != nil || fmt.Sprint(ids) != fmt.Sprint(want) {
			failed++
		}
	}
	fmt.Printf("50 reads after the kill: %d failed, answers still identical\n", failed)
	if failed > 0 {
		log.Fatal("failover lost reads")
	}
	fmt.Printf("owners now served by: %s (failover within the same request)\n", owners[1])
}

// serve runs srv on a fresh loopback listener and returns its address.
func serve(srv func(net.Listener) error) string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv(ln)
	return ln.Addr().String()
}

// dial connects a wire client to addr.
func dial(ctx context.Context, addr string) *client.Conn {
	c, err := client.Dial(ctx, addr)
	if err != nil {
		log.Fatal(err)
	}
	return c
}

// do sends one request on c; the caller decodes the reply.
func do(ctx context.Context, c *client.Conn, req client.Request) *client.Reply {
	r, err := c.Do(ctx, req)
	if err != nil {
		log.Fatal(err)
	}
	return r
}
