// Router: a consistent-hash routing tier over two replicas, with
// failover you can watch.
//
// Two in-process touchserved instances serve the same dataset over the
// binary wire protocol; a router in front owns the hash ring and fans
// reads out to the dataset's R=2 ring owners. The example routes range,
// knn and join queries through the router and verifies every answer
// against a direct connection to a backend (the oracle), then kills the
// dataset's primary owner and shows reads keep succeeding — same
// answers, zero errors — while the router's metrics record the ejection
// and the failovers. Run with:
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
	type replica struct {
		srv  *server.Server
		addr string
	}
	replicas := make(map[string]*replica, 2)
	var addrs []string
	for _, id := range []string{"replica-a", "replica-b"} {
		srv := server.New(server.Config{NodeID: id})
		srv.Load("parts", ds, touch.TOUCHConfig{})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		go srv.ServeWire(ln)
		replicas[id] = &replica{srv: srv, addr: ln.Addr().String()}
		addrs = append(addrs, ln.Addr().String())
		fmt.Printf("%s serving %d objects on %s\n", id, *objects, ln.Addr())
	}

	rt, err := router.New(router.Config{
		Backends:       addrs,
		Replication:    2,
		HealthInterval: 100 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	rt.Start()
	defer rt.Close()

	owners := rt.Owners("parts")
	fmt.Printf("\nring owners of \"parts\": primary %s, fallback %s\n", owners[0], owners[1])

	// The oracle: a direct connection to one replica. Every routed
	// answer must match it exactly.
	oracle, err := client.Dial(ctx, replicas[owners[0]].addr)
	if err != nil {
		log.Fatal(err)
	}
	defer oracle.Close()

	box := touch.Box{Max: touch.Point{500, 500, 500}}
	_, want, err := do(ctx, oracle, client.Range("parts", box)).IDs()
	if err != nil {
		log.Fatal(err)
	}
	_, got, err := rt.Range(ctx, "parts", box)
	if err != nil {
		log.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		log.Fatalf("routed range diverged: %d ids vs %d", len(got), len(want))
	}
	fmt.Printf("routed range query: %d ids, identical to the direct answer\n", len(got))

	_, wantN, err := do(ctx, oracle, client.KNN("parts", touch.Point{10, 20, 30}, 5)).Neighbors()
	if err != nil {
		log.Fatal(err)
	}
	_, gotN, err := rt.KNN(ctx, "parts", touch.Point{10, 20, 30}, 5)
	if err != nil {
		log.Fatal(err)
	}
	if fmt.Sprint(gotN) != fmt.Sprint(wantN) {
		log.Fatal("routed knn diverged")
	}
	fmt.Printf("routed knn query:   %d neighbors, identical\n", len(gotN))

	spec := client.JoinSpec{Boxes: []touch.Box{{Max: touch.Point{200, 200, 200}}}}
	_, _, wantCount, err := do(ctx, oracle, client.Join("parts", spec)).Join()
	if err != nil {
		log.Fatal(err)
	}
	_, _, gotCount, err := rt.Join(ctx, "parts", spec)
	if err != nil {
		log.Fatal(err)
	}
	if gotCount != wantCount {
		log.Fatalf("routed join diverged: %d pairs vs %d", gotCount, wantCount)
	}
	fmt.Printf("routed join:        %d pairs, identical\n\n", gotCount)

	// Kill the primary owner the way a crash would: listener and every
	// connection torn down at once, no goodbye.
	fmt.Printf("killing primary owner %s...\n", owners[0])
	killCtx, cancel := context.WithCancel(ctx)
	cancel()
	replicas[owners[0]].srv.ShutdownWire(killCtx)

	// Reads keep working: the first one trips over the dead backend,
	// fails over to the fallback owner inside the same call, and ejects
	// the corpse so later reads skip it entirely.
	failed := 0
	for i := 0; i < 50; i++ {
		_, ids, err := rt.Range(ctx, "parts", box)
		if err != nil || len(ids) != len(want) {
			failed++
		}
	}
	fmt.Printf("50 reads after the kill: %d failed, answers still identical\n", failed)
	if failed > 0 {
		log.Fatal("failover lost reads")
	}
	fmt.Printf("owners now served by: %s (failover within the same call)\n", owners[1])
}

// do sends one request on c; the caller decodes the reply.
func do(ctx context.Context, c *client.Conn, req client.Request) *client.Reply {
	r, err := c.Do(ctx, req)
	if err != nil {
		log.Fatal(err)
	}
	return r
}
