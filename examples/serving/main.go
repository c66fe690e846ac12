// Serving: one dataset, one reader, three front doors.
//
// The paper's §4.3 reusable-index scenario taken to its serving-system
// conclusion. The program loads two datasets once and then asks the
// same three questions — a range query, a kNN query and an ε-join — of
// the same data
//
//  1. in process, on one shared reader under concurrent goroutines
//     (plus a join streamed into a sink that cancels it and one that is
//     canceled by a deadline),
//  2. over HTTP/JSON, through the touchserved handler on a loopback port,
//  3. over the pipelined binary protocol, through touch/client (unary,
//     one pipelined batch, a streamed join and a canceled one),
//
// and requires identical answers at every door. It then updates the
// dataset (a PATCH over HTTP, an Update over the wire, the same batches
// applied to an in-process Mutable) and asks again, snapshots the index
// through the public codec, and finally abandons the server and
// restarts a fresh one from its data directory: same versions, same
// answers, no rebuild. Run with:
//
//	go run ./examples/serving [-clients 8]
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"slices"
	"sync"
	"time"

	"touch"
	"touch/client"
	"touch/internal/api"
	"touch/internal/server"
)

// The three questions every door is asked.
var (
	box = touch.NewBox(touch.Point{200, 200, 200}, touch.Point{420, 420, 420})
	pt  = touch.Point{333, 666, 111}
)

const (
	k   = 12
	eps = 5.0
)

// answers is what a door returns for them.
type answers struct {
	IDs   []touch.ID
	Nbrs  []touch.Neighbor
	Pairs []touch.Pair // sorted by (A, B)
}

func main() {
	clients := flag.Int("clients", 8, "concurrent in-process client goroutines")
	flag.Parse()
	ctx := context.Background()
	dir, err := os.MkdirTemp("", "touch-serving")
	check(err)
	defer os.RemoveAll(dir)

	// Load once. Every Load persists its snapshot to the data directory
	// before the version becomes visible.
	cells := touch.GenerateClustered(20_000, 1)
	grid := touch.GenerateUniform(5_000, 2)
	srv := server.New(server.Config{MaxInFlight: 32, DataDir: dir})
	srv.Load("cells", cells, touch.TOUCHConfig{})
	srv.Load("grid", grid, touch.TOUCHConfig{})
	hs := httptest.NewServer(srv)
	defer hs.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	check(err)
	go srv.ServeWire(ln)
	defer srv.ShutdownWire(ctx)
	conn, err := client.Dial(ctx, ln.Addr().String())
	check(err)
	defer conn.Close()
	fmt.Printf("cells (%d) and grid (%d) loaded; HTTP on %s, wire on %s\n\n", len(cells), len(grid), hs.URL, ln.Addr())

	// --- 1. In process: one reader, many goroutines. --------------------
	// The tree is immutable and every call draws a private probe from a
	// pool, so any number of goroutines share one reader with no locks.
	m, err := touch.NewMutable(cells, touch.TOUCHConfig{})
	check(err)
	want := inProcess(m.View(), grid)
	if len(want.IDs) < 4 || len(want.Nbrs) != k || len(want.Pairs) == 0 {
		log.Fatalf("the fixture answers too little: %d ids, %d pairs", len(want.IDs), len(want.Pairs))
	}
	var wg sync.WaitGroup
	for cl := 0; cl < *clients; cl++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mustAgree("concurrent in-process client", inProcess(m.View(), grid), want)
		}()
	}
	wg.Wait()
	fmt.Printf("in process: %d ids, %d neighbors, %d pairs — %d concurrent clients agree ✓\n",
		len(want.IDs), len(want.Nbrs), len(want.Pairs), *clients)

	// The same reader streams joins through a sink: pairs arrive as the
	// engine finds them, a sink that has seen enough cancels its context
	// and the join stops at its next checkpoint instead of finishing, and
	// a deadline cancels one mid-flight.
	sctx, cancel := context.WithCancel(ctx)
	streamed, half := 0, len(want.Pairs)/2+1
	_, err = m.View().Join(sctx, grid, &touch.Options{Eps: eps, Sink: sinkFunc(func(a, b touch.ID) {
		if sctx.Err() == nil {
			if streamed++; streamed == half {
				cancel()
			}
		}
	})})
	cancel()
	if err != nil && !errors.Is(err, touch.ErrJoinCanceled) {
		log.Fatal(err)
	}
	dctx, cancel := context.WithTimeout(ctx, time.Nanosecond)
	_, err = m.View().Join(dctx, grid, &touch.Options{Eps: eps})
	cancel()
	if !errors.Is(err, touch.ErrJoinCanceled) {
		log.Fatalf("expected ErrJoinCanceled, got %v", err)
	}
	fmt.Printf("streamed %d of %d pairs then cancelled from the sink; a deadline returned ErrJoinCanceled ✓\n", streamed, len(want.Pairs))

	// --- 2 and 3. The network doors. --------------------------------------
	mustAgree("HTTP", overHTTP(hs.URL), want)
	mustAgree("wire", overWire(ctx, conn), want)
	fmt.Println("HTTP/JSON and binary wire answers identical to the in-process reader ✓")

	// One pipelined batch: every request leaves in a single write burst
	// and the answers come back tagged, in request order.
	b := conn.Batch()
	futs := make([]client.IDsFuture, 16)
	for i := range futs {
		futs[i] = b.Range("cells", shifted(i))
	}
	check(b.Send())
	for i, f := range futs {
		_, ids, err := f.Get(ctx)
		check(err)
		if ref, _ := m.View().RangeQuery(shifted(i)); !slices.Equal(ids, ref) {
			log.Fatalf("pipelined range %d: %d ids, in process %d", i, len(ids), len(ref))
		}
	}
	// A canceled context sends a cancel frame: the server tears the join
	// down and the connection stays usable.
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, _, _, err := conn.Join(cctx, "cells", client.JoinSpec{Probe: "grid", Eps: eps}); !errors.Is(err, context.Canceled) {
		log.Fatalf("canceled wire join returned %v", err)
	}
	mustAgree("wire after cancel", overWire(ctx, conn), want)
	fmt.Printf("pipelined batch of %d matches; canceled join left the connection serving ✓\n\n", len(futs))

	// --- Updates: the same batches at every door. ---------------------------
	// Deletes apply before inserts; inserted objects get fresh IDs after
	// the largest base ID, the same on the server and in the Mutable.
	ins := []touch.Box{box, shifted(1)}
	var ur api.UpdateResponse
	call("PATCH", hs.URL+"/v1/datasets/cells", api.UpdateRequest{Insert: [][]float64{row(ins[0]), row(ins[1])}, Delete: want.IDs[:2]}, &ur)
	m.Delete(want.IDs[:2])
	ids, err := m.Insert(ins)
	check(err)
	if !reflect.DeepEqual(ur.InsertedIDs, ids) {
		log.Fatalf("server assigned IDs %v, Mutable %v", ur.InsertedIDs, ids)
	}
	_, err = conn.Update(ctx, "cells", client.UpdateSpec{Delete: want.IDs[2:4]})
	check(err)
	m.Delete(want.IDs[2:4])

	// One View answers all three questions from one generation.
	updated := inProcess(m.View(), grid)
	if reflect.DeepEqual(updated, want) {
		log.Fatal("the update changed no answer")
	}
	mustAgree("HTTP after update", overHTTP(hs.URL), updated)
	mustAgree("wire after update", overWire(ctx, conn), updated)
	st := m.Stats()
	fmt.Printf("updated (%d inserts, %d tombstones pending): %d ids now, all three doors agree ✓\n",
		st.DeltaInserts, st.DeltaTombstones, len(updated.IDs))
	// Folding the delta into a fresh base changes no answer.
	m.Compact()
	mustAgree("after Compact", inProcess(m.View(), grid), updated)

	// --- Durability: the codec, then a restart. ----------------------------
	// Compact left one tier and nothing pending: the view is one dataset
	// and its index.
	data, err := touch.EncodeSnapshot(touch.SnapshotInfo{Name: "cells", Version: 1}, m.Dataset(), m.View())
	check(err)
	_, _, thawed, err := touch.DecodeSnapshot(data)
	check(err)
	mustAgree("decoded snapshot", inProcess(thawed, grid), updated)
	data[len(data)/2] ^= 1
	if _, _, _, err := touch.DecodeSnapshot(data); !errors.Is(err, touch.ErrSnapshotCorrupt) {
		log.Fatalf("a flipped bit decoded: %v", err)
	}
	fmt.Printf("snapshot of %s round-trips to identical answers; one flipped bit is rejected ✓\n", touch.FormatBytes(int64(len(data))))

	// Abandon the server — no drain, no flush — and start another over
	// the same directory. Pending updates live in memory only until a
	// compaction folds them into the next persisted version, so the
	// restart serves the base version: the answers from before the PATCH.
	start := time.Now()
	srv2 := server.New(server.Config{DataDir: dir})
	rs, err := srv2.Recover()
	check(err)
	hs2 := httptest.NewServer(srv2)
	defer hs2.Close()
	mustAgree("restarted server", overHTTP(hs2.URL), want)
	fmt.Printf("restart: recovered %d datasets in %v with zero rebuilds, base answers intact ✓\n",
		rs.Loaded, time.Since(start).Round(time.Microsecond))
}

// inProcess asks the reader directly.
func inProcess(v *touch.Overlay, probe touch.Dataset) answers {
	ids, err := v.RangeQuery(box)
	check(err)
	nbrs, err := v.KNN(pt, k)
	check(err)
	res, err := v.Join(context.Background(), probe, &touch.Options{Eps: eps})
	check(err)
	res.SortPairs()
	return answers{ids, nbrs, res.Pairs}
}

// overHTTP asks touchserved's JSON API.
func overHTTP(base string) answers {
	var a answers
	var qr api.QueryResponse
	call("POST", base+"/v1/datasets/cells/query", api.QueryRequest{Type: api.TypeRange, Box: row(box)}, &qr)
	a.IDs = qr.IDs
	qr = api.QueryResponse{}
	call("POST", base+"/v1/datasets/cells/query", api.QueryRequest{Type: api.TypeKNN, Point: pt[:], K: k}, &qr)
	for _, n := range qr.Neighbors {
		a.Nbrs = append(a.Nbrs, touch.Neighbor{ID: n.ID, Distance: n.Distance})
	}
	var jr api.JoinResponse
	call("POST", base+"/v1/datasets/cells/join", api.JoinRequest{Probe: "grid", Eps: eps}, &jr)
	for _, p := range jr.Pairs {
		a.Pairs = append(a.Pairs, touch.Pair{A: p[0], B: p[1]})
	}
	return a
}

// overWire asks the binary protocol, one unary request each.
func overWire(ctx context.Context, c *client.Conn) answers {
	_, ids, err := c.Range(ctx, "cells", box)
	check(err)
	_, nbrs, err := c.KNN(ctx, "cells", pt, k)
	check(err)
	_, pairs, _, err := c.Join(ctx, "cells", client.JoinSpec{Probe: "grid", Eps: eps})
	check(err)
	return answers{ids, nbrs, pairs}
}

// call sends one JSON request and decodes the 200 response.
func call(method, url string, body, into any) {
	buf, err := json.Marshal(body)
	check(err)
	req, err := http.NewRequest(method, url, bytes.NewReader(buf))
	check(err)
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	check(err)
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	check(err)
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("%s %s: status %d: %s", method, url, resp.StatusCode, out)
	}
	check(json.Unmarshal(out, into))
}

func row(b touch.Box) []float64 {
	return []float64{b.Min[0], b.Min[1], b.Min[2], b.Max[0], b.Max[1], b.Max[2]}
}

// shifted is the i-th box of the pipelined batch.
func shifted(i int) touch.Box {
	lo := touch.Point{float64(i * 50), float64(i * 40), float64(i * 30)}
	return touch.NewBox(lo, touch.Point{lo[0] + 150, lo[1] + 150, lo[2] + 150})
}

func mustAgree(door string, got, want answers) {
	if !reflect.DeepEqual(got, want) {
		log.Fatalf("%s: answers differ (%d/%d ids, %d/%d neighbors, %d/%d pairs)", door,
			len(got.IDs), len(want.IDs), len(got.Nbrs), len(want.Nbrs), len(got.Pairs), len(want.Pairs))
	}
}

// sinkFunc adapts a function to touch.Sink.
type sinkFunc func(a, b touch.ID)

func (f sinkFunc) Emit(a, b touch.ID) { f(a, b) }

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
