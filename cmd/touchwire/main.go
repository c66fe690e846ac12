// Command touchwire probes a touchserved binary listener: it pipelines
// every query given on the command line over one connection in a single
// batch, then prints one JSON answer per line, in request order, in
// exactly the shape the HTTP API uses (modulo join stats, which carry
// wall-clock timings and are never printed). That makes differential
// smoke tests one-line diffs: the same query over HTTP and over the
// wire must print the same bytes.
//
// Usage:
//
//	touchwire -addr HOST:PORT [-dataset NAME] [-eps E] [-trace] SPEC...
//
// where each SPEC is one of
//
//	range:minx,miny,minz,maxx,maxy,maxz
//	point:x,y,z
//	knn:x,y,z,k
//	join:minx,miny,minz,maxx,maxy,maxz[;more boxes...]
//	joincount:minx,...,maxz[;...]
//
// Answers go to stdout; any error (transport or server-side) is fatal
// with a nonzero exit. -trace asks the server for a per-query engine
// trace (request ID, phase timings, work counters) and prints one JSON
// trace per query to stderr — stdout stays byte-identical to the
// untraced run, so differential tests keep working.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"touch"
	"touch/client"
	"touch/internal/api"
)

// spec is one parsed command-line SPEC.
type spec struct {
	q         api.Query   // range, point, knn
	boxes     []touch.Box // join, joincount
	countOnly bool
}

// parseSpec parses "kind:args"; any malformed spec is fatal.
func parseSpec(arg string) spec {
	kind, rest, ok := strings.Cut(arg, ":")
	if !ok {
		log.Fatalf("bad spec %q: want kind:args", arg)
	}
	var sp spec
	switch kind {
	case api.TypeRange:
		f := floats(arg, rest, 6)
		sp.q = api.Query{Type: kind, Box: touch.Box{Min: touch.Point{f[0], f[1], f[2]}, Max: touch.Point{f[3], f[4], f[5]}}}
	case api.TypePoint:
		f := floats(arg, rest, 3)
		sp.q = api.Query{Type: kind, Point: touch.Point{f[0], f[1], f[2]}}
	case api.TypeKNN:
		f := floats(arg, rest, 4)
		sp.q = api.Query{Type: kind, Point: touch.Point{f[0], f[1], f[2]}, K: int(f[3])}
	case "join", "joincount":
		sp.boxes, sp.countOnly = joinBoxes(arg, rest), kind == "joincount"
	default:
		log.Fatalf("bad spec %q: unknown kind %q", arg, kind)
	}
	return sp
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("touchwire: ")
	var (
		addr    = flag.String("addr", "", "binary listener address (required)")
		dataset = flag.String("dataset", "default", "dataset every query targets")
		eps     = flag.Float64("eps", 0, "join ε distance")
		timeout = flag.Duration("timeout", 30*time.Second, "overall deadline")
		traced  = flag.Bool("trace", false, "request per-query engine traces; traces print to stderr as JSON")
	)
	flag.Parse()
	if *addr == "" || flag.NArg() == 0 {
		log.Fatalf("usage: touchwire -addr HOST:PORT [-dataset NAME] SPEC...")
	}
	specs := make([]spec, flag.NArg())
	for i, arg := range flag.Args() {
		specs[i] = parseSpec(arg)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	c, err := client.Dial(ctx, *addr)
	if err != nil {
		log.Fatalf("dial %s: %v", *addr, err)
	}
	defer c.Close()

	run := runBatch
	if *traced {
		run = runTraced
	}
	if err := run(ctx, c, *dataset, *eps, specs); err != nil {
		log.Fatalf("%v", err)
	}
}

// joinAnswer renders a join answer in the HTTP API's shape, minus the
// stats the wire does not carry.
func joinAnswer(dataset string, sp spec, version, count int64, pairs []touch.Pair) api.JoinResponse {
	return api.JoinResponse{Dataset: dataset, Version: version, ProbeObjects: len(sp.boxes),
		Count: count, Pairs: api.Pairs(pairs)}
}

// runBatch answers every spec from one batch, one write burst: every
// spec is in flight before the first answer is read back.
func runBatch(ctx context.Context, c *client.Conn, dataset string, eps float64, specs []spec) error {
	b := c.Batch()
	gets := make([]func() (any, error), len(specs))
	for i, sp := range specs {
		js := client.JoinSpec{Boxes: sp.boxes, Eps: eps}
		switch {
		case sp.boxes != nil && sp.countOnly:
			fut := b.JoinCount(dataset, js)
			gets[i] = func() (any, error) {
				v, n, err := fut.Get(ctx)
				return joinAnswer(dataset, sp, v, n, nil), err
			}
		case sp.boxes != nil:
			fut := b.Join(dataset, js)
			gets[i] = func() (any, error) {
				v, pairs, n, err := fut.Get(ctx)
				return joinAnswer(dataset, sp, v, n, pairs), err
			}
		case sp.q.Type == api.TypeKNN:
			fut := b.KNN(dataset, sp.q.Point, sp.q.K)
			gets[i] = func() (any, error) {
				v, nbrs, err := fut.Get(ctx)
				return api.NewQueryResponse(dataset, v, sp.q.Type, nil, nbrs), err
			}
		default:
			var fut client.IDsFuture
			if sp.q.Type == api.TypeRange {
				fut = b.Range(dataset, sp.q.Box)
			} else {
				fut = b.Point(dataset, sp.q.Point)
			}
			gets[i] = func() (any, error) {
				v, ids, err := fut.Get(ctx)
				return api.NewQueryResponse(dataset, v, sp.q.Type, ids, nil), err
			}
		}
	}
	if err := b.Send(); err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	for _, get := range gets {
		answer, err := get()
		if err == nil {
			err = enc.Encode(answer)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// runTraced answers each spec with a traced unary call: the answer goes
// to stdout in the usual shape, the engine trace to stderr. Sequential
// round trips instead of one pipelined batch — tracing is a diagnosis
// mode, not a throughput mode.
func runTraced(ctx context.Context, c *client.Conn, dataset string, eps float64, specs []spec) error {
	enc := json.NewEncoder(os.Stdout)
	tenc := json.NewEncoder(os.Stderr)
	for _, sp := range specs {
		var (
			answer any
			v, n   int64
			ids    []touch.ID
			nbrs   []touch.Neighbor
			pairs  []touch.Pair
			tr     *client.Trace
			err    error
		)
		js := client.JoinSpec{Boxes: sp.boxes, Eps: eps}
		switch {
		case sp.boxes != nil && sp.countOnly:
			v, n, tr, err = c.JoinCountTraced(ctx, dataset, js)
			answer = joinAnswer(dataset, sp, v, n, nil)
		case sp.boxes != nil:
			v, pairs, n, tr, err = c.JoinTraced(ctx, dataset, js)
			answer = joinAnswer(dataset, sp, v, n, pairs)
		default:
			switch sp.q.Type {
			case api.TypeRange:
				v, ids, tr, err = c.RangeTraced(ctx, dataset, sp.q.Box)
			case api.TypePoint:
				v, ids, tr, err = c.PointTraced(ctx, dataset, sp.q.Point)
			default:
				v, nbrs, tr, err = c.KNNTraced(ctx, dataset, sp.q.Point, sp.q.K)
			}
			answer = api.NewQueryResponse(dataset, v, sp.q.Type, ids, nbrs)
		}
		if err != nil {
			return err
		}
		if tr != nil {
			_ = tenc.Encode(tr)
		}
		if err := enc.Encode(answer); err != nil {
			return err
		}
	}
	return nil
}

// floats parses arg as exactly n comma-separated numbers.
func floats(spec, arg string, n int) []float64 {
	parts := strings.Split(arg, ",")
	if len(parts) != n {
		log.Fatalf("bad spec %q: want %d comma-separated numbers, got %d", spec, n, len(parts))
	}
	out := make([]float64, n)
	for i, p := range parts {
		f, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			log.Fatalf("bad spec %q: %v", spec, err)
		}
		out[i] = f
	}
	return out
}

// joinBoxes parses semicolon-separated 6-number probe boxes.
func joinBoxes(spec, arg string) []touch.Box {
	var boxes []touch.Box
	for _, part := range strings.Split(arg, ";") {
		f := floats(spec, part, 6)
		boxes = append(boxes, touch.Box{Min: touch.Point{f[0], f[1], f[2]}, Max: touch.Point{f[3], f[4], f[5]}})
	}
	if len(boxes) == 0 {
		log.Fatalf("bad spec %q: no boxes", spec)
	}
	return boxes
}
