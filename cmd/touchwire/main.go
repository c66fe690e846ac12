// Command touchwire probes a touchserved (or touchrouter) binary
// listener: it pipelines every query given on the command line over one
// connection in a single batch, then prints one JSON answer per line, in
// request order, in exactly the shape the HTTP API uses (modulo join
// stats, which carry wall-clock timings and are never printed). That
// makes differential smoke tests one-line diffs: the same query over
// HTTP and over the wire must print the same bytes.
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
// trace per query to stderr, in the shape of the HTTP API's "trace"
// response field — stdout stays byte-identical to the untraced run, so
// differential tests keep working.
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
	"touch/internal/wire"
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

	if err := run(ctx, c, *dataset, *eps, *traced, specs); err != nil {
		log.Fatalf("%v", err)
	}
}

// run answers every spec from one batch, one write burst: every spec —
// its trace flag set when traced — is in flight before the first reply
// is read back. Answers go to stdout, each engine trace to stderr ahead
// of its answer.
func run(ctx context.Context, c *client.Conn, dataset string, eps float64, traced bool, specs []spec) error {
	var queryFlags, joinFlags byte
	if traced {
		queryFlags, joinFlags = wire.QueryFlagTrace, wire.FlagTrace
	}
	b := c.Batch()
	futs := make([]client.ReplyFuture, len(specs))
	for i, sp := range specs {
		switch {
		case sp.boxes != nil && sp.countOnly:
			futs[i] = b.Do(wire.OpJoin, wire.AppendJoinReqFlags(nil, dataset, eps, 0, joinFlags|wire.FlagCountOnly, "", sp.boxes))
		case sp.boxes != nil:
			futs[i] = b.Do(wire.OpJoin, wire.AppendJoinReqFlags(nil, dataset, eps, 0, joinFlags, "", sp.boxes))
		case sp.q.Type == api.TypeRange:
			futs[i] = b.Do(wire.OpRange, wire.AppendRangeReqFlags(nil, dataset, sp.q.Box, queryFlags))
		case sp.q.Type == api.TypePoint:
			futs[i] = b.Do(wire.OpPoint, wire.AppendPointReqFlags(nil, dataset, sp.q.Point, queryFlags))
		default:
			futs[i] = b.Do(wire.OpKNN, wire.AppendKNNReqFlags(nil, dataset, sp.q.Point, sp.q.K, queryFlags))
		}
	}
	if err := b.Send(); err != nil {
		return err
	}
	enc, tenc := json.NewEncoder(os.Stdout), json.NewEncoder(os.Stderr)
	for i, sp := range specs {
		r, err := futs[i].Get(ctx)
		if err != nil {
			return err
		}
		var (
			v, n  int64
			ids   []touch.ID
			nbrs  []touch.Neighbor
			pairs []touch.Pair
		)
		switch {
		case sp.boxes != nil && sp.countOnly:
			v, n, err = r.Count()
		case sp.boxes != nil:
			v, pairs, n, err = r.Join()
		case sp.q.Type == api.TypeKNN:
			v, nbrs, err = r.Neighbors()
		default:
			v, ids, err = r.IDs()
		}
		if err != nil {
			return err
		}
		if tr := r.Trace(); tr != nil {
			_ = tenc.Encode(tr)
		}
		// Join answers take the HTTP API's shape minus the stats the wire
		// does not carry.
		var answer any = api.NewQueryResponse(dataset, v, sp.q.Type, ids, nbrs)
		if sp.boxes != nil {
			answer = api.JoinResponse{Dataset: dataset, Version: v, ProbeObjects: len(sp.boxes),
				Count: n, Pairs: api.Pairs(pairs)}
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
