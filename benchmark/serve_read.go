package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"time"

	"touch"
	"touch/client"
	"touch/internal/core"
	"touch/internal/server"
	"touch/internal/stats"
	"touch/internal/wire"
)

// readFixture is serve_read's set-up: one frozen dataset behind every
// front door.
type readFixture struct {
	ds touch.Dataset
	st *stack
}

func (r *run) buildReadFixture() (*readFixture, error) {
	ds := touch.GenerateUniform(r.sz.readN, r.cfg.seed)
	st, err := newStack(ds, true, func(st *stack) error {
		// One query down every path: dials the HTTP keep-alive
		// connections, fills the servers' probe pools and the router's
		// backend pools.
		box, pt := ds[0].Box, ds[0].Box.Center()
		hc := &httpClient{st: st}
		warmBody := []byte(`{"type":"point","point":[1,1,1]}`)
		for i := 0; i < 4; i++ {
			if _, _, err := hc.post(warmBody); err != nil {
				return err
			}
			for _, c := range append(st.wire[:], st.routed[:]...) {
				if _, _, err := c.Range(bg, dataset, box); err != nil {
					return err
				}
				if _, _, err := c.KNN(bg, dataset, pt, knnK); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &readFixture{ds: ds, st: st}, nil
}

// readRef is what serve_read checks answers against: the in-process
// Index over the same dataset, the shapes with their expected hashes,
// and the join probes with theirs.
type readRef struct {
	idx      *touch.Index
	sh       *shapes
	qb       *queryBodies
	probes   [][]touch.Box
	probeDS  []touch.Dataset
	joinWant []uint64
}

func (r *run) newReadRef(ds touch.Dataset) (*readRef, error) {
	start := time.Now()
	ref := &readRef{idx: touch.BuildIndex(ds, touch.TOUCHConfig{})}
	var fp fingerprint
	fp.dataset(ds)
	ref.sh = r.newShapes(r.cfg.seed+2, ds, ref.idx, &fp)
	ref.qb = newQueryBodies(ref.sh)
	for j := 0; j < r.sz.joinProbes; j++ {
		probe := touch.GenerateUniform(r.sz.joinProbeN, r.cfg.seed+100+int64(j))
		fp.dataset(probe)
		res, err := ref.idx.DistanceJoin(probe, eps, nil)
		if err != nil {
			return nil, err
		}
		ref.probeDS = append(ref.probeDS, probe)
		ref.probes = append(ref.probes, boxesOf(probe))
		ref.joinWant = append(ref.joinWant, hashPairs(res.Pairs))
	}
	r.res.Inputs = fp.String()
	r.res.Sizes["objects"] = len(ds)
	r.res.Sizes["shapes"] = len(ref.sh.boxes)
	r.res.Sizes["mean_range_ids_x100"] = int(ref.sh.meanIDs * 100)
	r.res.Sizes["join_probe_boxes"] = r.sz.joinProbeN
	r.res.OracleS = time.Since(start).Seconds()
	return ref, nil
}

// shapeOf maps an op number to its query: every phase numbers its ops
// consecutively across rounds, op n uses shape n/2 % shapes, a range when
// n is even and a kNN when odd, so each phase keeps walking the shapes.
func shapeOf(sh *shapes, op int) (i int, knn bool) { return (op / 2) % len(sh.boxes), op%2 == 1 }

// latencies splits unary samples by query kind.
type latencies struct{ ranges, knns durations }

func (l *latencies) add(knn bool, d time.Duration) {
	if knn {
		l.knns = append(l.knns, d)
	} else {
		l.ranges = append(l.ranges, d)
	}
}

// unary runs ops [from, from+n) one at a time through query, checking
// every answer, and samples the latency of the ones that pass.
func (r *run) unary(what string, ref *readRef, from, n int, lat *latencies,
	query func(i int, knn bool) (uint64, time.Duration, error)) {
	for op := from; op < from+n; op++ {
		i, knn := shapeOf(ref.sh, op)
		want := ref.sh.rangeWant[i]
		if knn {
			want = ref.sh.knnWant[i]
		}
		got, d, err := query(i, knn)
		if r.check(what, op, err, got, want) {
			lat.add(knn, d)
		}
	}
}

// pipelined sends batches of pipeline queries on each connection, one
// goroutine per connection, harvesting and checking every answer, and
// returns queries per second over the wall time of the whole phase.
func (r *run) pipelined(what string, ref *readRef, conns []*client.Conn, from, batches int) float64 {
	var wg sync.WaitGroup
	start := time.Now()
	for c, conn := range conns {
		wg.Add(1)
		go func(c int, conn *client.Conn) {
			defer wg.Done()
			b := conn.Batch()
			ids := make([]client.IDsFuture, 0, pipeline)
			nbrs := make([]client.NeighborsFuture, 0, pipeline)
			op := from + c*batches*pipeline
			for n := 0; n < batches; n++ {
				ids, nbrs = ids[:0], nbrs[:0]
				for q := 0; q < pipeline; q++ {
					i, knn := shapeOf(ref.sh, op+q)
					if knn {
						nbrs = append(nbrs, b.KNN(dataset, ref.sh.points[i], knnK))
					} else {
						ids = append(ids, b.Range(dataset, ref.sh.boxes[i]))
					}
				}
				sendErr := b.Send()
				ri, ki := 0, 0
				for q := 0; q < pipeline; q++ {
					i, knn := shapeOf(ref.sh, op+q)
					if knn {
						_, ans, err := nbrs[ki].Get(bg)
						ki++
						if err == nil {
							err = sendErr
						}
						r.check(what, op+q, err, hashNeighbors(ans), ref.sh.knnWant[i])
					} else {
						_, ans, err := ids[ri].Get(bg)
						ri++
						if err == nil {
							err = sendErr
						}
						r.check(what, op+q, err, hashIDs(ans), ref.sh.rangeWant[i])
					}
				}
				op += pipeline
			}
		}(c, conn)
	}
	wg.Wait()
	return float64(len(conns)*batches*pipeline) / time.Since(start).Seconds()
}

// runServeRead is the end-to-end run of serve_read: the read path at
// every front door on identical inputs, its phases interleaved in
// rounds so that every metric samples the whole run.
func (r *run) runServeRead() error {
	fx, err := setupMedian(r, 3, r.buildReadFixture, func(fx *readFixture) { fx.st.close() })
	if err != nil {
		return err
	}
	defer fx.st.close()
	ref, err := r.newReadRef(fx.ds)
	if err != nil {
		return err
	}
	st, sz := fx.st, r.sz
	for k, v := range map[string]int{
		"rounds": rounds, "http_unary": rounds * sz.httpOps, "http_2clients": rounds * sz.http2Ops,
		"wire_unary": rounds * sz.wireOps, "router_unary": rounds * sz.routerOps,
		"wire_pipelined":   rounds * 2 * sz.pipeBatches * pipeline,
		"router_pipelined": rounds * 2 * sz.pipeBatches * pipeline,
		"wire_joins":       rounds * sz.joinOps,
	} {
		r.res.Ops[k] = v
	}

	var httpLat, wireLat, routerLat latencies
	var httpQPS, wireQPS, routerQPS []float64
	var joinLat durations
	hc := [2]*httpClient{{st: st}, {st: st}}
	viaHTTP := func(c *httpClient) func(int, bool) (uint64, time.Duration, error) {
		return func(i int, knn bool) (uint64, time.Duration, error) { return c.query(ref.qb, i, knn) }
	}
	via := func(q querier) func(int, bool) (uint64, time.Duration, error) {
		return func(i int, knn bool) (uint64, time.Duration, error) { return wireQuery(q, ref.sh, i, knn) }
	}

	before := memBefore()
	attemptedBefore := r.attempted.Load()
	start := time.Now()
	for round := 0; round < rounds; round++ {
		r.calibrate()
		r.unary("http", ref, round*sz.httpOps, sz.httpOps, &httpLat, viaHTTP(hc[0]))
		r.calibrate()

		// Two closed-loop HTTP clients, both cores busy.
		from := round * sz.http2Ops
		var wg sync.WaitGroup
		t0 := time.Now()
		for c := range hc {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				var discard latencies
				half := sz.http2Ops / 2
				r.unary("http x2", ref, from+c*half, half, &discard, viaHTTP(hc[c]))
			}(c)
		}
		wg.Wait()
		httpQPS = append(httpQPS, float64(sz.http2Ops/2*2)/time.Since(t0).Seconds())

		r.calibrate()
		r.unary("wire", ref, round*sz.wireOps, sz.wireOps, &wireLat, via(st.wire[0]))
		r.calibrate()
		r.unary("router", ref, round*sz.routerOps, sz.routerOps, &routerLat, via(st.routed[0]))
		r.calibrate()

		per := 2 * sz.pipeBatches * pipeline
		wireQPS = append(wireQPS, r.pipelined("wire pipelined", ref, st.wire[:], round*per, sz.pipeBatches))
		r.calibrate()
		routerQPS = append(routerQPS, r.pipelined("router pipelined", ref, st.routed[:], round*per, sz.pipeBatches))

		r.calibrate()
		for op := round * sz.joinOps; op < (round+1)*sz.joinOps; op++ {
			j := op % len(ref.probes)
			t0 := time.Now()
			_, pairs, _, err := st.wire[0].Join(bg, dataset, client.JoinSpec{Boxes: ref.probes[j], Eps: eps})
			d := time.Since(t0)
			if r.check("wire join", op, err, hashPairs(pairs), ref.joinWant[j]) {
				joinLat = append(joinLat, d)
			}
		}
	}
	r.res.WallS = time.Since(start).Seconds()
	ops := r.attempted.Load() - attemptedBefore

	r.setTime("http_range_p50_us", httpLat.ranges)
	r.setTime("http_knn_p50_us", httpLat.knns)
	r.setSamples("http_qps", httpQPS)
	r.setTime("wire_range_p50_us", wireLat.ranges)
	r.setTime("wire_knn_p50_us", wireLat.knns)
	r.setSamples("wire_pipelined_qps", wireQPS)
	r.setTime("router_range_p50_us", routerLat.ranges)
	r.setSamples("router_pipelined_qps", routerQPS)
	r.setTime("wire_join_p50_ms", joinLat)
	r.memAfter(before, ops, fx, ref)
	return nil
}

// ladder prices one rung for both query kinds over n ops, every call
// under a span named <stem>.<kind>, and reports <stem>.range_us and
// <stem>.knn_us (the latter only where the tables declare it). call
// makes the layer call and returns how to hash its answer; only the call
// is timed.
func (r *run) ladder(stem string, ref *readRef, n int, call func(i int, knn bool) func() (uint64, error)) {
	for _, knn := range []bool{false, true} {
		kind, want := "range", ref.sh.rangeWant
		if knn {
			kind, want = "knn", ref.sh.knnWant
		}
		name := stem + "." + kind + "_us"
		if findMetric(perLayer, name) == nil {
			continue
		}
		var answer func() (uint64, error)
		r.setTime(name, r.rung(stem+"."+kind, n,
			func(op int) { answer = call(op%len(want), knn) },
			func(op int) bool {
				got, err := answer()
				return r.check(stem, op, err, got, want[op%len(want)])
			}))
	}
}

// mallocsPerOp is the process-wide malloc count of n calls of f divided
// by n; meaningful only for rungs that run on the calling goroutine.
func mallocsPerOp(n int, f func(i int)) float64 {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < n; i++ {
		f(i)
	}
	runtime.ReadMemStats(&ms1)
	return float64(ms1.Mallocs-ms0.Mallocs) / float64(n)
}

// traceServeRead is the traced run of serve_read: the same shapes at
// every rung of the ladder from core.Probe to the router's wire front,
// each call under a span, plus the join rung, the set-up rungs and the
// cross-check against the server's own phase spans.
func (r *run) traceServeRead() error {
	fx, err := r.buildReadFixture()
	if err != nil {
		return err
	}
	defer fx.st.close()
	ref, err := r.newReadRef(fx.ds)
	if err != nil {
		return err
	}
	st, sh, n := fx.st, ref.sh, r.sz.ladderOps
	r.res.Ops["ladder_ops_per_rung"] = n
	hashedIDs := func(ids []touch.ID, err error) func() (uint64, error) {
		return func() (uint64, error) { return hashIDs(ids), err }
	}
	hashedNbrs := func(nbrs []touch.Neighbor, err error) func() (uint64, error) {
		return func() (uint64, error) { return hashNeighbors(nbrs), err }
	}

	// core.Probe on a private probe over a tree of the same dataset.
	probe := core.Build(fx.ds, core.Config{}).NewProbe()
	var rc, kc stats.Counters
	r.ladder("core", ref, n, func(i int, knn bool) func() (uint64, error) {
		if knn {
			return hashedNbrs(probe.KNN(sh.points[i], knnK, &kc), nil)
		}
		return hashedIDs(probe.RangeQuery(sh.boxes[i], &rc), nil)
	})
	r.setValue("core.range_node_tests", float64(rc.NodeTests)/float64(n))
	r.setValue("core.range_comparisons", float64(rc.Comparisons)/float64(n))
	r.setValue("core.knn_node_tests", float64(kc.NodeTests)/float64(n))

	// queries is the surface Index, Overlay and the wire clients share.
	inProcess := func(rangeQ func(touch.Box) ([]touch.ID, error), knnQ func(touch.Point, int) ([]touch.Neighbor, error)) func(int, bool) func() (uint64, error) {
		return func(i int, knn bool) func() (uint64, error) {
			if knn {
				return hashedNbrs(knnQ(sh.points[i], knnK))
			}
			return hashedIDs(rangeQ(sh.boxes[i]))
		}
	}
	r.ladder("touch.index", ref, n, inProcess(ref.idx.RangeQuery, ref.idx.KNN))
	r.setValue("touch.index.range_allocs", mallocsPerOp(n, func(i int) { ref.idx.RangeQuery(sh.boxes[i%len(sh.boxes)]) }))
	r.setValue("touch.index.knn_allocs", mallocsPerOp(n, func(i int) { ref.idx.KNN(sh.points[i%len(sh.points)], knnK) }))
	ov := touch.NewOverlay(ref.idx, nil, nil)
	r.ladder("touch.overlay_empty", ref, n, inProcess(ov.RangeQuery, ov.KNN))

	// The HTTP handler without a socket.
	var ans httpAnswer
	bytesOut := 0
	handle := func(body []byte) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, st.queryURL, bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		st.srv.ServeHTTP(rec, req)
		return rec
	}
	r.ladder("server.handler", ref, n, func(i int, knn bool) func() (uint64, error) {
		body := ref.qb.ranges[i]
		if knn {
			body = ref.qb.knns[i]
		}
		rec := handle(body)
		return func() (uint64, error) {
			if !knn {
				bytesOut += rec.Body.Len()
			}
			return ans.hash(rec.Body.Bytes(), knn)
		}
	})
	r.setValue("server.handler.range_bytes_out", float64(bytesOut)/float64(n))
	r.setValue("server.handler.range_allocs", mallocsPerOp(n, func(i int) { handle(ref.qb.ranges[i%len(sh.boxes)]) }))
	r.setValue("server.handler.knn_allocs", mallocsPerOp(n, func(i int) { handle(ref.qb.knns[i%len(sh.points)]) }))

	// The wire codec on the real answer, no socket: request encode and
	// decode, response encode and decode.
	answers := make([][]touch.ID, len(sh.boxes))
	neighbors := make([][]touch.Neighbor, len(sh.points))
	for i := range answers {
		answers[i], _ = ref.idx.RangeQuery(sh.boxes[i])
		neighbors[i], _ = ref.idx.KNN(sh.points[i], knnK)
	}
	var reqBuf, respBuf []byte
	wireOut := 0
	r.ladder("wire.codec", ref, n, func(i int, knn bool) func() (uint64, error) {
		if knn {
			reqBuf = wire.AppendKNNReq(reqBuf[:0], dataset, sh.points[i], knnK)
			_, _, _, _, reqErr := wire.DecodeKNNReq(reqBuf)
			respBuf = wire.AppendNeighborsResp(respBuf[:0], 1, neighbors[i])
			_, nbrs, err := wire.DecodeNeighborsResp(respBuf)
			if err == nil {
				err = reqErr
			}
			return hashedNbrs(nbrs, err)
		}
		reqBuf = wire.AppendRangeReq(reqBuf[:0], dataset, sh.boxes[i])
		_, _, _, reqErr := wire.DecodeRangeReq(reqBuf)
		respBuf = wire.AppendIDsResp(respBuf[:0], 1, answers[i])
		wireOut += len(respBuf)
		_, ids, err := wire.DecodeIDsResp(respBuf)
		if err == nil {
			err = reqErr
		}
		return hashedIDs(ids, err)
	})
	r.setValue("wire.range_bytes_out", float64(wireOut)/float64(n))

	// Loopback rungs, unary.
	over := func(q querier) func(int, bool) func() (uint64, error) {
		return inProcess(
			func(b touch.Box) ([]touch.ID, error) { _, ids, err := q.Range(bg, dataset, b); return ids, err },
			func(p touch.Point, k int) ([]touch.Neighbor, error) {
				_, nbrs, err := q.KNN(bg, dataset, p, k)
				return nbrs, err
			})
	}
	hc := &httpClient{st: st}
	r.ladder("server.wire", ref, n, over(st.wire[0]))
	r.ladder("server.http", ref, n, func(i int, knn bool) func() (uint64, error) {
		body := ref.qb.ranges[i]
		if knn {
			body = ref.qb.knns[i]
		}
		resp, _, err := hc.post(body)
		return func() (uint64, error) {
			if err != nil {
				return 0, err
			}
			return hc.ans.hash(resp, knn)
		}
	})
	r.ladder("router.call", ref, n, over(st.rt))
	r.ladder("router.wire", ref, n, over(st.routed[0]))
	r.setValue("server.wire.p99_us", r.res.Metrics["server.wire.range_us"].tailAt(99))
	r.setValue("server.http.p99_us", r.res.Metrics["server.http.range_us"].tailAt(99))
	r.setValue("router.wire.p99_us", r.res.Metrics["router.wire.range_us"].tailAt(99))

	// Self times: a rung minus the rung below it.
	for _, kind := range []string{"range", "knn"} {
		m := func(stem string) float64 { return r.median(stem + "." + kind + "_us") }
		r.setValue("touch.index.self_"+kind+"_us", m("touch.index")-m("core"))
		r.setValue("server.handler.self_"+kind+"_us", m("server.handler")-m("touch.index"))
		// The wire path does not pass through the HTTP handler: below it
		// are the index and the codec, priced separately.
		r.setValue("server.wire.self_"+kind+"_us", m("server.wire")-m("touch.index")-m("wire.codec"))
		r.setValue("server.http.self_"+kind+"_us", m("server.http")-m("server.handler"))
		r.setValue("router.self_"+kind+"_us", m("router.wire")-m("server.wire"))
	}

	// The join rung: the same inline probe in process and over the wire.
	joins := max(r.sz.joinOps*rounds/2, 2)
	var assignT, joinT durations
	var res *touch.Result
	var joinErr error
	r.setTime("touch.index.join_ms", r.rung("touch.index.join", joins,
		func(op int) {
			var sp touch.Span
			res, joinErr = ref.idx.DistanceJoin(ref.probeDS[op%len(ref.probeDS)], eps, &touch.Options{Trace: &sp})
		},
		func(op int) bool {
			var got uint64
			if joinErr == nil {
				got = hashPairs(res.Pairs)
				assignT = append(assignT, res.Stats.AssignTime)
				joinT = append(joinT, res.Stats.JoinTime)
			}
			return r.check("index join", op, joinErr, got, ref.joinWant[op%len(ref.joinWant)])
		}))
	r.setTime("touch.index.join_assign_ms", assignT)
	r.setTime("touch.index.join_join_ms", joinT)

	// Over the wire with the server's own phase spans switched on, which
	// also feeds the cross-check below: how much of the client's wall
	// time no server phase accounts for.
	var unaccounted []float64
	var pairs []touch.Pair
	var tr *client.Trace
	r.setTime("server.wire.join_ms", r.rung("server.wire.join", joins,
		func(op int) {
			start := time.Now()
			_, pairs, _, tr, joinErr = st.wire[0].JoinTraced(bg, dataset, client.JoinSpec{Boxes: ref.probes[op%len(ref.probes)], Eps: eps})
			if wall := time.Since(start); joinErr == nil && tr != nil {
				unaccounted = append(unaccounted, 100*(1-float64(phaseSum(tr))/float64(wall)))
			}
		},
		func(op int) bool {
			return r.check("wire join", op, joinErr, hashPairs(pairs), ref.joinWant[op%len(ref.joinWant)])
		}))
	r.setValue("server.wire.self_join_ms", r.median("server.wire.join_ms")-r.median("touch.index.join_ms"))

	// Two paired comparisons on the same shapes, the order within a pair
	// alternating so that neither side always finds the other's data warm
	// in the cache: the wire range with and without the server's trace
	// flag (trace.flag_overhead_pct, and what share of the client's wall
	// time the server's phases leave unaccounted), and the top rung with
	// and without this benchmark's own span around it
	// (bench.trace_overhead_pct).
	var ids []touch.ID
	var rangeErr error
	var flagged, unflagged, spanned, bare durations
	for op := 0; op < 2*n; op++ {
		i, first := pairOrder(op, len(sh.boxes))
		var d time.Duration
		if first {
			d = r.timed("trace.range", -1, op, func() { _, ids, tr, rangeErr = st.wire[0].RangeTraced(bg, dataset, sh.boxes[i]) })
		} else {
			d = r.timed("server.wire.range", -1, op, func() { _, ids, rangeErr = st.wire[0].Range(bg, dataset, sh.boxes[i]) })
		}
		if r.check("wire range", op, rangeErr, hashIDs(ids), sh.rangeWant[i]) {
			if !first {
				unflagged = append(unflagged, d)
				continue
			}
			flagged = append(flagged, d)
			if tr != nil {
				unaccounted = append(unaccounted, 100*(1-float64(phaseSum(tr))/float64(d)))
			}
		}
	}
	r.setSamples("trace.unaccounted_pct", unaccounted)
	r.setOverhead("trace.flag_overhead_pct", flagged, unflagged)
	for op := 0; op < 2*n; op++ {
		i, first := pairOrder(op, len(sh.boxes))
		var got uint64
		var d time.Duration
		if first {
			d = r.timed("bench.overhead", -1, op, func() { got, _, rangeErr = wireQuery(st.routed[0], sh, i, false) })
		} else {
			got, d, rangeErr = wireQuery(st.routed[0], sh, i, false)
		}
		if !r.check("router range", op, rangeErr, got, sh.rangeWant[i]) {
			continue
		}
		if first {
			spanned = append(spanned, d)
		} else {
			bare = append(bare, d)
		}
	}
	r.setOverhead("bench.trace_overhead_pct", spanned, bare)

	return r.traceSetupRungs(fx.ds)
}

// pairOrder lays out a paired comparison: ops 2p and 2p+1 use shape
// p%shapes, and which of the two runs the instrumented side alternates
// from pair to pair.
func pairOrder(op, shapes int) (i int, instrumented bool) {
	pair := op / 2
	return pair % shapes, (op%2 == 0) == (pair%2 == 0)
}

// phaseSum adds up the phases of a server-side trace.
func phaseSum(tr *client.Trace) time.Duration {
	var sum int64
	for _, ns := range tr.PhaseNs {
		sum += ns
	}
	return time.Duration(sum)
}

// tailAt returns the metric's p-th percentile if that is the tail the
// sample count afforded, else 0.
func (m *metric) tailAt(p float64) float64 {
	if m != nil && m.TailP == p {
		return m.Tail
	}
	return 0
}

// traceSetupRungs prices what setup_s is made of: loading a dataset
// into a server, encoding and decoding its snapshot, and recovering a
// server from its data directory.
func (r *run) traceSetupRungs(ds touch.Dataset) error {
	if err := os.MkdirAll(r.cfg.outDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(r.cfg.outDir, "recover-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	const reps = 3
	r.setTime("server.load_ms", r.rung("server.load", reps, func(int) {
		server.New(server.Config{}).Load(dataset, ds, touch.TOUCHConfig{})
	}, nil))
	idx := touch.BuildIndex(ds, touch.TOUCHConfig{})
	var data []byte
	var encErr error
	r.setTime("snapshot.encode_ms", r.rung("snapshot.encode", reps,
		func(int) { data, encErr = touch.EncodeSnapshot(touch.SnapshotInfo{Name: dataset, Version: 1}, ds, idx) },
		func(int) bool { return encErr == nil }))
	if encErr != nil {
		return encErr
	}
	r.setValue("snapshot.bytes_per_object", float64(len(data))/float64(max(len(ds), 1)))
	var back touch.Dataset
	var decErr error
	r.setTime("snapshot.decode_ms", r.rung("snapshot.decode", reps,
		func(int) { _, back, _, decErr = touch.DecodeSnapshot(data) },
		func(op int) bool { return r.check("snapshot decode", op, decErr, uint64(len(back)), uint64(len(ds))) }))

	// A server with a data directory persists the load; a second server
	// on the same directory recovers it without rebuilding.
	server.New(server.Config{DataDir: dir}).Load(dataset, ds, touch.TOUCHConfig{})
	var recovered server.RecoveryStats
	var recErr error
	r.setTime("server.recover_ms", r.rung("server.recover", reps,
		func(int) { recovered, recErr = server.New(server.Config{DataDir: dir}).Recover() },
		func(op int) bool { return r.check("recover", op, recErr, uint64(recovered.Loaded), 1) }))
	return nil
}
