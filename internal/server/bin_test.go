package server

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"touch"
	"touch/client"
	"touch/internal/api"
	"touch/internal/testutil"
	"touch/internal/wire"
)

// startWire opens a binary-protocol listener on the test server and
// returns its address. The listener drains at cleanup.
func (ts *testServer) startWire() string {
	ts.t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		ts.t.Fatal(err)
	}
	go ts.srv.ServeWire(ln)
	ts.t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		ts.srv.ShutdownWire(ctx)
	})
	return ln.Addr().String()
}

func (ts *testServer) dialWire(addr string) *client.Conn {
	ts.t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	c, err := client.Dial(ctx, addr)
	if err != nil {
		ts.t.Fatal(err)
	}
	ts.t.Cleanup(func() { c.Close() })
	return c
}

// TestWireDifferentialVsHTTP proves the binary and HTTP paths answer
// identically — same IDs, neighbors, pairs, counts and catalog version
// — for range, point, knn and join against the same serving snapshot.
func TestWireDifferentialVsHTTP(t *testing.T) {
	// One-object datasets park in their build until the test ends: the
	// "still building" rows below need a name with no version ready.
	release := make(chan struct{})
	defer close(release)
	cfg := Config{}
	cfg.build = func(ds touch.Dataset, tc touch.TOUCHConfig) *touch.Index {
		if len(ds) == 1 {
			<-release
		}
		return touch.BuildIndex(ds, tc)
	}
	ts := newTestServer(t, cfg)
	ds := touch.GenerateUniform(800, 42)
	ts.srv.Load("cells", ds, touch.TOUCHConfig{})
	addr := ts.startWire()
	c := ts.dialWire(addr)
	ctx := context.Background()

	boxes, points, ks := testutil.QueryWorkload(7, 48)

	httpQuery := func(body api.QueryRequest) api.QueryResponse {
		t.Helper()
		status, raw := ts.postJSON("/v1/datasets/cells/query", body)
		if status != http.StatusOK {
			t.Fatalf("http query: status %d: %s", status, raw)
		}
		var resp api.QueryResponse
		if err := json.Unmarshal(raw, &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}

	for i := range boxes {
		b := boxes[i]
		href := httpQuery(api.QueryRequest{Type: "range", Box: []float64{b.Min[0], b.Min[1], b.Min[2], b.Max[0], b.Max[1], b.Max[2]}})
		wv, wids, err := c.Range(ctx, "cells", b)
		if err != nil {
			t.Fatalf("wire range %d: %v", i, err)
		}
		if wv != href.Version {
			t.Fatalf("range %d: version %d vs http %d", i, wv, href.Version)
		}
		if len(wids) != len(href.IDs) {
			t.Fatalf("range %d: %d ids vs http %d", i, len(wids), len(href.IDs))
		}
		for j := range wids {
			if wids[j] != href.IDs[j] {
				t.Fatalf("range %d id %d: %d vs http %d", i, j, wids[j], href.IDs[j])
			}
		}

		p := points[i]
		href = httpQuery(api.QueryRequest{Type: "point", Point: []float64{p[0], p[1], p[2]}})
		_, wids, err = c.Point(ctx, "cells", p)
		if err != nil {
			t.Fatalf("wire point %d: %v", i, err)
		}
		if len(wids) != len(href.IDs) {
			t.Fatalf("point %d: %d ids vs http %d", i, len(wids), len(href.IDs))
		}
		for j := range wids {
			if wids[j] != href.IDs[j] {
				t.Fatalf("point %d id %d: %d vs http %d", i, j, wids[j], href.IDs[j])
			}
		}

		href = httpQuery(api.QueryRequest{Type: "knn", Point: []float64{p[0], p[1], p[2]}, K: ks[i]})
		_, nbrs, err := c.KNN(ctx, "cells", p, ks[i])
		if err != nil {
			t.Fatalf("wire knn %d: %v", i, err)
		}
		if len(nbrs) != len(href.Neighbors) {
			t.Fatalf("knn %d: %d neighbors vs http %d", i, len(nbrs), len(href.Neighbors))
		}
		for j, n := range nbrs {
			if n.ID != href.Neighbors[j].ID || n.Distance != href.Neighbors[j].Distance {
				t.Fatalf("knn %d neighbor %d: %v vs http %v", i, j, n, href.Neighbors[j])
			}
		}
	}

	// Joins: inline probe boxes, pairs and counts, both count_only and
	// materialized, plus a named-probe join.
	probe := touch.GenerateUniform(120, 99).Expand(10)
	rows := boxRows(probe)
	probeBoxes := make([]touch.Box, len(probe))
	for i, o := range probe {
		probeBoxes[i] = o.Box
	}

	status, raw := ts.postJSON("/v1/datasets/cells/join", api.JoinRequest{Boxes: rows, Eps: 3})
	if status != http.StatusOK {
		t.Fatalf("http join: status %d: %s", status, raw)
	}
	var hj api.JoinResponse
	if err := json.Unmarshal(raw, &hj); err != nil {
		t.Fatal(err)
	}
	wv, pairs, count, err := c.Join(ctx, "cells", client.JoinSpec{Boxes: probeBoxes, Eps: 3})
	if err != nil {
		t.Fatalf("wire join: %v", err)
	}
	if wv != hj.Version || count != hj.Count {
		t.Fatalf("join: version %d count %d vs http version %d count %d", wv, count, hj.Version, hj.Count)
	}
	if len(pairs) != len(hj.Pairs) {
		t.Fatalf("join: %d pairs vs http %d", len(pairs), len(hj.Pairs))
	}
	for i, p := range pairs {
		if p.A != hj.Pairs[i][0] || p.B != hj.Pairs[i][1] {
			t.Fatalf("join pair %d: %v vs http %v", i, p, hj.Pairs[i])
		}
	}
	_, wcount, err := c.JoinCount(ctx, "cells", client.JoinSpec{Boxes: probeBoxes, Eps: 3})
	if err != nil || wcount != hj.Count {
		t.Fatalf("wire join count: %d, %v (http %d)", wcount, err, hj.Count)
	}

	ts.srv.Load("probe", probe, touch.TOUCHConfig{})
	status, raw = ts.postJSON("/v1/datasets/cells/join", api.JoinRequest{Probe: "probe", CountOnly: true})
	if status != http.StatusOK {
		t.Fatalf("http named join: status %d: %s", status, raw)
	}
	if err := json.Unmarshal(raw, &hj); err != nil {
		t.Fatal(err)
	}
	_, wcount, err = c.JoinCount(ctx, "cells", client.JoinSpec{Probe: "probe"})
	if err != nil || wcount != hj.Count {
		t.Fatalf("wire named join count: %d, %v (http %d)", wcount, err, hj.Count)
	}

	// Unknown and still-building datasets, through every opcode: one
	// resolve answers both transports, so code and message agree.
	if status, raw := ts.postJSON("/v1/datasets/slow", loadRequest{Boxes: [][]float64{{0, 0, 0, 1, 1, 1}}}); status != http.StatusAccepted {
		t.Fatalf("load slow: %d %s", status, raw)
	}
	box, pt := touch.Box{Max: touch.Point{9, 9, 9}}, touch.Point{1, 2, 3}
	boxRow, ptRow := []float64{0, 0, 0, 9, 9, 9}, []float64{1, 2, 3}
	inline := client.JoinSpec{Boxes: []touch.Box{box}}
	for _, tc := range []struct {
		dataset string
		status  int
		code    string
	}{
		{"ghost", http.StatusNotFound, api.CodeUnknownDataset},
		{"slow", http.StatusServiceUnavailable, api.CodeBuilding},
	} {
		rows := []struct {
			op   string
			wire func() error
			path string
			body any
		}{
			{"range", func() error { _, _, err := c.Range(ctx, tc.dataset, box); return err },
				"/query", api.QueryRequest{Type: "range", Box: boxRow}},
			{"point", func() error { _, _, err := c.Point(ctx, tc.dataset, pt); return err },
				"/query", api.QueryRequest{Type: "point", Point: ptRow}},
			{"knn", func() error { _, _, err := c.KNN(ctx, tc.dataset, pt, 3); return err },
				"/query", api.QueryRequest{Type: "knn", Point: ptRow, K: 3}},
			{"join", func() error { _, _, _, err := c.Join(ctx, tc.dataset, inline); return err },
				"/join", api.JoinRequest{Boxes: [][]float64{boxRow}}},
			{"joincount", func() error { _, _, err := c.JoinCount(ctx, tc.dataset, inline); return err },
				"/join", api.JoinRequest{Boxes: [][]float64{boxRow}, CountOnly: true}},
			{"update", func() error {
				_, err := c.Update(ctx, tc.dataset, client.UpdateSpec{Insert: []touch.Box{box}})
				return err
			}, "", api.UpdateRequest{Insert: [][]float64{boxRow}}},
		}
		for _, row := range rows {
			method := http.MethodPost
			if row.op == "update" {
				method = http.MethodPatch
			}
			status, raw := ts.do(method, "/v1/datasets/"+tc.dataset+row.path, "application/json", row.body)
			var eb api.ErrorBody
			if err := json.Unmarshal(raw, &eb); err != nil || status != tc.status || eb.Error.Code != tc.code {
				t.Fatalf("http %s on %s: status %d body %s, want %d %s", row.op, tc.dataset, status, raw, tc.status, tc.code)
			}
			var se *client.ServerError
			if err := row.wire(); !errors.As(err, &se) || se.Code != tc.code || se.Message != eb.Error.Message {
				t.Fatalf("wire %s on %s: %v, want %s %q", row.op, tc.dataset, err, tc.code, eb.Error.Message)
			}
		}
		// The probe side of a join resolves through the same function.
		status, raw := ts.postJSON("/v1/datasets/cells/join", api.JoinRequest{Probe: tc.dataset, CountOnly: true})
		_, _, err := c.JoinCount(ctx, "cells", client.JoinSpec{Probe: tc.dataset})
		var se *client.ServerError
		if status != tc.status || errCode(t, raw) != tc.code || !errors.As(err, &se) || se.Code != tc.code {
			t.Fatalf("probe %s: http %d %s, wire %v, want %s", tc.dataset, status, raw, err, tc.code)
		}
	}
}

// TestWirePipelinedBatch sends a deep mixed batch in one flush and
// harvests the futures out of order; every answer must match its unary
// twin.
func TestWirePipelinedBatch(t *testing.T) {
	ts := newTestServer(t, Config{})
	ts.srv.Load("cells", touch.GenerateUniform(500, 3), touch.TOUCHConfig{})
	c := ts.dialWire(ts.startWire())
	ctx := context.Background()

	boxes, points, ks := testutil.QueryWorkload(11, 64)
	b := c.Batch()
	var rfut []client.IDsFuture
	var kfut []client.NeighborsFuture
	for i := range boxes {
		rfut = append(rfut, b.Range("cells", boxes[i]))
		kfut = append(kfut, b.KNN("cells", points[i], ks[i]))
	}
	if b.Len() != 2*len(boxes) {
		t.Fatalf("batch len %d", b.Len())
	}
	if err := b.Send(); err != nil {
		t.Fatal(err)
	}
	// Harvest in reverse: tag matching, not arrival order, resolves them.
	for i := len(boxes) - 1; i >= 0; i-- {
		_, nbrs, err := kfut[i].Get(ctx)
		if err != nil {
			t.Fatalf("knn %d: %v", i, err)
		}
		_, want, err := c.KNN(ctx, "cells", points[i], ks[i])
		if err != nil {
			t.Fatal(err)
		}
		if len(nbrs) != len(want) {
			t.Fatalf("knn %d: %d vs %d neighbors", i, len(nbrs), len(want))
		}
		_, ids, err := rfut[i].Get(ctx)
		if err != nil {
			t.Fatalf("range %d: %v", i, err)
		}
		_, wids, err := c.Range(ctx, "cells", boxes[i])
		if err != nil {
			t.Fatal(err)
		}
		if len(ids) != len(wids) {
			t.Fatalf("range %d: %d vs %d ids", i, len(ids), len(wids))
		}
		for j := range ids {
			if ids[j] != wids[j] {
				t.Fatalf("range %d id %d: %d vs %d", i, j, ids[j], wids[j])
			}
		}
	}
}

// TestWireErrorFrames covers the request-level error paths: unknown
// dataset, bad k, draining — all as structured ServerErrors on a
// connection that stays usable.
func TestWireErrorFrames(t *testing.T) {
	ts := newTestServer(t, Config{})
	ts.srv.Load("cells", touch.GenerateUniform(50, 1), touch.TOUCHConfig{})
	c := ts.dialWire(ts.startWire())
	ctx := context.Background()

	_, _, err := c.Range(ctx, "nope", touch.Box{Max: touch.Point{1, 1, 1}})
	var se *client.ServerError
	if !errors.As(err, &se) || se.Code != api.CodeUnknownDataset {
		t.Fatalf("unknown dataset: %v", err)
	}
	_, _, err = c.KNN(ctx, "cells", touch.Point{1, 2, 3}, -5)
	if !errors.As(err, &se) || se.Code != api.CodeInvalidK {
		t.Fatalf("bad k: %v", err)
	}
	// The connection survived both error frames.
	if _, _, err := c.Range(ctx, "cells", touch.Box{Max: touch.Point{500, 500, 500}}); err != nil {
		t.Fatalf("after errors: %v", err)
	}

	ts.srv.BeginShutdown()
	_, _, err = c.Range(ctx, "cells", touch.Box{Max: touch.Point{1, 1, 1}})
	if !errors.As(err, &se) || se.Code != api.CodeDraining {
		t.Fatalf("draining: %v", err)
	}
}

// TestWireCancelInFlight cancels a join mid-execution via its context:
// the cancel frame aborts the engine, the admission slot frees, and the
// connection keeps serving.
func TestWireCancelInFlight(t *testing.T) {
	ts := newTestServer(t, Config{MaxInFlight: 1})
	ts.srv.Load("cells", touch.GenerateUniform(100, 5), touch.TOUCHConfig{})
	entered := make(chan struct{}, 1)
	var block atomic.Bool
	ts.srv.testHookWorker = func(ctx context.Context) {
		if block.Load() {
			entered <- struct{}{}
			<-ctx.Done()
		}
	}
	c := ts.dialWire(ts.startWire())

	block.Store(true)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, _, err := c.Join(ctx, "cells", client.JoinSpec{Boxes: []touch.Box{{Max: touch.Point{1000, 1000, 1000}}}})
		done <- err
	}()
	<-entered
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled join: %v", err)
	}
	block.Store(false)

	// The slot freed (MaxInFlight is 1) and the connection still works.
	if _, _, err := c.Range(context.Background(), "cells", touch.Box{Max: touch.Point{500, 500, 500}}); err != nil {
		t.Fatalf("after cancel: %v", err)
	}
	if got := ts.srv.met.rejectCanceled.Load(); got == 0 {
		t.Fatal("cancel not recorded in reject metrics")
	}
}

// TestWireCancelQueued cancels a request still waiting in the pipeline
// behind a blocked join: it must be answered client_closed without ever
// executing, and the requests behind it still run. Raw frames make the
// ordering deterministic — the reader processes the cancel after
// enqueuing the ranges but while the worker is still parked in the
// join, so the cancel provably hits a queued request.
func TestWireCancelQueued(t *testing.T) {
	ts := newTestServer(t, Config{})
	ts.srv.Load("cells", touch.GenerateUniform(100, 5), touch.TOUCHConfig{})
	entered := make(chan struct{}, 1)
	var block atomic.Bool
	ts.srv.testHookWorker = func(ctx context.Context) {
		if block.Load() {
			entered <- struct{}{}
			<-ctx.Done()
		}
	}
	addr := ts.startWire()
	nc, r := rawWireConn(t, addr)
	w := wire.NewWriter(nc)

	block.Store(true)
	w.WriteFrame(wire.OpJoin, 1, wire.AppendJoinReq(nil, "cells", 0, 0, true, "", []touch.Box{{Max: touch.Point{1, 1, 1}}}))
	w.Flush()
	<-entered
	block.Store(false)

	// Two ranges pile up behind the parked join; cancel the first of
	// them, then the join itself.
	box := touch.Box{Max: touch.Point{500, 500, 500}}
	w.WriteFrame(wire.OpRange, 2, wire.AppendRangeReq(nil, "cells", box))
	w.WriteFrame(wire.OpRange, 3, wire.AppendRangeReq(nil, "cells", box))
	w.WriteFrame(wire.OpCancel, 2, nil)
	w.WriteFrame(wire.OpCancel, 1, nil)
	w.Flush()

	expect := []struct {
		tag  uint32
		op   byte
		code string
	}{
		{1, wire.OpError, api.CodeClientClosed},
		{2, wire.OpError, api.CodeClientClosed},
		{3, wire.OpIDs, ""},
	}
	for _, want := range expect {
		op, tag, payload, err := r.ReadFrame()
		if err != nil {
			t.Fatalf("tag %d: %v", want.tag, err)
		}
		if op != want.op || tag != want.tag {
			t.Fatalf("got op=%#02x tag=%d, want op=%#02x tag=%d", op, tag, want.op, want.tag)
		}
		if want.code != "" {
			if code, _, _ := wire.DecodeErrorResp(payload); code != want.code {
				t.Fatalf("tag %d: code %q, want %q", tag, code, want.code)
			}
		}
	}
	if got := ts.srv.met.rejectCanceled.Load(); got < 2 {
		t.Fatalf("rejectCanceled = %d, want >= 2", got)
	}
}

// TestWireLoneReadWaitingForASlotSeesHangUp: the reader executes a lone
// read itself only when it can take an admission slot without waiting.
// With every slot held, the read queues for the worker and the reader
// goes back to the socket — so when the client hangs up, the wait for a
// slot ends at once instead of lasting as long as whoever holds it.
func TestWireLoneReadWaitingForASlotSeesHangUp(t *testing.T) {
	ts := newTestServer(t, Config{MaxInFlight: 1})
	ts.srv.Load("cells", touch.GenerateUniform(100, 5), touch.TOUCHConfig{})
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	letGo := sync.OnceFunc(func() { close(release) })
	defer letGo() // on a failure too, or the parked join outlives the test
	ts.srv.testHookWorker = func(ctx context.Context) {
		entered <- struct{}{}
		<-release
	}
	addr := ts.startWire()
	holder := ts.dialWire(addr)
	joined := make(chan error, 1)
	go func() {
		_, _, err := holder.JoinCount(context.Background(), "cells", client.JoinSpec{Boxes: []touch.Box{{Max: touch.Point{1, 1, 1}}}})
		joined <- err
	}()
	<-entered // the one slot is taken and stays taken

	nc, _ := rawWireConn(t, addr)
	w := wire.NewWriter(nc)
	w.WriteFrame(wire.OpRange, 1, wire.AppendRangeReq(nil, "cells", touch.Box{Max: touch.Point{500, 500, 500}}))
	w.Flush()
	for ts.srv.met.requests[classWireQuery].Load() == 0 { // the read has reached admission
		time.Sleep(time.Millisecond)
	}
	nc.Close()
	for deadline := time.Now().Add(5 * time.Second); ts.srv.met.rejectCanceled.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the read still waits for a slot after its client hung up: nobody was reading the connection")
		}
	}
	letGo()
	if err := <-joined; err != nil {
		t.Fatalf("the join holding the slot: %v", err)
	}
}

// TestWireTimeout parks a join past its budget: the server answers a
// structured timeout error and records the reject.
func TestWireTimeout(t *testing.T) {
	logged := captureHandler(make(chan map[string]string, 16)) // a handful of records, never awaited by the server
	ts := newTestServer(t, Config{RequestTimeout: 30 * time.Millisecond, Logger: slog.New(logged)})
	ts.srv.Load("cells", touch.GenerateUniform(50, 5), touch.TOUCHConfig{})
	ts.srv.testHookWorker = func(ctx context.Context) { <-ctx.Done() }
	c := ts.dialWire(ts.startWire())

	_, _, _, err := c.Join(context.Background(), "cells", client.JoinSpec{Boxes: []touch.Box{{Max: touch.Point{1, 1, 1}}}})
	var se *client.ServerError
	if !errors.As(err, &se) || se.Code != api.CodeTimeout {
		t.Fatalf("timeout join: %v", err)
	}
	if ts.srv.met.rejectTimeout.Load() == 0 {
		t.Fatal("timeout not recorded in reject metrics")
	}

	// The completion hook is shared with HTTP: a wire request that ends
	// >= 500 is logged under a request ID, exactly like an HTTP one. The
	// hook runs after the error frame is written, so wait for the record.
	timeout := time.After(5 * time.Second)
	for {
		select {
		case rec := <-logged:
			if rec["msg"] != "request failed" {
				continue
			}
			if rec["class"] != "wire_join" || rec["status"] != "503" || rec["id"] == "" || rec["level"] != "ERROR" {
				t.Fatalf("request failed record = %v", rec)
			}
			return
		case <-timeout:
			t.Fatal("no \"request failed\" record for the timed-out wire join")
		}
	}
}

// captureHandler is a slog.Handler that hands every record — message,
// level and attributes rendered as strings — to the test; records
// beyond the channel's capacity are dropped.
type captureHandler chan map[string]string

func (h captureHandler) Enabled(context.Context, slog.Level) bool { return true }
func (h captureHandler) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h captureHandler) WithGroup(string) slog.Handler            { return h }

func (h captureHandler) Handle(_ context.Context, r slog.Record) error {
	rec := map[string]string{"msg": r.Message, "level": r.Level.String()}
	r.Attrs(func(a slog.Attr) bool {
		rec[a.Key] = a.Value.String()
		return true
	})
	select {
	case h <- rec:
	default:
	}
	return nil
}

// TestWireShutdownDrain proves ShutdownWire terminates in-flight
// pipelined requests, frees their admission slots and refuses new
// connections.
func TestWireShutdownDrain(t *testing.T) {
	ts := newTestServer(t, Config{MaxInFlight: 2})
	ts.srv.Load("cells", touch.GenerateUniform(100, 5), touch.TOUCHConfig{})
	entered := make(chan struct{}, 4)
	var block atomic.Bool
	ts.srv.testHookWorker = func(ctx context.Context) {
		if block.Load() {
			entered <- struct{}{}
			<-ctx.Done()
		}
	}
	addr := ts.startWire()
	c := ts.dialWire(addr)

	block.Store(true)
	done := make(chan error, 1)
	go func() {
		_, _, _, err := c.Join(context.Background(), "cells", client.JoinSpec{Boxes: []touch.Box{{Max: touch.Point{1, 1, 1}}}})
		done <- err
	}()
	<-entered

	// A short drain budget forces the in-flight join to be aborted by
	// the force-close.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := ts.srv.ShutdownWire(ctx)
	if err != nil && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("shutdown: %v", err)
	}
	if since := time.Since(start); since > 3*time.Second {
		t.Fatalf("shutdown took %v", since)
	}
	if err := <-done; err == nil {
		t.Fatal("in-flight join survived shutdown")
	}
	// Every admission slot came back.
	select {
	case ts.srv.slots <- struct{}{}:
		<-ts.srv.slots
	default:
		t.Fatal("admission slot leaked through shutdown")
	}
	// New connections are refused.
	dctx, dcancel := context.WithTimeout(context.Background(), time.Second)
	defer dcancel()
	if cc, err := client.Dial(dctx, addr); err == nil {
		cc.Close()
		t.Fatal("dial succeeded after shutdown")
	}
}

// TestWireGracefulDrain: with no requests in flight, ShutdownWire
// returns promptly even while idle pipelined connections stay open.
func TestWireGracefulDrain(t *testing.T) {
	ts := newTestServer(t, Config{})
	ts.srv.Load("cells", touch.GenerateUniform(50, 5), touch.TOUCHConfig{})
	addr := ts.startWire()
	c := ts.dialWire(addr)
	if _, _, err := c.Range(context.Background(), "cells", touch.Box{Max: touch.Point{500, 500, 500}}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := ts.srv.ShutdownWire(ctx); err != nil {
		t.Fatalf("graceful shutdown with idle connection: %v", err)
	}
}

// rawWireConn dials and handshakes without the client package, for
// sending hostile bytes.
func rawWireConn(t *testing.T, addr string) (net.Conn, *wire.Reader) {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	nc.SetDeadline(time.Now().Add(5 * time.Second))
	if err := wire.WriteHello(nc, ""); err != nil {
		t.Fatal(err)
	}
	r := wire.NewReader(nc, 0)
	if v, info, err := r.ReadHello(); err != nil || v != wire.Version {
		t.Fatalf("handshake: v=%d err=%v", v, err)
	} else if info == "" {
		t.Fatal("server hello carries no build info")
	}
	return nc, r
}

// TestWireMalformedFrames drives framing-level attacks at a live
// server: each must earn a final error frame and a closed connection —
// no panic, no hang, no unbounded allocation.
func TestWireMalformedFrames(t *testing.T) {
	ts := newTestServer(t, Config{})
	ts.srv.Load("cells", touch.GenerateUniform(50, 1), touch.TOUCHConfig{})
	addr := ts.startWire()

	expectErrorThenClose := func(t *testing.T, nc net.Conn, r *wire.Reader, wantCode string) {
		t.Helper()
		op, _, payload, err := r.ReadFrame()
		if err != nil {
			t.Fatalf("want error frame before close, got %v", err)
		}
		if op != wire.OpError {
			t.Fatalf("opcode %#02x, want OpError", op)
		}
		code, _, err := wire.DecodeErrorResp(payload)
		if err != nil || code != wantCode {
			t.Fatalf("error frame code %q err %v, want %q", code, err, wantCode)
		}
		if _, _, _, err := r.ReadFrame(); err == nil {
			t.Fatal("connection stayed open after protocol error")
		}
	}

	t.Run("oversized-length", func(t *testing.T) {
		nc, r := rawWireConn(t, addr)
		nc.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
		expectErrorThenClose(t, nc, r, api.CodeBadRequest)
	})
	t.Run("undersized-length", func(t *testing.T) {
		nc, r := rawWireConn(t, addr)
		nc.Write([]byte{0x01, 0x00, 0x00, 0x00})
		expectErrorThenClose(t, nc, r, api.CodeBadRequest)
	})
	t.Run("unknown-opcode", func(t *testing.T) {
		nc, r := rawWireConn(t, addr)
		w := wire.NewWriter(nc)
		w.WriteFrame(0x7F, 9, nil)
		w.Flush()
		expectErrorThenClose(t, nc, r, api.CodeBadRequest)
	})
	t.Run("torn-frame", func(t *testing.T) {
		nc, r := rawWireConn(t, addr)
		// Header promises 100 payload bytes; send 3 and hang up.
		nc.Write([]byte{105, 0, 0, 0, byte(wire.OpRange), 1, 0, 0, 0, 'a', 'b', 'c'})
		nc.(*net.TCPConn).CloseWrite()
		if _, _, _, err := r.ReadFrame(); err == nil {
			t.Fatal("torn frame answered")
		}
	})
	t.Run("malformed-payload-keeps-conn", func(t *testing.T) {
		// A well-framed but undecodable payload is a request error, not
		// a connection error: error frame, connection stays usable.
		nc, r := rawWireConn(t, addr)
		w := wire.NewWriter(nc)
		w.WriteFrame(wire.OpRange, 5, []byte{0xFF})
		w.Flush()
		op, tag, payload, err := r.ReadFrame()
		if err != nil || op != wire.OpError || tag != 5 {
			t.Fatalf("op=%#02x tag=%d err=%v", op, tag, err)
		}
		if code, _, _ := wire.DecodeErrorResp(payload); code != api.CodeBadRequest {
			t.Fatalf("code %q", code)
		}
		w.WriteFrame(wire.OpRange, 6, wire.AppendRangeReq(nil, "cells", touch.Box{Max: touch.Point{1, 1, 1}}))
		w.Flush()
		if op, tag, _, err = r.ReadFrame(); err != nil || op != wire.OpIDs || tag != 6 {
			t.Fatalf("follow-up request: op=%#02x tag=%d err=%v", op, tag, err)
		}
	})
}

// TestWireMetrics checks the binary path shows up under its own classes
// plus the connection gauge and pipeline-depth histogram.
func TestWireMetrics(t *testing.T) {
	ts := newTestServer(t, Config{})
	ts.srv.Load("cells", touch.GenerateUniform(50, 1), touch.TOUCHConfig{})
	c := ts.dialWire(ts.startWire())
	ctx := context.Background()
	if _, _, err := c.Range(ctx, "cells", touch.Box{Max: touch.Point{500, 500, 500}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.JoinCount(ctx, "cells", client.JoinSpec{Boxes: []touch.Box{{Max: touch.Point{10, 10, 10}}}}); err != nil {
		t.Fatal(err)
	}
	status, body := ts.do(http.MethodGet, "/metrics", "", nil)
	if status != http.StatusOK {
		t.Fatalf("metrics: %d", status)
	}
	for _, want := range []string{
		`touchserved_requests_total{class="wire_query"} 1`,
		`touchserved_requests_total{class="wire_join"} 1`,
		`touchserved_responses_total{class="wire_query",code="200"} 1`,
		"touchserved_wire_connections 1",
		"touchserved_wire_pipeline_depth_count 2",
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
}

// TestWireHelloMismatch: a client speaking a future protocol version
// learns the server's version from the reply hello and the connection
// closes.
func TestWireHelloMismatch(t *testing.T) {
	ts := newTestServer(t, Config{})
	addr := ts.startWire()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(5 * time.Second))
	hello := append([]byte(wire.Magic), 0xFE, 0, 0, 0) // version 254
	hello = append(hello, 0, 0)                        // empty info
	if _, err := nc.Write(hello); err != nil {
		t.Fatal(err)
	}
	v, _, err := wire.ReadHello(nc)
	if err != nil || v != wire.Version {
		t.Fatalf("reply hello: v=%d err=%v", v, err)
	}
	if _, err := io.ReadAll(nc); err != nil {
		t.Fatalf("expected clean close, got %v", err)
	}
}
