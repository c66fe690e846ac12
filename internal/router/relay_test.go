package router_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"touch"
	"touch/client"
	"touch/internal/api"
	"touch/internal/promtext"
	"touch/internal/router"
	"touch/internal/server"
	"touch/internal/wire"
)

// serveWire opens the router's wire front and dials one client at it.
func serveWire(t *testing.T, ctx context.Context, rt *router.Router) *client.Conn {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go rt.ServeWire(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		rt.ShutdownWire(ctx)
	})
	return dial(t, ctx, ln.Addr().String())
}

func dial(t *testing.T, ctx context.Context, addr string) *client.Conn {
	t.Helper()
	c, err := client.Dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// wireIDs, wireNeighbors, wireJoin and wireCount send one request on c
// and decode its answer with the matching Reply method.
func wireIDs(ctx context.Context, c *client.Conn, req client.Request) (int64, []touch.ID, error) {
	r, err := c.Do(ctx, req)
	if err != nil {
		return 0, nil, err
	}
	return r.IDs()
}

func wireNeighbors(ctx context.Context, c *client.Conn, req client.Request) (int64, []touch.Neighbor, error) {
	r, err := c.Do(ctx, req)
	if err != nil {
		return 0, nil, err
	}
	return r.Neighbors()
}

func wireJoin(ctx context.Context, c *client.Conn, req client.Request) (int64, []touch.Pair, int64, error) {
	r, err := c.Do(ctx, req)
	if err != nil {
		return 0, nil, 0, err
	}
	return r.Join()
}

func wireCount(ctx context.Context, c *client.Conn, req client.Request) (int64, int64, error) {
	r, err := c.Do(ctx, req)
	if err != nil {
		return 0, 0, err
	}
	return r.Count()
}

// TestRoutedFramesEqualDirect: the wire front is a frame relay. Two
// identically loaded backends, one asked directly and one through a
// router, answer every request with the same frames byte for byte —
// terminal opcode, terminal payload and every stream frame. OpTrace
// frames describe two executions, so they are compared by presence, a
// non-empty request ID and the engine counters.
func TestRoutedFramesEqualDirect(t *testing.T) {
	datasets := map[string]touch.Dataset{"d": touch.GenerateUniform(600, 13), "p": touch.GenerateUniform(80, 14)}
	b0 := startBackend(t, "r0", datasets)
	b1 := startBackend(t, "r1", datasets)
	rt := startRouter(t, 1, b1.addr)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	direct := dial(t, ctx, b0.addr)
	routed := serveWire(t, ctx, rt)

	box := touch.Box{Max: touch.Point{600, 600, 600}}
	pt := touch.Point{500, 500, 500}
	probe := []touch.Box{{Max: touch.Point{400, 400, 400}}, {Min: touch.Point{500, 500, 500}, Max: touch.Point{950, 950, 950}}}
	insert := []touch.Box{{Min: touch.Point{1, 1, 1}, Max: touch.Point{2, 2, 2}}, {Min: touch.Point{3, 3, 3}, Max: touch.Point{4, 4, 4}}}
	rangeReq := wire.AppendRangeReq(nil, "d", box)
	cases := []struct {
		name    string
		op      byte
		payload []byte
	}{
		{"range", wire.OpRange, rangeReq},
		{"point", wire.OpPoint, wire.AppendPointReq(nil, "d", pt)},
		{"knn", wire.OpKNN, wire.AppendKNNReq(nil, "d", pt, 9)},
		{"knn k=0", wire.OpKNN, wire.AppendKNNReq(nil, "d", pt, 0)},
		{"join", wire.OpJoin, wire.AppendJoinReq(nil, "d", 0, 0, 0, "", probe)},
		{"count-only join with eps", wire.OpJoin, wire.AppendJoinReq(nil, "d", 7.5, 0, wire.FlagCountOnly, "", probe)},
		{"named-probe join", wire.OpJoin, wire.AppendJoinReq(nil, "d", 2, 0, 0, "p", nil)},
		{"unknown dataset", wire.OpRange, wire.AppendRangeReq(nil, "ghost", box)},
		{"truncated after the name", wire.OpRange, rangeReq[:len(rangeReq)-9]},
		{"truncated inside the name", wire.OpKNN, []byte{9, 0, 'd'}},
		{"update", wire.OpUpdate, wire.AppendUpdateReq(nil, "d", []touch.ID{4, 5}, insert)},
		{"range after update", wire.OpRange, rangeReq},
		{"traced range", wire.OpRange, wire.AppendQueryFlags(wire.AppendRangeReq(nil, "d", box), wire.QueryFlagTrace)},
		{"traced point", wire.OpPoint, wire.AppendQueryFlags(wire.AppendPointReq(nil, "d", pt), wire.QueryFlagTrace)},
		{"traced knn", wire.OpKNN, wire.AppendQueryFlags(wire.AppendKNNReq(nil, "d", pt, 9), wire.QueryFlagTrace)},
		{"traced join", wire.OpJoin, wire.AppendJoinReq(nil, "d", 0, 0, wire.FlagTrace, "", probe)},
		{"traced unknown dataset", wire.OpRange, wire.AppendQueryFlags(wire.AppendRangeReq(nil, "ghost", box), wire.QueryFlagTrace)},
	}
	for _, tc := range cases {
		want, err := direct.Do(ctx, client.Raw(tc.op, tc.payload))
		if err != nil {
			t.Fatalf("%s: direct: %v", tc.name, err)
		}
		got, err := routed.Do(ctx, client.Raw(tc.op, tc.payload))
		if err != nil {
			t.Fatalf("%s: routed: %v", tc.name, err)
		}
		if got.Op != want.Op || !bytes.Equal(got.Payload, want.Payload) {
			t.Errorf("%s: terminal frame\nrouted %#02x % x\ndirect %#02x % x", tc.name, got.Op, got.Payload, want.Op, want.Payload)
		}
		if len(got.Stream) != len(want.Stream) {
			t.Errorf("%s: routed stream has %d frames, direct %d", tc.name, len(got.Stream), len(want.Stream))
			continue
		}
		if strings.HasPrefix(tc.name, "traced") && (len(want.Stream) == 0 || want.Stream[len(want.Stream)-1].Op != wire.OpTrace) {
			t.Errorf("%s: direct answer carries no OpTrace trailer", tc.name)
		}
		for i, w := range want.Stream {
			g := got.Stream[i]
			switch {
			case g.Op != w.Op:
				t.Errorf("%s: stream frame %d: routed opcode %#02x, direct %#02x", tc.name, i, g.Op, w.Op)
			case w.Op == wire.OpTrace:
				gt, gerr := wire.DecodeTrace(g.Payload)
				wt, werr := wire.DecodeTrace(w.Payload)
				if gerr != nil || werr != nil || gt.RequestID == "" {
					t.Errorf("%s: trace frames: routed %+v (%v), direct %+v (%v)", tc.name, gt, gerr, wt, werr)
				}
				if gt.Comparisons != wt.Comparisons || gt.NodeTests != wt.NodeTests || gt.Filtered != wt.Filtered ||
					gt.Results != wt.Results || gt.Replicas != wt.Replicas {
					t.Errorf("%s: trace counters: routed %+v, direct %+v", tc.name, gt, wt)
				}
			case !bytes.Equal(g.Payload, w.Payload):
				t.Errorf("%s: stream frame %d (%#02x) differs", tc.name, i, w.Op)
			}
		}
	}

	// Reply.Trace decodes the same relayed frames: every traced request
	// through the router returns the answering backend's trace.
	spec := client.JoinSpec{Boxes: probe}
	for name, req := range map[string]client.Request{
		"range": client.Range("d", box), "point": client.Point("d", pt), "knn": client.KNN("d", pt, 3),
		"join": client.Join("d", spec), "joincount": client.CountJoin("d", spec),
	} {
		var tr *client.Trace
		if r, err := routed.Do(ctx, req.Traced()); err == nil {
			tr = r.Trace()
		}
		if tr == nil || tr.RequestID == "" {
			t.Errorf("routed %s: trace %+v, want the backend's request ID", name, tr)
		}
	}
}

// TestOverCapRequestFailsAlone: a request the router admits (its own
// caps are 64 MiB) but whose wire frame exceeds the owners' frame cap is
// answered body_too_large through both fronts — it does not cost the
// router a healthy backend, nor a direct client its connection.
func TestOverCapRequestFailsAlone(t *testing.T) {
	ds := touch.GenerateUniform(100, 6)
	var addrs []string
	for _, id := range []string{"r0", "r1"} {
		srv := server.New(server.Config{NodeID: id, MaxBodyBytes: 64 << 10})
		srv.Load("d", ds, touch.TOUCHConfig{})
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
		addrs = append(addrs, ln.Addr().String())
	}
	rt := startRouter(t, 2, addrs...)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	// 2,000 inline probe boxes encode to 96 KB: over the backends' 64 KiB.
	big := client.JoinSpec{Boxes: make([]touch.Box, 2000)}
	for i := range big.Boxes {
		big.Boxes[i] = touch.Box{Max: touch.Point{1, 1, 1}}
	}
	tooLarge := func(where string, err error) {
		t.Helper()
		var se *client.ServerError
		if !errors.As(err, &se) || se.Code != api.CodeBodyTooLarge {
			t.Fatalf("%s: over-cap join answered %v, want a %s ServerError", where, err, api.CodeBodyTooLarge)
		}
	}

	routed := serveWire(t, ctx, rt)
	_, _, err := wireCount(ctx, routed, client.CountJoin("d", big))
	tooLarge("wire front", err)

	body, _ := json.Marshal(api.JoinRequest{Boxes: make([][]float64, len(big.Boxes)), CountOnly: true})
	body = bytes.ReplaceAll(body, []byte("null"), []byte("[0,0,0,1,1,1]"))
	rec := postJSON(t, rt, "/v1/datasets/d/join", string(body))
	if rec.Code != http.StatusRequestEntityTooLarge || !strings.Contains(rec.Body.String(), `"code":"body_too_large"`) {
		t.Fatalf("HTTP front: over-cap join answered %d %s, want 413 body_too_large", rec.Code, rec.Body.Bytes())
	}

	direct := dial(t, ctx, addrs[0])
	_, _, err = wireCount(ctx, direct, client.CountJoin("d", big))
	tooLarge("direct", err)
	b := direct.Batch()
	over, fine := b.Add(client.CountJoin("d", big)), b.Add(client.Range("d", touch.Box{Max: touch.Point{500, 500, 500}}))
	if err := b.Send(); err != nil {
		t.Fatalf("batch with one over-cap request: %v", err)
	}
	_, err = over.Get(ctx)
	tooLarge("direct batch", err)
	r, err := fine.Get(ctx)
	if err == nil {
		_, _, err = r.IDs()
	}
	if err != nil || direct.Err() != nil {
		t.Fatalf("request batched beside the over-cap one: %v (connection: %v)", err, direct.Err())
	}

	// The request failed alone: reads still flow, nothing was ejected.
	if _, _, err := wireIDs(ctx, routed, client.Range("d", touch.Box{Max: touch.Point{500, 500, 500}})); err != nil {
		t.Fatalf("routed read after the over-cap request: %v", err)
	}
	var buf bytes.Buffer
	rt.RenderMetrics(&buf)
	m, err := promtext.Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n := m.Families["touchrouter_ejections_total"].Samples[0].Value; n != 0 {
		t.Fatalf("ejections_total = %g after an over-cap request, want 0", n)
	}
	for _, s := range m.Families["touchrouter_backend_healthy"].Samples {
		if s.Value != 1 {
			t.Fatalf("backend %q unhealthy after an over-cap request", s.Label("backend"))
		}
	}
}

// stalledBackend is a wire peer that shakes hands and then answers no
// request until it is canceled — the terminal frame a cancel is owed is
// all it ever sends. It reports every request frame's tag on reqs and
// every cancel frame's on cancels.
type stalledBackend struct {
	addr          string
	reqs, cancels chan uint32
}

func startStalledBackend(t *testing.T) *stalledBackend {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	b := &stalledBackend{addr: ln.Addr().String(), reqs: make(chan uint32, 64), cancels: make(chan uint32, 64)}
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer nc.Close()
				r := wire.NewReader(nc, 0)
				if _, _, err := r.ReadHello(); err != nil || wire.WriteHello(nc, "node/stalled") != nil {
					return
				}
				for {
					op, tag, _, err := r.ReadFrame()
					if err != nil {
						return
					}
					if op == wire.OpCancel {
						w := wire.NewWriter(nc)
						w.WriteFrame(wire.OpError, tag, wire.AppendErrorResp(nil, api.CodeClientClosed, "canceled"))
						w.Flush()
						b.cancels <- tag
					} else {
						b.reqs <- tag
					}
				}
			}()
		}
	}()
	return b
}

// TestLoneReadAbortsOnCancelAndHangUp: a lone read forwarded to a backend
// that never answers is not the connection's business alone — its
// reader is back at the socket while the forward waits, so the request's
// cancel frame ends the forward at once (the client gets its terminal
// frame, the backend the cancel), and so does the client hanging up.
// Neither waits for the request timeout.
func TestLoneReadAbortsOnCancelAndHangUp(t *testing.T) {
	b := startStalledBackend(t)
	rt, err := router.New(router.Config{Backends: []string{b.addr}, Replication: 1, RequestTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	t.Cleanup(func() { rt.Close() })
	c := serveWire(t, context.Background(), rt)
	expect := func(what string, ch <-chan uint32) {
		t.Helper()
		select {
		case <-ch:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: nothing after 10 s, the forward is still waiting on the backend", what)
		}
	}
	box := touch.Box{Max: touch.Point{1, 1, 1}}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.Do(ctx, client.Range("d", box))
		done <- err
	}()
	expect("the backend receiving the forwarded read", b.reqs)
	cancel()
	expect("the backend receiving the forward's cancel", b.cancels)
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("the canceled read returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the canceled read got no terminal frame from the router")
	}

	go c.Do(context.Background(), client.Range("d", box))
	expect("the backend receiving the second forwarded read", b.reqs)
	c.Close()
	expect("the backend receiving a cancel after the client hung up", b.cancels)
}

// metric reads one sample of the router's exposition: the family's
// sample whose label key has value val, or its only sample when key is
// empty.
func metric(t *testing.T, rt *router.Router, family, key, val string) float64 {
	t.Helper()
	var buf bytes.Buffer
	rt.RenderMetrics(&buf)
	m, err := promtext.Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if fam := m.Families[family]; fam != nil {
		for _, s := range fam.Samples {
			if key == "" || s.Label(key) == val {
				return s.Value
			}
		}
	}
	t.Fatalf("no %s{%s=%q} sample", family, key, val)
	return 0
}

// TestBurstEndedByCallerEjectsNoOne: a pipelined burst the router holds
// at a backend that never answers ends when its caller does — the
// client hanging up, or the router's request budget running out, when
// each read answers timeout. Either way the owner did nothing wrong: it
// is not ejected, and no request frame is sent to it twice.
func TestBurstEndedByCallerEjectsNoOne(t *testing.T) {
	const burst = 6
	for _, row := range []struct {
		name    string
		budget  time.Duration
		hangsUp bool
	}{
		{"client hangs up", time.Minute, true},
		{"router budget runs out", 200 * time.Millisecond, false},
	} {
		t.Run(row.name, func(t *testing.T) {
			b := startStalledBackend(t)
			rt, err := router.New(router.Config{Backends: []string{b.addr}, Replication: 1,
				HealthInterval: time.Hour, RequestTimeout: row.budget})
			if err != nil {
				t.Fatal(err)
			}
			rt.Start()
			t.Cleanup(func() { rt.Close() })
			c := serveWire(t, context.Background(), rt)

			batch := c.Batch()
			futs := make([]client.ReplyFuture, burst)
			for i := range futs {
				futs[i] = batch.Add(client.Range("d", touch.Box{Max: touch.Point{float64(i), 1, 1}}))
			}
			if err := batch.Send(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < burst; i++ {
				select {
				case <-b.reqs:
				case <-time.After(10 * time.Second):
					t.Fatalf("the backend received %d of the %d forwarded reads", i, burst)
				}
			}
			if !row.hangsUp {
				for i, f := range futs {
					var se *client.ServerError
					r, err := f.Get(context.Background())
					if err == nil {
						err = r.Err()
					}
					if !errors.As(err, &se) || se.Code != api.CodeTimeout {
						t.Fatalf("read %d answered %v, want a %s ServerError", i, err, api.CodeTimeout)
					}
				}
			}
			c.Close()
			// The connection gauge drops once every forward on it is over.
			for deadline := time.Now().Add(10 * time.Second); metric(t, rt, "touchrouter_wire_connections", "", "") != 0; {
				if time.Now().After(deadline) {
					t.Fatal("the router's forwards never ended")
				}
				time.Sleep(5 * time.Millisecond)
			}
			if n := metric(t, rt, "touchrouter_ejections_total", "", ""); n != 0 {
				t.Errorf("ejections_total = %g, want 0", n)
			}
			if h := metric(t, rt, "touchrouter_backend_healthy", "addr", b.addr); h != 1 {
				t.Errorf("backend_healthy = %g, want 1", h)
			}
			if n := len(b.reqs); n != 0 {
				t.Errorf("the backend received %d request frames again", n)
			}
		})
	}
}

// TestCatalogBudgetEjectsNoOne: a catalog scatter whose budget runs out
// at a backend that never answers lists that backend as failed and
// leaves it in the ring — the spent budget is the caller's.
func TestCatalogBudgetEjectsNoOne(t *testing.T) {
	b := startStalledBackend(t)
	rt, err := router.New(router.Config{Backends: []string{b.addr}, Replication: 1,
		HealthInterval: time.Hour, RequestTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	t.Cleanup(func() { rt.Close() })
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/datasets", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"partial":true`) {
		t.Fatalf("catalog past its budget: %d %s, want a partial listing", rec.Code, rec.Body.Bytes())
	}
	if n := metric(t, rt, "touchrouter_ejections_total", "", ""); n != 0 {
		t.Fatalf("ejections_total = %g, want 0", n)
	}
}
