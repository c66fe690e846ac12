package router_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
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
		{"join", wire.OpJoin, wire.AppendJoinReq(nil, "d", 0, 0, false, "", probe)},
		{"count-only join with eps", wire.OpJoin, wire.AppendJoinReq(nil, "d", 7.5, 0, true, "", probe)},
		{"named-probe join", wire.OpJoin, wire.AppendJoinReq(nil, "d", 2, 0, false, "p", nil)},
		{"unknown dataset", wire.OpRange, wire.AppendRangeReq(nil, "ghost", box)},
		{"truncated after the name", wire.OpRange, rangeReq[:len(rangeReq)-9]},
		{"truncated inside the name", wire.OpKNN, []byte{9, 0, 'd'}},
		{"update", wire.OpUpdate, wire.AppendUpdateReq(nil, "d", []touch.ID{4, 5}, insert)},
		{"range after update", wire.OpRange, rangeReq},
		{"traced range", wire.OpRange, wire.AppendRangeReqFlags(nil, "d", box, wire.QueryFlagTrace)},
		{"traced point", wire.OpPoint, wire.AppendPointReqFlags(nil, "d", pt, wire.QueryFlagTrace)},
		{"traced knn", wire.OpKNN, wire.AppendKNNReqFlags(nil, "d", pt, 9, wire.QueryFlagTrace)},
		{"traced join", wire.OpJoin, wire.AppendJoinReqFlags(nil, "d", 0, 0, wire.FlagTrace, "", probe)},
	}
	for _, tc := range cases {
		want, err := direct.Do(ctx, tc.op, tc.payload)
		if err != nil {
			t.Fatalf("%s: direct: %v", tc.name, err)
		}
		got, err := routed.Do(ctx, tc.op, tc.payload)
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
				gt, gerr := wire.DecodeTraceResp(g.Payload)
				wt, werr := wire.DecodeTraceResp(w.Payload)
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

	// The typed calls decode the same relayed frames: every *Traced method
	// through the router returns the answering backend's trace.
	spec := client.JoinSpec{Boxes: probe}
	traces := map[string]*client.Trace{}
	_, _, traces["range"], _ = routed.RangeTraced(ctx, "d", box)
	_, _, traces["point"], _ = routed.PointTraced(ctx, "d", pt)
	_, _, traces["knn"], _ = routed.KNNTraced(ctx, "d", pt, 3)
	_, _, _, traces["join"], _ = routed.JoinTraced(ctx, "d", spec)
	_, _, traces["joincount"], _ = routed.JoinCountTraced(ctx, "d", spec)
	for name, tr := range traces {
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
	_, _, err := routed.JoinCount(ctx, "d", big)
	tooLarge("wire front", err)

	body, _ := json.Marshal(api.JoinRequest{Boxes: make([][]float64, len(big.Boxes)), CountOnly: true})
	body = bytes.ReplaceAll(body, []byte("null"), []byte("[0,0,0,1,1,1]"))
	rec := postJSON(t, rt, "/v1/datasets/d/join", string(body))
	if rec.Code != http.StatusRequestEntityTooLarge || !strings.Contains(rec.Body.String(), `"code":"body_too_large"`) {
		t.Fatalf("HTTP front: over-cap join answered %d %s, want 413 body_too_large", rec.Code, rec.Body.Bytes())
	}

	direct := dial(t, ctx, addrs[0])
	_, _, err = direct.JoinCount(ctx, "d", big)
	tooLarge("direct", err)
	b := direct.Batch()
	over, fine := b.JoinCount("d", big), b.Range("d", touch.Box{Max: touch.Point{500, 500, 500}})
	if err := b.Send(); err != nil {
		t.Fatalf("batch with one over-cap request: %v", err)
	}
	_, _, err = over.Get(ctx)
	tooLarge("direct batch", err)
	if _, _, err := fine.Get(ctx); err != nil || direct.Err() != nil {
		t.Fatalf("request batched beside the over-cap one: %v (connection: %v)", err, direct.Err())
	}

	// The request failed alone: reads still flow, nothing was ejected.
	if _, _, err := routed.Range(ctx, "d", touch.Box{Max: touch.Point{500, 500, 500}}); err != nil {
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
		_, _, err := c.Range(ctx, "d", box)
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

	go c.Range(context.Background(), "d", box)
	expect("the backend receiving the second forwarded read", b.reqs)
	c.Close()
	expect("the backend receiving a cancel after the client hung up", b.cancels)
}
