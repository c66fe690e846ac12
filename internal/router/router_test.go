package router_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"touch"
	"touch/client"
	"touch/internal/promtext"
	"touch/internal/router"
	"touch/internal/server"
)

// testBackend is one in-process touchserved replica.
type testBackend struct {
	srv  *server.Server
	addr string
}

// startBackend runs a wire-serving replica with the given node ID and
// datasets (every dataset loaded from the same generator seed, so
// replicas answer identically — the replica model the router assumes).
func startBackend(t *testing.T, nodeID string, datasets map[string]touch.Dataset) *testBackend {
	t.Helper()
	srv := server.New(server.Config{NodeID: nodeID})
	for name, ds := range datasets {
		srv.Load(name, ds, touch.TOUCHConfig{})
	}
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
	return &testBackend{srv: srv, addr: ln.Addr().String()}
}

// kill force-closes the backend's wire side immediately: listeners and
// live connections die as if the process got SIGKILLed.
func (b *testBackend) kill() {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b.srv.ShutdownWire(ctx)
}

func startRouter(t *testing.T, replication int, addrs ...string) *router.Router {
	t.Helper()
	rt, err := router.New(router.Config{
		Backends:       addrs,
		Replication:    replication,
		HealthInterval: 50 * time.Millisecond,
		ProbeTimeout:   time.Second,
		RequestTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	t.Cleanup(func() { rt.Close() })
	return rt
}

func postJSON(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestRoutedHTTPByteIdentity: for range, point and knn, the router's
// HTTP answer is byte-for-byte the answer the backend itself would have
// given — same struct shapes, same field order, same encoder settings.
func TestRoutedHTTPByteIdentity(t *testing.T) {
	ds := touch.GenerateUniform(500, 7)
	b0 := startBackend(t, "r0", map[string]touch.Dataset{"d": ds})
	b1 := startBackend(t, "r1", map[string]touch.Dataset{"d": ds})
	rt := startRouter(t, 2, b0.addr, b1.addr)

	bodies := []string{
		`{"type":"range","box":[0,0,0,400,400,400]}`,
		`{"type":"range","box":[990,990,990,999,999,999]}`, // likely empty
		`{"type":"point","point":[500,500,500]}`,
		`{"type":"knn","point":[10,20,30],"k":7}`,
	}
	for _, body := range bodies {
		direct := postJSON(t, b0.srv, "/v1/datasets/d/query", body)
		routed := postJSON(t, rt, "/v1/datasets/d/query", body)
		if direct.Code != http.StatusOK || routed.Code != http.StatusOK {
			t.Fatalf("query %s: direct %d, routed %d (%s)", body, direct.Code, routed.Code, routed.Body.Bytes())
		}
		if !bytes.Equal(direct.Body.Bytes(), routed.Body.Bytes()) {
			t.Fatalf("query %s:\ndirect: %s\nrouted: %s", body, direct.Body.Bytes(), routed.Body.Bytes())
		}
	}

	// Error rows: the router decodes with the backends' decoder, parses
	// with their row helpers and maps codes through their status table,
	// so a refused request is refused with the same status and the same
	// bytes whichever front door it knocked on.
	const query, join, update = "/v1/datasets/d/query", "/v1/datasets/d/join", "/v1/datasets/d"
	for _, row := range []struct {
		name, path, body string
		status           int
	}{
		{"query trailing data", query, `{"type":"range","box":[0,0,0,400,400,400]} trailing`, 400},
		{"query second document", query, `{"type":"point","point":[1,2,3]}{}`, 400},
		{"query truncated json", query, `{"type":"range","box":[0,0,0`, 400},
		{"query 5-number box", query, `{"type":"range","box":[0,0,0,400,400]}`, 400},
		{"query 2-number point", query, `{"type":"knn","point":[1,2],"k":3}`, 400},
		{"query k:0", query, `{"type":"knn","point":[1,2,3],"k":0}`, 400},
		{"query inverted box", query, `{"type":"range","box":[400,400,400,0,0,0]}`, 400},
		{"query unknown type", query, `{"type":"nearest","point":[1,2,3]}`, 400},
		{"query unknown dataset", "/v1/datasets/ghost/query", `{"type":"point","point":[1,2,3]}`, 404},
		{"join trailing data", join, `{"boxes":[[0,0,0,9,9,9]]} trailing`, 400},
		{"join boxes and probe", join, `{"boxes":[[0,0,0,9,9,9]],"probe":"d"}`, 400},
		{"join neither", join, `{}`, 400},
		{"join 3-number box", join, `{"boxes":[[0,0,0]]}`, 400},
		{"join inverted box", join, `{"boxes":[[9,9,9,0,0,0]]}`, 400},
		{"join negative eps", join, `{"boxes":[[0,0,0,9,9,9]],"eps":-1}`, 400},
		{"join unknown probe", join, `{"probe":"ghost","count_only":true}`, 404},
		{"update empty", update, `{}`, 400},
		{"update trailing data", update, `{"delete":[1]} trailing`, 400},
		{"update 4-number insert", update, `{"insert":[[0,0,0,1]]}`, 400},
		{"update inverted insert", update, `{"insert":[[9,9,9,0,0,0]]}`, 400},
		{"update unknown dataset", "/v1/datasets/ghost", `{"delete":[1]}`, 404},
	} {
		post := postJSON
		if !strings.Contains(row.path, "/query") && !strings.Contains(row.path, "/join") {
			post = postJSONPatch
		}
		direct := post(t, b0.srv, row.path, row.body)
		routed := post(t, rt, row.path, row.body)
		if direct.Code != row.status || routed.Code != row.status {
			t.Errorf("%s: direct %d, routed %d, want %d\ndirect: %srouted: %s",
				row.name, direct.Code, routed.Code, row.status, direct.Body.Bytes(), routed.Body.Bytes())
			continue
		}
		if !bytes.Equal(direct.Body.Bytes(), routed.Body.Bytes()) {
			t.Errorf("%s:\ndirect: %srouted: %s", row.name, direct.Body.Bytes(), routed.Body.Bytes())
		}
	}

	// A draining replica answers every frame "draining". For a read that
	// is not the answer but "ask the next owner": the routed response is
	// still the 200 the other replica gives.
	primary, other := b0, b1
	if rt.Owners("d")[0] == "r1" {
		primary, other = b1, b0
	}
	primary.srv.BeginShutdown()
	direct := postJSON(t, other.srv, query, bodies[0])
	routed := postJSON(t, rt, query, bodies[0])
	if routed.Code != http.StatusOK || !bytes.Equal(direct.Body.Bytes(), routed.Body.Bytes()) {
		t.Fatalf("read with a draining primary: %d %s\nwant the other owner's answer: %s",
			routed.Code, routed.Body.Bytes(), direct.Body.Bytes())
	}
}

// TestRoutedWireMatchesDirect: the router's wire front answers range,
// knn and join with exactly the values a direct backend connection
// yields.
func TestRoutedWireMatchesDirect(t *testing.T) {
	ds := touch.GenerateUniform(400, 11)
	b0 := startBackend(t, "r0", map[string]touch.Dataset{"d": ds})
	b1 := startBackend(t, "r1", map[string]touch.Dataset{"d": ds})
	rt := startRouter(t, 2, b0.addr, b1.addr)

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

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	viaRouter, err := client.Dial(ctx, ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer viaRouter.Close()
	if info := viaRouter.ServerInfo(); !strings.HasPrefix(info, "touchrouter/") {
		t.Fatalf("router hello info = %q, want touchrouter/*", info)
	}
	direct, err := client.Dial(ctx, b0.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()

	box := touch.Box{Max: touch.Point{600, 600, 600}}
	dv, dids, err := direct.Range(ctx, "d", box)
	if err != nil {
		t.Fatal(err)
	}
	rv, rids, err := viaRouter.Range(ctx, "d", box)
	if err != nil {
		t.Fatalf("routed range: %v", err)
	}
	if rv != dv || fmt.Sprint(rids) != fmt.Sprint(dids) {
		t.Fatalf("range mismatch: direct v%d %d ids, routed v%d %d ids", dv, len(dids), rv, len(rids))
	}

	_, dn, err := direct.KNN(ctx, "d", touch.Point{1, 2, 3}, 5)
	if err != nil {
		t.Fatal(err)
	}
	_, rn, err := viaRouter.KNN(ctx, "d", touch.Point{1, 2, 3}, 5)
	if err != nil {
		t.Fatalf("routed knn: %v", err)
	}
	if fmt.Sprint(rn) != fmt.Sprint(dn) {
		t.Fatalf("knn mismatch:\ndirect %v\nrouted %v", dn, rn)
	}

	spec := client.JoinSpec{Boxes: []touch.Box{
		{Min: touch.Point{0, 0, 0}, Max: touch.Point{300, 300, 300}},
		{Min: touch.Point{500, 500, 500}, Max: touch.Point{900, 900, 900}},
	}}
	dv, dpairs, dcount, err := direct.Join(ctx, "d", spec)
	if err != nil {
		t.Fatal(err)
	}
	rv, rpairs, rcount, err := viaRouter.Join(ctx, "d", spec)
	if err != nil {
		t.Fatalf("routed join: %v", err)
	}
	if rv != dv || rcount != dcount || fmt.Sprint(rpairs) != fmt.Sprint(dpairs) {
		t.Fatalf("join mismatch: direct v%d count %d, routed v%d count %d", dv, dcount, rv, rcount)
	}

	// Unknown dataset: the backend's structured error passes through the
	// router verbatim — an answer, not a failover trigger.
	if _, _, err := viaRouter.Range(ctx, "nope", box); err == nil {
		t.Fatal("routed range on unknown dataset succeeded")
	} else {
		var se *client.ServerError
		if !errors.As(err, &se) || se.Code != "unknown_dataset" {
			t.Fatalf("routed unknown-dataset error = %v, want unknown_dataset ServerError", err)
		}
	}
}

// TestFailoverUnderLoad is the acceptance scenario: R=2, reads flowing
// through the router's wire front, one backend killed mid-load. Zero
// reads may fail, every answer must match the oracle computed before
// the kill, and the metrics must show the ejection and the failovers.
func TestFailoverUnderLoad(t *testing.T) {
	ds := touch.GenerateUniform(300, 3)
	b0 := startBackend(t, "r0", map[string]touch.Dataset{"d": ds})
	b1 := startBackend(t, "r1", map[string]touch.Dataset{"d": ds})
	backends := map[string]*testBackend{"r0": b0, "r1": b1}
	rt := startRouter(t, 2, b0.addr, b1.addr)

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

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	oracle, err := client.Dial(ctx, b0.addr)
	if err != nil {
		t.Fatal(err)
	}
	box := touch.Box{Max: touch.Point{700, 700, 700}}
	_, want, err := oracle.Range(ctx, "d", box)
	if err != nil {
		t.Fatal(err)
	}
	oracle.Close()

	owners := rt.Owners("d")
	if len(owners) != 2 {
		t.Fatalf("owners of d = %v, want 2", owners)
	}
	primary := backends[owners[0]]
	if primary == nil {
		t.Fatalf("primary owner %q is not a known backend", owners[0])
	}

	conn, err := client.Dial(ctx, ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	const goroutines, iters = 8, 150
	var killOnce sync.Once
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if g == 0 && i == iters/4 {
					// Kill the primary owner mid-stream, exactly once.
					killOnce.Do(primary.kill)
				}
				_, ids, err := conn.Range(ctx, "d", box)
				if err != nil {
					errs <- fmt.Errorf("goroutine %d read %d: %w", g, i, err)
					return
				}
				if len(ids) != len(want) {
					errs <- fmt.Errorf("goroutine %d read %d: %d ids, want %d", g, i, len(ids), len(want))
					return
				}
			}
			errs <- nil
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	var buf bytes.Buffer
	rt.RenderMetrics(&buf)
	m, err := promtext.Parse(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("metrics after failover do not parse: %v\n%s", err, buf.String())
	}
	if fam := m.Families["touchrouter_failovers_total"]; fam == nil || fam.Samples[0].Value < 1 {
		t.Fatalf("failovers_total missing or zero after a kill:\n%s", buf.String())
	}
	if fam := m.Families["touchrouter_ejections_total"]; fam == nil || fam.Samples[0].Value < 1 {
		t.Fatalf("ejections_total missing or zero after a kill:\n%s", buf.String())
	}
	healthy := m.Families["touchrouter_backend_healthy"]
	if healthy == nil || len(healthy.Samples) != 2 {
		t.Fatalf("backend_healthy family malformed:\n%s", buf.String())
	}
	for _, s := range healthy.Samples {
		wantUp := 1.0
		if s.Label("backend") == owners[0] {
			wantUp = 0
		}
		if s.Value != wantUp {
			t.Fatalf("backend_healthy{backend=%q} = %g, want %g", s.Label("backend"), s.Value, wantUp)
		}
	}
}

// TestCatalogMergeAndPartialFailure: listings merge across backends
// with provenance, and an unreachable backend is reported, not fatal.
func TestCatalogMergeAndPartialFailure(t *testing.T) {
	shared := touch.GenerateUniform(100, 5)
	b0 := startBackend(t, "r0", map[string]touch.Dataset{"only0": touch.GenerateUniform(50, 1), "shared": shared})
	b1 := startBackend(t, "r1", map[string]touch.Dataset{"only1": touch.GenerateUniform(60, 2), "shared": shared})

	// A third configured backend that refuses connections.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()

	rt := startRouter(t, 2, b0.addr, b1.addr, deadAddr)

	req := httptest.NewRequest(http.MethodGet, "/v1/datasets", nil)
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /v1/datasets = %d: %s", rec.Code, rec.Body.Bytes())
	}
	var out struct {
		Datasets []struct {
			Name     string   `json:"name"`
			Objects  int64    `json:"objects"`
			Backends []string `json:"backends"`
			Source   string   `json:"source"`
		} `json:"datasets"`
		Partial        bool `json:"partial"`
		FailedBackends []struct {
			Backend string `json:"backend"`
		} `json:"failed_backends"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if !out.Partial || len(out.FailedBackends) != 1 || out.FailedBackends[0].Backend != deadAddr {
		t.Fatalf("partial-failure report wrong: %s", rec.Body.Bytes())
	}
	if len(out.Datasets) != 3 {
		t.Fatalf("merged catalog has %d rows, want 3: %s", len(out.Datasets), rec.Body.Bytes())
	}
	rows := map[string][]string{}
	for _, d := range out.Datasets {
		rows[d.Name] = d.Backends
		if d.Source == "" {
			t.Fatalf("row %q has no source backend", d.Name)
		}
	}
	if fmt.Sprint(rows["only0"]) != "[r0]" || fmt.Sprint(rows["only1"]) != "[r1]" || fmt.Sprint(rows["shared"]) != "[r0 r1]" {
		t.Fatalf("provenance wrong: %v", rows)
	}
}

// TestUpdatePrimaryOnly: updates apply through the ring primary alone,
// and a dead primary yields an explicit error instead of a silent
// retry that could double-apply the batch.
func TestUpdatePrimaryOnly(t *testing.T) {
	ds := touch.GenerateUniform(100, 9)
	b0 := startBackend(t, "r0", map[string]touch.Dataset{"d": ds})
	b1 := startBackend(t, "r1", map[string]touch.Dataset{"d": ds})
	backends := map[string]*testBackend{"r0": b0, "r1": b1}
	rt := startRouter(t, 2, b0.addr, b1.addr)

	owners := rt.Owners("d")
	primary, fallback := backends[owners[0]], backends[owners[1]]

	rec := postJSONPatch(t, rt, "/v1/datasets/d", `{"insert":[[1,1,1,2,2,2]]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("PATCH via router = %d: %s", rec.Code, rec.Body.Bytes())
	}

	deltas := func(b *testBackend) int {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		c, err := client.Dial(ctx, b.addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		infos, err := c.Datasets(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, info := range infos {
			if info.Name == "d" {
				return info.DeltaInserts
			}
		}
		return -1
	}
	if got := deltas(primary); got != 1 {
		t.Fatalf("primary delta inserts = %d, want 1", got)
	}
	if got := deltas(fallback); got != 0 {
		t.Fatalf("fallback delta inserts = %d, want 0 (update must not fan out)", got)
	}

	primary.kill()
	rec = postJSONPatch(t, rt, "/v1/datasets/d", `{"insert":[[3,3,3,4,4,4]]}`)
	if rec.Code/100 == 2 {
		t.Fatalf("PATCH with dead primary = %d, want an explicit error: %s", rec.Code, rec.Body.Bytes())
	}
	if got := deltas(fallback); got != 0 {
		t.Fatalf("fallback delta inserts = %d after dead-primary update, want 0 (no failover for writes)", got)
	}
}

func postJSONPatch(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPatch, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestRouterMetricsParse: the full exposition survives the strict
// Prometheus text parser and carries the core families.
func TestRouterMetricsParse(t *testing.T) {
	ds := touch.GenerateUniform(100, 4)
	b0 := startBackend(t, "r0", map[string]touch.Dataset{"d": ds})
	b1 := startBackend(t, "r1", map[string]touch.Dataset{"d": ds})
	rt := startRouter(t, 2, b0.addr, b1.addr)

	postJSON(t, rt, "/v1/datasets/d/query", `{"type":"range","box":[0,0,0,100,100,100]}`)

	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, req)
	m, err := promtext.Parse(rec.Body)
	if err != nil {
		t.Fatalf("metrics do not parse: %v", err)
	}
	for _, fam := range []string{
		"touchrouter_uptime_seconds", "touchrouter_backends", "touchrouter_replication",
		"touchrouter_requests_total", "touchrouter_backend_healthy",
		"touchrouter_backend_requests_total", "touchrouter_backend_errors_total",
		"touchrouter_backend_latency_seconds", "touchrouter_failovers_total",
		"touchrouter_ejections_total", "touchrouter_reinstatements_total",
	} {
		if m.Families[fam] == nil {
			t.Fatalf("family %s missing from exposition", fam)
		}
	}
	for _, s := range m.Families["touchrouter_backend_healthy"].Samples {
		if s.Value != 1 {
			t.Fatalf("backend %q unhealthy with both replicas alive", s.Label("backend"))
		}
		if s.Label("addr") == "" {
			t.Fatal("backend_healthy sample missing addr label")
		}
	}

	hreq := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	hrec := httptest.NewRecorder()
	rt.ServeHTTP(hrec, hreq)
	if hrec.Code != http.StatusOK || !strings.Contains(hrec.Body.String(), `"status":"ok"`) {
		t.Fatalf("healthz = %d %s", hrec.Code, hrec.Body.String())
	}
}
