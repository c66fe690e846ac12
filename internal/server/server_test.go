package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"

	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"touch"
	"touch/internal/api"
	"touch/internal/testutil"
)

// testServer wires a Server into an httptest listener.
type testServer struct {
	t   *testing.T
	srv *Server
	hs  *httptest.Server
}

func newTestServer(t *testing.T, cfg Config) *testServer {
	t.Helper()
	s := New(cfg)
	hs := httptest.NewServer(s)
	t.Cleanup(hs.Close)
	return &testServer{t: t, srv: s, hs: hs}
}

// do sends a request. A []byte body goes out raw; anything else non-nil
// is JSON-encoded. It returns the status and the full response body.
func (ts *testServer) do(method, path, contentType string, body any) (int, []byte) {
	ts.t.Helper()
	var rd io.Reader
	switch b := body.(type) {
	case nil:
	case []byte:
		rd = bytes.NewReader(b)
	default:
		buf, err := json.Marshal(body)
		if err != nil {
			ts.t.Fatal(err)
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, ts.hs.URL+path, rd)
	if err != nil {
		ts.t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := ts.hs.Client().Do(req)
	if err != nil {
		ts.t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		ts.t.Fatal(err)
	}
	return resp.StatusCode, out
}

func (ts *testServer) postJSON(path string, body any) (int, []byte) {
	return ts.do(http.MethodPost, path, "application/json", body)
}

// errCode extracts the structured error code of a non-2xx body.
func errCode(t *testing.T, body []byte) string {
	t.Helper()
	var eb api.ErrorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatalf("response is not a structured JSON error: %v (%s)", err, body)
	}
	if eb.Error.Code == "" {
		t.Fatalf("error body without code: %s", body)
	}
	return eb.Error.Code
}

// boxRows converts a dataset to the JSON wire rows of loadRequest.
func boxRows(ds touch.Dataset) [][]float64 {
	rows := make([][]float64, len(ds))
	for i, o := range ds {
		b := o.Box
		rows[i] = []float64{b.Min[0], b.Min[1], b.Min[2], b.Max[0], b.Max[1], b.Max[2]}
	}
	return rows
}

// loadAndWait loads a dataset over HTTP and polls the catalog until the
// assigned version is serving.
func (ts *testServer) loadAndWait(name string, ds touch.Dataset, partitions int) int64 {
	ts.t.Helper()
	req := loadRequest{Boxes: boxRows(ds)}
	req.Config.Partitions = partitions
	status, body := ts.postJSON("/v1/datasets/"+name, req)
	if status != http.StatusAccepted {
		ts.t.Fatalf("load %s: status %d: %s", name, status, body)
	}
	var ack struct {
		Version int64  `json:"version"`
		Status  string `json:"status"`
	}
	if err := json.Unmarshal(body, &ack); err != nil {
		ts.t.Fatal(err)
	}
	if ack.Status != "building" {
		ts.t.Fatalf("load ack status %q, want building", ack.Status)
	}
	ts.waitServing(name, ack.Version)
	return ack.Version
}

// waitServing polls until the named dataset serves version >= v.
func (ts *testServer) waitServing(name string, v int64) {
	ts.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if snap, ok := snapshotOf(ts.srv.cat, name); ok && snap != nil && snap.version >= v {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	ts.t.Fatalf("dataset %s never reached version %d", name, v)
}

// TestEndToEndQueryDifferential: load over HTTP (JSON path), then check
// every query shape byte-for-byte (after decode) against direct Index
// calls on an identically configured in-process index.
func TestEndToEndQueryDifferential(t *testing.T) {
	ts := newTestServer(t, Config{})
	ds := touch.GenerateClustered(1500, 11)
	ts.loadAndWait("main", ds, 64)
	direct := touch.BuildIndex(ds, touch.TOUCHConfig{Partitions: 64})

	boxes, points, ks := testutil.QueryWorkload(12, 24)
	for i := range boxes {
		// Range.
		status, body := ts.postJSON("/v1/datasets/main/query", api.QueryRequest{
			Type: "range",
			Box: []float64{boxes[i].Min[0], boxes[i].Min[1], boxes[i].Min[2],
				boxes[i].Max[0], boxes[i].Max[1], boxes[i].Max[2]},
		})
		if status != http.StatusOK {
			t.Fatalf("range %d: status %d: %s", i, status, body)
		}
		var qr api.QueryResponse
		if err := json.Unmarshal(body, &qr); err != nil {
			t.Fatal(err)
		}
		want, err := direct.RangeQuery(boxes[i])
		if err != nil {
			t.Fatal(err)
		}
		if len(qr.IDs) != len(want) || qr.Count != len(want) {
			t.Fatalf("range %d: HTTP %d ids, direct %d", i, len(qr.IDs), len(want))
		}
		for j := range want {
			if qr.IDs[j] != want[j] {
				t.Fatalf("range %d: id %d differs: %d vs %d", i, j, qr.IDs[j], want[j])
			}
		}

		// Point.
		status, body = ts.postJSON("/v1/datasets/main/query", api.QueryRequest{
			Type: "point", Point: points[i][:],
		})
		if status != http.StatusOK {
			t.Fatalf("point %d: status %d: %s", i, status, body)
		}
		qr = api.QueryResponse{}
		if err := json.Unmarshal(body, &qr); err != nil {
			t.Fatal(err)
		}
		wantPt, err := direct.PointQuery(points[i][0], points[i][1], points[i][2])
		if err != nil {
			t.Fatal(err)
		}
		if len(qr.IDs) != len(wantPt) {
			t.Fatalf("point %d: HTTP %d ids, direct %d", i, len(qr.IDs), len(wantPt))
		}
		for j := range wantPt {
			if qr.IDs[j] != wantPt[j] {
				t.Fatalf("point %d: id %d differs: %d vs %d", i, j, qr.IDs[j], wantPt[j])
			}
		}

		// kNN.
		status, body = ts.postJSON("/v1/datasets/main/query", api.QueryRequest{
			Type: "knn", Point: points[i][:], K: ks[i],
		})
		if status != http.StatusOK {
			t.Fatalf("knn %d: status %d: %s", i, status, body)
		}
		qr = api.QueryResponse{}
		if err := json.Unmarshal(body, &qr); err != nil {
			t.Fatal(err)
		}
		wantNN, err := direct.KNN(points[i], ks[i])
		if err != nil {
			t.Fatal(err)
		}
		if len(qr.Neighbors) != len(wantNN) {
			t.Fatalf("knn %d: HTTP %d neighbors, direct %d", i, len(qr.Neighbors), len(wantNN))
		}
		for j, n := range wantNN {
			got := qr.Neighbors[j]
			if got.ID != n.ID || got.Distance != n.Distance {
				t.Fatalf("knn %d neighbor %d: (%d, %g) vs direct (%d, %g)",
					i, j, got.ID, got.Distance, n.ID, n.Distance)
			}
		}
	}
}

// TestJoinEndpoint: inline and named probes, ε-distance, count_only and
// the per-request workers knob — all checked against direct Index joins.
func TestJoinEndpoint(t *testing.T) {
	ts := newTestServer(t, Config{})
	a := touch.GenerateUniform(900, 21).Expand(6)
	b := touch.GenerateUniform(700, 22)
	ts.loadAndWait("a", a, 32)
	ts.loadAndWait("b", b, 32)
	direct := touch.BuildIndex(a, touch.TOUCHConfig{Partitions: 32})

	checkPairs := func(label string, got [][2]touch.ID, want []touch.Pair) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: HTTP %d pairs, direct %d", label, len(got), len(want))
		}
		for i, p := range want {
			if got[i][0] != p.A || got[i][1] != p.B {
				t.Fatalf("%s: pair %d differs: %v vs %v", label, i, got[i], p)
			}
		}
	}

	// Inline probe, eps = 0 (plain intersection), explicit workers.
	for _, workers := range []int{0, 2} {
		status, body := ts.postJSON("/v1/datasets/a/join", api.JoinRequest{Boxes: boxRows(b), Workers: workers})
		if status != http.StatusOK {
			t.Fatalf("inline join: status %d: %s", status, body)
		}
		var jr api.JoinResponse
		if err := json.Unmarshal(body, &jr); err != nil {
			t.Fatal(err)
		}
		res := direct.Join(b, nil)
		res.SortPairs()
		checkPairs(fmt.Sprintf("inline-w%d", workers), jr.Pairs, res.Pairs)
		if jr.Count != res.Stats.Results || jr.ProbeObjects != len(b) {
			t.Fatalf("inline join meta: count %d/%d probe_objects %d/%d",
				jr.Count, res.Stats.Results, jr.ProbeObjects, len(b))
		}
		if jr.Stats == nil || jr.Stats.Comparisons != res.Stats.Comparisons {
			t.Fatalf("inline join stats mismatch: %+v vs %+v", jr.Stats, res.Stats)
		}
	}

	// Named probe with ε-distance.
	status, body := ts.postJSON("/v1/datasets/a/join", api.JoinRequest{Probe: "b", Eps: 4})
	if status != http.StatusOK {
		t.Fatalf("named join: status %d: %s", status, body)
	}
	var jr api.JoinResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatal(err)
	}
	res, err := direct.DistanceJoin(b, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	res.SortPairs()
	checkPairs("named-eps4", jr.Pairs, res.Pairs)
	if jr.Probe != "b" || jr.ProbeVersion != 1 {
		t.Fatalf("named join meta: %+v", jr)
	}

	// count_only suppresses pairs but keeps the count.
	status, body = ts.postJSON("/v1/datasets/a/join", api.JoinRequest{Probe: "b", CountOnly: true})
	if status != http.StatusOK {
		t.Fatalf("count join: status %d: %s", status, body)
	}
	jr = api.JoinResponse{}
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatal(err)
	}
	plain := direct.Join(b, nil)
	if jr.Pairs != nil || jr.Count != plain.Stats.Results {
		t.Fatalf("count_only: pairs=%v count=%d want count %d", jr.Pairs, jr.Count, plain.Stats.Results)
	}
}

// TestTextLoader: POST a text/plain body in ReadDataset syntax.
func TestTextLoader(t *testing.T) {
	ts := newTestServer(t, Config{})
	text := "0 0 0 10 10 10\n5 5 5 15 15 15\n# comment\n20 20 20 30 30 30\n"
	status, body := ts.do(http.MethodPost, "/v1/datasets/txt", "text/plain", []byte(text))
	if status != http.StatusAccepted {
		t.Fatalf("text load: status %d: %s", status, body)
	}
	ts.waitServing("txt", 1)
	status, body = ts.postJSON("/v1/datasets/txt/query", api.QueryRequest{Type: "point", Point: []float64{6, 6, 6}})
	if status != http.StatusOK {
		t.Fatalf("query: status %d: %s", status, body)
	}
	var qr api.QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Count != 2 { // objects 0 and 1 contain (6,6,6)
		t.Fatalf("point query count = %d, want 2 (%s)", qr.Count, body)
	}
}

// TestCatalogListingAndDelete: listing rows carry status, objects and
// StaticBytes matching Index.Stats; DELETE drops the entry.
func TestCatalogListingAndDelete(t *testing.T) {
	ts := newTestServer(t, Config{})
	ds := touch.GenerateUniform(500, 31)
	ts.loadAndWait("listed", ds, 16)

	status, body := ts.do(http.MethodGet, "/v1/datasets", "", nil)
	if status != http.StatusOK {
		t.Fatalf("list: status %d: %s", status, body)
	}
	var list struct {
		Datasets []datasetInfo `json:"datasets"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Datasets) != 1 {
		t.Fatalf("listing has %d rows: %s", len(list.Datasets), body)
	}
	row := list.Datasets[0]
	want := touch.BuildIndex(ds, touch.TOUCHConfig{Partitions: 16}).Stats()
	if row.Name != "listed" || row.Version != 1 || row.Status != "ready" ||
		row.Objects != want.Objects || row.StaticBytes != want.StaticBytes ||
		row.Nodes != want.Nodes || row.Height != want.Height || row.BuiltAt == "" {
		t.Fatalf("listing row %+v does not match Index.Stats %+v", row, want)
	}

	status, _ = ts.do(http.MethodDelete, "/v1/datasets/listed", "", nil)
	if status != http.StatusOK {
		t.Fatalf("delete: status %d", status)
	}
	status, body = ts.postJSON("/v1/datasets/listed/query", api.QueryRequest{Type: "point", Point: []float64{0, 0, 0}})
	if status != http.StatusNotFound || errCode(t, body) != api.CodeUnknownDataset {
		t.Fatalf("query after delete: %d %s", status, body)
	}
}

// TestErrorStatuses: every client-error path returns its documented
// status and structured JSON code.
func TestErrorStatuses(t *testing.T) {
	ts := newTestServer(t, Config{MaxBodyBytes: 4096})
	ts.loadAndWait("ds", touch.GenerateUniform(20, 41), 16)

	cases := []struct {
		name        string
		method      string
		path        string
		contentType string
		body        any
		wantStatus  int
		wantCode    string
	}{
		{"unknown route", http.MethodGet, "/nope", "", nil, 404, api.CodeNotFound},
		{"unknown action", http.MethodPost, "/v1/datasets/ds/frobnicate", "application/json", api.QueryRequest{}, 404, api.CodeNotFound},
		{"list wrong method", http.MethodPost, "/v1/datasets", "application/json", nil, 405, api.CodeMethod},
		{"query wrong method", http.MethodGet, "/v1/datasets/ds/query", "", nil, 405, api.CodeMethod},
		{"load wrong method", http.MethodPut, "/v1/datasets/ds", "", nil, 405, api.CodeMethod},
		{"bad dataset name", http.MethodPost, "/v1/datasets/bad%20name", "application/json", loadRequest{}, 400, api.CodeInvalidName},
		{"unknown dataset query", http.MethodPost, "/v1/datasets/ghost/query", "application/json", api.QueryRequest{Type: "point", Point: []float64{0, 0, 0}}, 404, api.CodeUnknownDataset},
		{"unknown dataset join", http.MethodPost, "/v1/datasets/ghost/join", "application/json", api.JoinRequest{Boxes: [][]float64{}}, 404, api.CodeUnknownDataset},
		{"unknown probe name", http.MethodPost, "/v1/datasets/ds/join", "application/json", api.JoinRequest{Probe: "ghost"}, 404, api.CodeUnknownDataset},
		{"delete unknown", http.MethodDelete, "/v1/datasets/ghost", "", nil, 404, api.CodeUnknownDataset},
		{"malformed json", http.MethodPost, "/v1/datasets/ds/query", "application/json", []byte("{nope"), 400, api.CodeBadRequest},
		{"trailing garbage", http.MethodPost, "/v1/datasets/ds/query", "application/json", []byte(`{"type":"point","point":[0,0,0]} extra`), 400, api.CodeBadRequest},
		{"unknown query type", http.MethodPost, "/v1/datasets/ds/query", "application/json", api.QueryRequest{Type: "cube"}, 400, api.CodeBadRequest},
		{"short box", http.MethodPost, "/v1/datasets/ds/query", "application/json", api.QueryRequest{Type: "range", Box: []float64{0, 0, 0, 1}}, 400, api.CodeInvalidBox},
		{"inverted box", http.MethodPost, "/v1/datasets/ds/query", "application/json", api.QueryRequest{Type: "range", Box: []float64{5, 0, 0, 1, 1, 1}}, 400, api.CodeInvalidBox},
		// JSON itself cannot carry NaN/Inf — an out-of-range literal dies
		// in the decoder (the NaN path is reachable via the text loader).
		{"overflow box", http.MethodPost, "/v1/datasets/ds/query", "application/json", []byte(`{"type":"range","box":[1e999,0,0,1,1,1]}`), 400, api.CodeBadRequest},
		{"short point", http.MethodPost, "/v1/datasets/ds/query", "application/json", api.QueryRequest{Type: "point", Point: []float64{1}}, 400, api.CodeInvalidPoint},
		{"bad k", http.MethodPost, "/v1/datasets/ds/query", "application/json", api.QueryRequest{Type: "knn", Point: []float64{0, 0, 0}, K: 0}, 400, api.CodeInvalidK},
		{"negative eps", http.MethodPost, "/v1/datasets/ds/join", "application/json", api.JoinRequest{Boxes: [][]float64{{0, 0, 0, 1, 1, 1}}, Eps: -2}, 400, api.CodeInvalidEps},
		{"join no probe", http.MethodPost, "/v1/datasets/ds/join", "application/json", api.JoinRequest{}, 400, api.CodeBadRequest},
		{"join both probes", http.MethodPost, "/v1/datasets/ds/join", "application/json", api.JoinRequest{Boxes: [][]float64{{0, 0, 0, 1, 1, 1}}, Probe: "ds"}, 400, api.CodeBadRequest},
		{"load bad row width", http.MethodPost, "/v1/datasets/w", "application/json", loadRequest{Boxes: [][]float64{{1, 2, 3}}}, 400, api.CodeInvalidBox},
		{"load inverted box", http.MethodPost, "/v1/datasets/w", "application/json", loadRequest{Boxes: [][]float64{{9, 0, 0, 1, 1, 1}}}, 400, api.CodeInvalidBox},
		{"load text nan", http.MethodPost, "/v1/datasets/w", "text/plain", []byte("NaN 0 0 1 1 1\n"), 400, api.CodeInvalidBox},
		{"load text inf", http.MethodPost, "/v1/datasets/w", "text/plain", []byte("0 0 0 1 1 Inf\n"), 400, api.CodeInvalidBox},
		{"load wrong content type", http.MethodPost, "/v1/datasets/w", "application/protobuf", []byte("x"), 415, api.CodeUnsupported},
		{"join inline inverted box", http.MethodPost, "/v1/datasets/ds/join", "application/json", api.JoinRequest{Boxes: [][]float64{{9, 0, 0, 1, 1, 1}}}, 400, api.CodeInvalidBox},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body := ts.do(tc.method, tc.path, tc.contentType, tc.body)
			if status != tc.wantStatus {
				t.Fatalf("status %d, want %d (%s)", status, tc.wantStatus, body)
			}
			if code := errCode(t, body); code != tc.wantCode {
				t.Fatalf("code %q, want %q (%s)", code, tc.wantCode, body)
			}
		})
	}
	// The NDJSON twin of "negative eps": a streaming join that fails
	// before its first pair answers like the buffered one.
	t.Run("negative eps ndjson", func(t *testing.T) {
		status, body, _ := ts.doHeaders(http.MethodPost, "/v1/datasets/ds/join",
			api.JoinRequest{Boxes: [][]float64{{0, 0, 0, 1, 1, 1}}, Eps: -2},
			map[string]string{"Accept": ndjsonContentType})
		if status != http.StatusBadRequest || errCode(t, body) != api.CodeInvalidEps {
			t.Fatalf("status %d (%s), want 400 %s", status, body, api.CodeInvalidEps)
		}
	})

	// Oversized body → 413 with code body_too_large.
	big := loadRequest{Boxes: boxRows(touch.GenerateUniform(200, 42))}
	status, body := ts.postJSON("/v1/datasets/big", big)
	if status != http.StatusRequestEntityTooLarge || errCode(t, body) != api.CodeBodyTooLarge {
		t.Fatalf("oversized body: %d %s", status, body)
	}
}

// TestBuildingStatus: a dataset whose first index version is still
// building answers queries with 503 {"code":"building"} and lists as
// "building"; during a rebuild the old version keeps serving and the
// listing says "rebuilding".
func TestBuildingStatus(t *testing.T) {
	tokens := make(chan struct{})
	cfg := Config{}
	cfg.build = func(ds touch.Dataset, tc touch.TOUCHConfig) *touch.Index {
		<-tokens // each build waits for one release token
		return touch.BuildIndex(ds, tc)
	}
	ts := newTestServer(t, cfg)

	ds1 := touch.GenerateUniform(200, 51)
	status, body := ts.postJSON("/v1/datasets/slow", loadRequest{Boxes: boxRows(ds1)})
	if status != http.StatusAccepted {
		t.Fatalf("load: %d %s", status, body)
	}

	// First version not ready: query → 503 building, listing → building.
	status, body = ts.postJSON("/v1/datasets/slow/query", api.QueryRequest{Type: "point", Point: []float64{1, 1, 1}})
	if status != http.StatusServiceUnavailable || errCode(t, body) != api.CodeBuilding {
		t.Fatalf("query while building: %d %s", status, body)
	}
	_, body = ts.do(http.MethodGet, "/v1/datasets", "", nil)
	if !strings.Contains(string(body), `"status":"building"`) {
		t.Fatalf("listing should say building: %s", body)
	}

	tokens <- struct{}{} // release build 1
	ts.waitServing("slow", 1)

	// Rebuild pending: version 1 keeps serving, listing says rebuilding.
	ds2 := touch.GenerateUniform(300, 52)
	status, _ = ts.postJSON("/v1/datasets/slow", loadRequest{Boxes: boxRows(ds2)})
	if status != http.StatusAccepted {
		t.Fatalf("reload: %d", status)
	}
	status, body = ts.postJSON("/v1/datasets/slow/query", api.QueryRequest{Type: "point", Point: []float64{1, 1, 1}})
	if status != http.StatusOK {
		t.Fatalf("query during rebuild: %d %s", status, body)
	}
	var qr api.QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Version != 1 {
		t.Fatalf("serving version %d during rebuild, want 1", qr.Version)
	}
	_, body = ts.do(http.MethodGet, "/v1/datasets", "", nil)
	if !strings.Contains(string(body), `"status":"rebuilding"`) {
		t.Fatalf("listing should say rebuilding: %s", body)
	}

	tokens <- struct{}{} // release build 2
	ts.waitServing("slow", 2)
	status, body = ts.postJSON("/v1/datasets/slow/query", api.QueryRequest{Type: "point", Point: []float64{1, 1, 1}})
	if status != http.StatusOK {
		t.Fatal(status)
	}
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Version != 2 {
		t.Fatalf("after swap: serving version %d, want 2", qr.Version)
	}
}

// TestOverloadRejects: with every in-flight slot held, new requests are
// rejected immediately with 429, a Retry-After header and a JSON body —
// never queued — and the reject shows up in /metrics.
func TestOverloadRejects(t *testing.T) {
	gate := make(chan struct{})
	ts := newTestServer(t, Config{MaxInFlight: 2})
	ts.srv.testHookWorker = func(context.Context) { <-gate }
	ts.loadAndWait("ds", touch.GenerateUniform(100, 61), 16)

	// Occupy both slots with worker-blocked queries.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, _ := ts.postJSON("/v1/datasets/ds/query", api.QueryRequest{Type: "point", Point: []float64{1, 1, 1}})
			if status != http.StatusOK {
				t.Errorf("blocked query finished with %d", status)
			}
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for ts.srv.met.inFlight.Load() != 2 {
		if time.Now().After(deadline) {
			t.Fatal("slots never filled")
		}
		time.Sleep(time.Millisecond)
	}

	req, _ := http.NewRequest(http.MethodPost, ts.hs.URL+"/v1/datasets/ds/query",
		strings.NewReader(`{"type":"point","point":[1,1,1]}`))
	req.Header.Set("Content-Type", "application/json")
	resp, err := ts.hs.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || errCode(t, body) != api.CodeOverload {
		t.Fatalf("overload: %d %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	close(gate) // drain the blocked workers
	wg.Wait()

	// The in-flight gauge returns to zero and the reject is counted.
	deadline = time.Now().Add(5 * time.Second)
	for ts.srv.met.inFlight.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("in-flight stuck at %d", ts.srv.met.inFlight.Load())
		}
		time.Sleep(time.Millisecond)
	}
	_, metricsBody := ts.do(http.MethodGet, "/metrics", "", nil)
	if !strings.Contains(string(metricsBody), `touchserved_rejects_total{reason="overload"} 1`) {
		t.Fatalf("metrics missing overload reject: %s", metricsBody)
	}
}

// TestRequestTimeout: a request whose computation outlives the budget
// gets 503 {"code":"timeout"} and its admission slot frees immediately —
// the deadline cancels the engine, so there is no abandoned computation
// left to pin the slot (the old slot-follows-the-zombie design is gone).
func TestRequestTimeout(t *testing.T) {
	ts := newTestServer(t, Config{RequestTimeout: 20 * time.Millisecond})
	// Park the request under its own context until the deadline fires —
	// deterministic, no sleeps in the assertion path.
	ts.srv.testHookWorker = func(ctx context.Context) { <-ctx.Done() }
	ts.loadAndWait("ds", touch.GenerateUniform(100, 71), 16)

	status, body := ts.postJSON("/v1/datasets/ds/query", api.QueryRequest{Type: "point", Point: []float64{1, 1, 1}})
	if status != http.StatusServiceUnavailable || errCode(t, body) != api.CodeTimeout {
		t.Fatalf("timeout: %d %s", status, body)
	}
	// The slot frees with the response, with nothing to unblock: only the
	// handler's own return races the client here, so a short poll is all
	// the slack needed.
	deadline := time.Now().Add(2 * time.Second)
	for ts.srv.met.inFlight.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("slot still held after timeout response, in-flight = %d", ts.srv.met.inFlight.Load())
		}
		time.Sleep(time.Millisecond)
	}
	_, metricsBody := ts.do(http.MethodGet, "/metrics", "", nil)
	if !strings.Contains(string(metricsBody), `touchserved_rejects_total{reason="timeout"} 1`) {
		t.Fatalf("metrics missing timeout reject: %s", metricsBody)
	}
}

// TestJoinTimeoutCancelsEngine: a join that outlives its budget is
// canceled inside the engine (ErrJoinCanceled surfaces as the same 503
// timeout) and the slot frees with the response.
func TestJoinTimeoutCancelsEngine(t *testing.T) {
	ts := newTestServer(t, Config{RequestTimeout: 20 * time.Millisecond})
	ts.srv.testHookWorker = func(ctx context.Context) { <-ctx.Done() }
	ts.loadAndWait("ds", touch.GenerateUniform(200, 72).Expand(5), 16)

	status, body := ts.postJSON("/v1/datasets/ds/join",
		api.JoinRequest{Boxes: boxRows(touch.GenerateUniform(300, 73))})
	if status != http.StatusServiceUnavailable || errCode(t, body) != api.CodeTimeout {
		t.Fatalf("join timeout: %d %s", status, body)
	}
	deadline := time.Now().Add(2 * time.Second)
	for ts.srv.met.inFlight.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("slot still held after join timeout, in-flight = %d", ts.srv.met.inFlight.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGracefulDrain: after BeginShutdown, in-flight requests complete
// while new ones — and healthz, so load balancers rotate the instance
// out — get 503 {"code":"draining"}.
func TestGracefulDrain(t *testing.T) {
	gate := make(chan struct{})
	ts := newTestServer(t, Config{})
	ts.srv.testHookWorker = func(context.Context) { <-gate }
	ts.loadAndWait("ds", touch.GenerateUniform(100, 81), 16)

	inFlight := make(chan int, 1)
	go func() {
		status, _ := ts.postJSON("/v1/datasets/ds/query", api.QueryRequest{Type: "point", Point: []float64{1, 1, 1}})
		inFlight <- status
	}()
	deadline := time.Now().Add(5 * time.Second)
	for ts.srv.met.inFlight.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("request never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	ts.srv.BeginShutdown()

	status, body := ts.postJSON("/v1/datasets/ds/query", api.QueryRequest{Type: "point", Point: []float64{2, 2, 2}})
	if status != http.StatusServiceUnavailable || errCode(t, body) != api.CodeDraining {
		t.Fatalf("query while draining: %d %s", status, body)
	}
	status, body = ts.do(http.MethodGet, "/healthz", "", nil)
	if status != http.StatusServiceUnavailable || !strings.Contains(string(body), "draining") {
		t.Fatalf("healthz while draining: %d %s", status, body)
	}

	close(gate)
	if status := <-inFlight; status != http.StatusOK {
		t.Fatalf("in-flight request during drain finished with %d, want 200", status)
	}
}

// TestHealthzAndMetrics: healthz reports ok + catalog size; /metrics is
// Prometheus text with the advertised families.
func TestHealthzAndMetrics(t *testing.T) {
	ts := newTestServer(t, Config{})
	ts.loadAndWait("m", touch.GenerateUniform(300, 91), 16)
	for i := 0; i < 3; i++ {
		ts.postJSON("/v1/datasets/m/query", api.QueryRequest{Type: "knn", Point: []float64{1, 2, 3}, K: 4})
	}
	ts.postJSON("/v1/datasets/m/join", api.JoinRequest{Boxes: [][]float64{{0, 0, 0, 5, 5, 5}}})
	ts.do(http.MethodGet, "/no/such/route", "", nil) // routing-layer 404

	status, body := ts.do(http.MethodGet, "/healthz", "", nil)
	if status != http.StatusOK || !strings.Contains(string(body), `"status":"ok"`) ||
		!strings.Contains(string(body), `"datasets":1`) {
		t.Fatalf("healthz: %d %s", status, body)
	}

	status, body = ts.do(http.MethodGet, "/metrics", "", nil)
	if status != http.StatusOK {
		t.Fatal(status)
	}
	text := string(body)
	for _, want := range []string{
		`touchserved_requests_total{class="query"} 3`,
		`touchserved_requests_total{class="join"} 1`,
		`touchserved_requests_total{class="load"} 1`,
		`touchserved_requests_total{class="other"} 1`,
		`touchserved_responses_total{class="other",code="404"} 1`,
		`touchserved_responses_total{class="query",code="200"} 3`,
		`touchserved_request_duration_seconds_count{class="query"} 3`,
		`touchserved_in_flight 0`,
		`touchserved_datasets 1`,
		`touchserved_dataset_static_bytes{dataset="m"}`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}
}

// TestSyncLoad: the programmatic preload path builds before returning.
func TestSyncLoad(t *testing.T) {
	s := New(Config{})
	ds := touch.GenerateUniform(400, 95)
	v, stats := s.Load("pre", ds, touch.TOUCHConfig{Partitions: 16})
	if v != 1 || stats.Objects != len(ds) {
		t.Fatalf("Load returned v=%d stats=%+v", v, stats)
	}
	snap, ok := snapshotOf(s.cat, "pre")
	if !ok || snap == nil || snap.version != 1 {
		t.Fatalf("snapshot after sync load: %v %v", snap, ok)
	}
}
