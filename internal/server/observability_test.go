package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"touch"
	"touch/client"
	"touch/internal/api"
	"touch/internal/promtext"
)

// doHeaders is ts.do plus request headers in and response headers out —
// the tracing tests need X-Touch-Trace on the way in and
// X-Touch-Request-Id on the way back.
func (ts *testServer) doHeaders(method, path string, body any, hdr map[string]string) (int, []byte, http.Header) {
	ts.t.Helper()
	var rd io.Reader
	if body != nil {
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
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
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
	return resp.StatusCode, out, resp.Header
}

// tracedJoin posts a join with X-Touch-Trace armed and decodes the
// response, failing unless a trace came back.
func (ts *testServer) tracedJoin(name string, req api.JoinRequest) (api.JoinResponse, http.Header) {
	ts.t.Helper()
	status, raw, hdr := ts.doHeaders(http.MethodPost, "/v1/datasets/"+name+"/join", req,
		map[string]string{api.TraceHeader: "1"})
	if status != http.StatusOK {
		ts.t.Fatalf("traced join: status %d: %s", status, raw)
	}
	var resp api.JoinResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		ts.t.Fatal(err)
	}
	if resp.Trace == nil {
		ts.t.Fatalf("X-Touch-Trace set but no trace in response: %s", raw)
	}
	return resp, hdr
}

// scrape fetches /metrics and parses it strictly.
func (ts *testServer) scrape() *promtext.Metrics {
	ts.t.Helper()
	status, raw := ts.do(http.MethodGet, "/metrics", "", nil)
	if status != http.StatusOK {
		ts.t.Fatalf("/metrics: status %d", status)
	}
	m, err := promtext.Parse(bytes.NewReader(raw))
	if err != nil {
		ts.t.Fatalf("/metrics is not valid Prometheus text: %v\n%s", err, raw)
	}
	return m
}

// TestMetricsScrapeWellFormed drives mixed HTTP and wire traffic, then
// holds /metrics to what a real Prometheus ingester enforces: parseable,
// no duplicate or interleaved families, histogram buckets cumulative
// with a +Inf bucket equal to _count. The per-dataset engine counters
// must reflect the traffic.
func TestMetricsScrapeWellFormed(t *testing.T) {
	ts := newTestServer(t, Config{SlowQueryThreshold: time.Nanosecond})
	ds := touch.GenerateUniform(400, 7)
	ts.srv.Load("m", ds, touch.TOUCHConfig{})
	probe := touch.GenerateUniform(60, 8)
	ts.srv.Load("p", probe, touch.TOUCHConfig{})

	// HTTP: queries, a join, and a reject, so the conditional families
	// (responses, rejects, duration histograms, dataset counters) populate.
	ts.postJSON("/v1/datasets/m/query", api.QueryRequest{Type: "range", Box: []float64{0, 0, 0, 500, 500, 500}})
	ts.postJSON("/v1/datasets/m/query", api.QueryRequest{Type: "knn", Point: []float64{1, 2, 3}, K: 5})
	ts.postJSON("/v1/datasets/m/join", api.JoinRequest{Probe: "p", Eps: 3, CountOnly: true})
	ts.postJSON("/v1/datasets/nosuch/query", api.QueryRequest{Type: "point", Point: []float64{0, 0, 0}})

	// Wire: one query and one join through the binary listener.
	addr := ts.startWire()
	c := ts.dialWire(addr)
	ctx := context.Background()
	if _, _, err := c.Range(ctx, "m", touch.Box{Max: touch.Point{100, 100, 100}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.JoinCount(ctx, "m", client.JoinSpec{Probe: "p", Eps: 3}); err != nil {
		t.Fatal(err)
	}

	m := ts.scrape()

	for fam, typ := range map[string]string{
		"touchserved_request_duration_seconds":  "histogram",
		"touchserved_phase_duration_seconds":    "histogram",
		"touchserved_wire_pipeline_depth":       "histogram",
		"touchserved_requests_total":            "counter",
		"touchserved_dataset_comparisons_total": "counter",
	} {
		f := m.Families[fam]
		if f == nil {
			t.Fatalf("family %s missing from scrape", fam)
		}
		if f.Type != typ {
			t.Fatalf("family %s: type %s, want %s", fam, f.Type, typ)
		}
	}

	// The engine work above must have been attributed to dataset "m".
	var cmp float64
	for _, s := range m.Families["touchserved_dataset_comparisons_total"].Samples {
		if s.Label("dataset") == "m" {
			cmp = s.Value
		}
	}
	if cmp <= 0 {
		t.Fatalf("dataset comparisons for %q not attributed: %v",
			"m", m.Families["touchserved_dataset_comparisons_total"].Samples)
	}
	// The joins spent time in the engine's join phase.
	var joinCount float64
	for _, s := range m.Families["touchserved_phase_duration_seconds"].Samples {
		if s.Name == "touchserved_phase_duration_seconds_count" && s.Label("phase") == "join" {
			joinCount = s.Value
		}
	}
	if joinCount <= 0 {
		t.Fatal("phase_duration_seconds{phase=\"join\"} saw no observations after two joins")
	}
}

// TestHTTPDataPlaneKeepsItsMetricClasses: HTTP queries, joins and
// updates run on the wire listener's executor, yet count under their own
// classes and move none of the touchserved_wire_* series.
func TestHTTPDataPlaneKeepsItsMetricClasses(t *testing.T) {
	ts := newTestServer(t, Config{})
	ts.srv.Load("m", touch.GenerateUniform(200, 9), touch.TOUCHConfig{})
	ts.postJSON("/v1/datasets/m/query", api.QueryRequest{Type: "range", Box: []float64{0, 0, 0, 500, 500, 500}})
	ts.postJSON("/v1/datasets/m/join", api.JoinRequest{Probe: "m", Eps: 1})
	ts.do(http.MethodPatch, "/v1/datasets/m", "application/json", api.UpdateRequest{Delete: []touch.ID{1}})

	m := ts.scrape()
	for _, s := range m.Families["touchserved_requests_total"].Samples {
		want := map[string]float64{"query": 1, "join": 1, "update": 1}[s.Label("class")]
		if s.Value != want {
			t.Errorf("requests_total{class=%q} = %v, want %v", s.Label("class"), s.Value, want)
		}
	}
	for fam, f := range m.Families {
		for _, s := range f.Samples {
			if strings.HasPrefix(fam, "touchserved_wire_") && s.Value != 0 {
				t.Errorf("HTTP traffic moved %s%v to %v", s.Name, s.Labels, s.Value)
			}
		}
	}
}

// readmeFamilies extracts every touchserved_* family named in the
// README's metrics table.
func readmeFamilies(t *testing.T) map[string]bool {
	t.Helper()
	raw, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	re := regexp.MustCompile("(?m)^\\| `(touchserved_[a-z_]+)` \\|")
	out := make(map[string]bool)
	for _, match := range re.FindAllStringSubmatch(string(raw), -1) {
		out[match[1]] = true
	}
	if len(out) == 0 {
		t.Fatal("no metrics table found in README.md")
	}
	return out
}

// TestMetricsFamiliesMatchREADME diffs the README metrics table against
// a live scrape, both ways: a family the server emits but the table
// omits is doc drift; a family the table names but the server no longer
// emits is a stale promise. Every # TYPE header renders unconditionally,
// so a fresh server with no traffic already exposes the full inventory.
func TestMetricsFamiliesMatchREADME(t *testing.T) {
	documented := readmeFamilies(t)
	ts := newTestServer(t, Config{})
	m := ts.scrape()

	for fam := range m.Families {
		if !strings.HasPrefix(fam, "touchserved_") {
			continue
		}
		if !documented[fam] {
			t.Errorf("family %s is served by /metrics but missing from the README metrics table", fam)
		}
	}
	for fam := range documented {
		if m.Families[fam] == nil {
			t.Errorf("family %s is documented in README but not served by /metrics", fam)
		}
	}
}

// TestTracedJoinMatchesStatsAndLibrary pins the trace to ground truth:
// the span's counters and the response's count must equal what a direct
// in-process Index run of the identical join reports.
func TestTracedJoinMatchesStatsAndLibrary(t *testing.T) {
	ds := touch.GenerateUniform(600, 11)
	probe := touch.GenerateUniform(150, 12)
	ts := newTestServer(t, Config{})
	ts.srv.Load("cells", ds, touch.TOUCHConfig{})
	ts.srv.Load("probe", probe, touch.TOUCHConfig{})

	resp, hdr := ts.tracedJoin("cells", api.JoinRequest{Probe: "probe", Eps: 3, Workers: 1, CountOnly: true})
	tr := resp.Trace
	if tr.RequestID == "" {
		t.Fatal("trace without a request ID")
	}
	if got := hdr.Get(api.RequestIDHeader); got != tr.RequestID {
		t.Fatalf("%s header %q != trace request_id %q", api.RequestIDHeader, got, tr.RequestID)
	}
	if tr.Results != resp.Count {
		t.Fatalf("trace results %d != join count %d", tr.Results, resp.Count)
	}
	if tr.Cancel != "none" {
		t.Fatalf("completed join reports cancel %q", tr.Cancel)
	}
	if tr.PhaseNs["join"] <= 0 {
		t.Fatalf("join trace without join-phase time: %v", tr.PhaseNs)
	}

	// Ground truth: the same join straight through the library.
	ix := touch.BuildIndex(ds, touch.TOUCHConfig{})
	var sp touch.Span
	res, err := ix.Join(context.Background(), probe, &touch.Options{Workers: 1, NoPairs: true, Trace: &sp, Eps: 3})
	if err != nil {
		t.Fatal(err)
	}
	if sp.Comparisons != tr.Comparisons || sp.NodeTests != tr.NodeTests ||
		sp.Filtered != tr.Filtered || sp.Replicas != tr.Replicas {
		t.Fatalf("served trace %+v disagrees with direct library span %+v", tr, sp)
	}
	if res.Stats.Results != resp.Count {
		t.Fatalf("served count %d != library count %d", resp.Count, res.Stats.Results)
	}

	// Without the header the response must not grow a trace field.
	status, raw := ts.postJSON("/v1/datasets/cells/join", api.JoinRequest{Probe: "probe", Eps: 3, CountOnly: true})
	if status != http.StatusOK {
		t.Fatalf("untraced join: status %d", status)
	}
	if bytes.Contains(raw, []byte(`"trace"`)) {
		t.Fatalf("untraced response carries a trace field: %s", raw)
	}
}

// TestTraceParityHTTPVsWire runs the same traced requests over HTTP and
// the binary protocol; the engine counters must be identical — the two
// transports observe one engine, not two approximations of it.
func TestTraceParityHTTPVsWire(t *testing.T) {
	ds := touch.GenerateUniform(500, 21)
	probe := touch.GenerateUniform(120, 22)
	ts := newTestServer(t, Config{})
	ts.srv.Load("cells", ds, touch.TOUCHConfig{})
	ts.srv.Load("probe", probe, touch.TOUCHConfig{})
	c := ts.dialWire(ts.startWire())
	ctx := context.Background()

	// Range query both ways.
	box := touch.Box{Min: touch.Point{10, 10, 10}, Max: touch.Point{400, 400, 400}}
	status, raw, _ := ts.doHeaders(http.MethodPost, "/v1/datasets/cells/query",
		api.QueryRequest{Type: "range", Box: []float64{10, 10, 10, 400, 400, 400}},
		map[string]string{api.TraceHeader: "1"})
	if status != http.StatusOK {
		t.Fatalf("traced http range: status %d: %s", status, raw)
	}
	var qresp api.QueryResponse
	if err := json.Unmarshal(raw, &qresp); err != nil {
		t.Fatal(err)
	}
	if qresp.Trace == nil {
		t.Fatal("traced http range came back without a trace")
	}
	_, wids, wtr, err := c.RangeTraced(ctx, "cells", box)
	if err != nil {
		t.Fatal(err)
	}
	if wtr == nil {
		t.Fatal("traced wire range came back without a trace")
	}
	if len(wids) != qresp.Count {
		t.Fatalf("wire range answered %d ids, http %d", len(wids), qresp.Count)
	}
	ht := qresp.Trace
	if wtr.Comparisons != ht.Comparisons || wtr.NodeTests != ht.NodeTests ||
		wtr.Filtered != ht.Filtered || wtr.Results != ht.Results || wtr.Replicas != ht.Replicas {
		t.Fatalf("range counters differ across transports: wire %+v, http %+v", wtr, ht)
	}
	if wtr.RequestID == "" || wtr.RequestID == ht.RequestID {
		t.Fatalf("request IDs not distinct per request: wire %q, http %q", wtr.RequestID, ht.RequestID)
	}

	// Named count-only join both ways, single worker for determinism.
	jresp, _ := ts.tracedJoin("cells", api.JoinRequest{Probe: "probe", Eps: 3, Workers: 1, CountOnly: true})
	_, wcount, jtr, err := c.JoinCountTraced(ctx, "cells", client.JoinSpec{Probe: "probe", Eps: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if jtr == nil {
		t.Fatal("traced wire join came back without a trace")
	}
	if wcount != jresp.Count {
		t.Fatalf("wire join count %d, http %d", wcount, jresp.Count)
	}
	hj := jresp.Trace
	if jtr.Comparisons != hj.Comparisons || jtr.NodeTests != hj.NodeTests ||
		jtr.Filtered != hj.Filtered || jtr.Results != hj.Results || jtr.Replicas != hj.Replicas {
		t.Fatalf("join counters differ across transports: wire %+v, http %+v", jtr, hj)
	}
	if jtr.PhaseNs["join"] <= 0 || hj.PhaseNs["join"] <= 0 {
		t.Fatalf("join-phase time missing: wire %v, http %v", jtr.PhaseNs, hj.PhaseNs)
	}
}

// TestTracePhaseSpansCoverLatency holds the span to its accounting
// promise on a join-dominated request, structurally: every phase a
// buffered HTTP join passes through is present and non-zero, and the
// phases nest inside the server's own total for the request (the slow
// log's duration), which nests inside the client's wall clock. How large
// a share the phases cover depends on how fast the join is next to the
// fixed transport cost, so no ratio is asserted.
func TestTracePhaseSpansCoverLatency(t *testing.T) {
	ds := touch.GenerateUniform(4000, 31)
	probe := touch.GenerateUniform(4000, 32)
	// Any admitted request beats a 1ns threshold, so the join lands in
	// the slow log with its final span and the server-side duration.
	ts := newTestServer(t, Config{SlowQueryThreshold: time.Nanosecond})
	ts.srv.Load("big", ds, touch.TOUCHConfig{})
	ts.srv.Load("bigprobe", probe, touch.TOUCHConfig{})

	start := time.Now()
	resp, _ := ts.tracedJoin("big", api.JoinRequest{Probe: "bigprobe", Eps: 4, Workers: 1, CountOnly: true})
	wall := time.Since(start)

	status, raw := ts.do(http.MethodGet, "/debug/slowlog", "", nil)
	if status != http.StatusOK {
		t.Fatalf("/debug/slowlog: status %d: %s", status, raw)
	}
	var slow struct {
		Entries []slowEntryJSON `json:"entries"`
	}
	if err := json.Unmarshal(raw, &slow); err != nil {
		t.Fatal(err)
	}
	i := slices.IndexFunc(slow.Entries, func(e slowEntryJSON) bool { return e.ID == resp.Trace.RequestID })
	if i < 0 {
		t.Fatalf("request %s not in slow log: %s", resp.Trace.RequestID, raw)
	}
	entry := slow.Entries[i]

	for _, phase := range []string{"admission", "decode", "assign", "join"} {
		if entry.PhaseNs[phase] <= 0 {
			t.Errorf("phase %q missing from the span: %v", phase, entry.PhaseNs)
		}
	}
	var sum int64
	for _, ns := range entry.PhaseNs {
		sum += ns
	}
	wallMs := float64(wall) / 1e6
	if sumMs := float64(sum) / 1e6; sumMs > entry.DurationMs {
		t.Errorf("phase sum %.6f ms exceeds the server's total %.6f ms", sumMs, entry.DurationMs)
	}
	if entry.DurationMs > wallMs {
		t.Errorf("server total %.6f ms exceeds client wall %.6f ms", entry.DurationMs, wallMs)
	}
}

// TestVersionAndSlowlogEndpoints covers the forensic surface: /version
// shape, slow-query ring capture and its JSON/debug forms, and the 404
// when the log is disabled.
func TestVersionAndSlowlogEndpoints(t *testing.T) {
	ts := newTestServer(t, Config{SlowQueryThreshold: time.Nanosecond})
	ds := touch.GenerateUniform(200, 41)
	ts.srv.Load("m", ds, touch.TOUCHConfig{})

	status, raw := ts.do(http.MethodGet, "/version", "", nil)
	if status != http.StatusOK {
		t.Fatalf("/version: status %d: %s", status, raw)
	}
	var v struct {
		Version   string `json:"version"`
		GoVersion string `json:"go_version"`
	}
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatal(err)
	}
	if v.GoVersion == "" || v.Version == "" {
		t.Fatalf("/version missing fields: %s", raw)
	}

	// Any admitted request beats a 1ns threshold, so this query lands in
	// the ring with its span attached.
	status, _, hdr := ts.doHeaders(http.MethodPost, "/v1/datasets/m/query",
		api.QueryRequest{Type: "range", Box: []float64{0, 0, 0, 100, 100, 100}}, nil)
	if status != http.StatusOK {
		t.Fatalf("query: status %d", status)
	}
	reqID := hdr.Get(api.RequestIDHeader)
	if reqID == "" {
		t.Fatalf("admitted response without %s header", api.RequestIDHeader)
	}

	status, raw = ts.do(http.MethodGet, "/debug/slowlog", "", nil)
	if status != http.StatusOK {
		t.Fatalf("/debug/slowlog: status %d: %s", status, raw)
	}
	var slow struct {
		ThresholdMs float64         `json:"threshold_ms"`
		Recorded    int64           `json:"recorded"`
		Entries     []slowEntryJSON `json:"entries"`
	}
	if err := json.Unmarshal(raw, &slow); err != nil {
		t.Fatal(err)
	}
	if slow.Recorded < 1 || len(slow.Entries) == 0 {
		t.Fatalf("slow log empty after an over-threshold request: %s", raw)
	}
	found := false
	for _, e := range slow.Entries {
		if e.ID == reqID {
			found = true
			if e.Class != "query" || e.Status != http.StatusOK || e.DurationMs <= 0 {
				t.Fatalf("slow entry for %s malformed: %+v", reqID, e)
			}
		}
	}
	if !found {
		t.Fatalf("request %s not in slow log: %s", reqID, raw)
	}
	// The raw entry keeps every key it has always had, and its span's
	// request_id is the entry's own id.
	var rawSlow struct {
		Entries []map[string]json.RawMessage `json:"entries"`
	}
	if err := json.Unmarshal(raw, &rawSlow); err != nil {
		t.Fatal(err)
	}
	for _, e := range rawSlow.Entries {
		for _, key := range []string{"id", "class", "status", "duration_ms", "at", "phase_ns",
			"comparisons", "node_tests", "filtered", "results", "replicas", "cancel", "request_id"} {
			if _, ok := e[key]; !ok {
				t.Errorf("slow entry without %q: %v", key, e)
			}
		}
		if string(e["request_id"]) != string(e["id"]) {
			t.Errorf("slow entry request_id %s, id %s", e["request_id"], e["id"])
		}
	}

	var dump bytes.Buffer
	if n := ts.srv.DumpSlowLog(&dump); n == 0 || !strings.Contains(dump.String(), "slowlog:") {
		t.Fatalf("DumpSlowLog wrote %d entries: %q", n, dump.String())
	}

	// Disabled log: the endpoint must say so, not answer an empty ring.
	off := newTestServer(t, Config{})
	status, raw = off.do(http.MethodGet, "/debug/slowlog", "", nil)
	if status != http.StatusNotFound {
		t.Fatalf("/debug/slowlog with log disabled: status %d: %s", status, raw)
	}
	var disabled bytes.Buffer
	if n := off.srv.DumpSlowLog(&disabled); n != 0 || !strings.Contains(disabled.String(), "disabled") {
		t.Fatalf("disabled DumpSlowLog: %d entries, %q", n, disabled.String())
	}
}
