package server

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	"touch"
	"touch/internal/api"
)

// streamPairs POSTs a join with Accept: application/x-ndjson and returns
// the decoded pair lines plus the trailer count (-1 when the stream was
// truncated without a trailer).
func (ts *testServer) streamPairs(path string, body any) (pairs [][2]touch.ID, trailer int64) {
	ts.t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		ts.t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.hs.URL+path, strings.NewReader(string(buf)))
	if err != nil {
		ts.t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", "application/x-ndjson")
	resp, err := ts.hs.Client().Do(req)
	if err != nil {
		ts.t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		ts.t.Fatalf("streaming join status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != api.NDJSONContentType {
		ts.t.Fatalf("streaming join content type %q", ct)
	}
	trailer = -1
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "{") {
			var tr struct {
				Count int64 `json:"count"`
			}
			if err := json.Unmarshal([]byte(line), &tr); err != nil {
				ts.t.Fatalf("bad trailer %q: %v", line, err)
			}
			trailer = tr.Count
			continue
		}
		var p [2]touch.ID
		if err := json.Unmarshal([]byte(line), &p); err != nil {
			ts.t.Fatalf("bad pair line %q: %v", line, err)
		}
		pairs = append(pairs, p)
	}
	if err := sc.Err(); err != nil {
		ts.t.Fatal(err)
	}
	return pairs, trailer
}

// TestNDJSONStreamDifferential: the concatenated NDJSON pair lines,
// canonically sorted, must be byte-equivalent to the buffered JSON
// answer's pairs array — same join, two wire formats.
func TestNDJSONStreamDifferential(t *testing.T) {
	ts := newTestServer(t, Config{})
	a := touch.GenerateUniform(700, 171).Expand(6)
	b := touch.GenerateUniform(500, 172)
	ts.loadAndWait("a", a, 32)

	for _, eps := range []float64{0, 4} {
		// Buffered answer.
		status, body := ts.postJSON("/v1/datasets/a/join", api.JoinRequest{Boxes: boxRows(b), Eps: eps})
		if status != http.StatusOK {
			t.Fatalf("buffered join: %d %s", status, body)
		}
		var jr api.JoinResponse
		if err := json.Unmarshal(body, &jr); err != nil {
			t.Fatal(err)
		}

		// Streamed answer, canonically sorted after the fact.
		streamed, trailer := ts.streamPairs("/v1/datasets/a/join", api.JoinRequest{Boxes: boxRows(b), Eps: eps})
		if trailer != int64(len(streamed)) {
			t.Fatalf("eps=%g: trailer count %d, streamed %d pairs", eps, trailer, len(streamed))
		}
		slices.SortFunc(streamed, func(x, y [2]touch.ID) int {
			if x[0] != y[0] {
				return int(x[0] - y[0])
			}
			return int(x[1] - y[1])
		})
		got, err := json.Marshal(streamed)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(jr.Pairs)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("eps=%g: streamed pairs diverge from buffered answer\nstream: %.120s\nbuffer: %.120s",
				eps, got, want)
		}
	}
}

// TestNDJSONStreamBypassesResultCap: maxJoinPairs bounds what a buffered
// response may materialize; the streaming mode holds O(1) server memory
// and must deliver the full result set regardless.
func TestNDJSONStreamBypassesResultCap(t *testing.T) {
	ts := newTestServer(t, Config{maxJoinPairs: 10})
	box := touch.NewBox(touch.Point{0, 0, 0}, touch.Point{10, 10, 10})
	ds := make(touch.Dataset, 20)
	for i := range ds {
		ds[i] = touch.Object{ID: touch.ID(i), Box: box}
	}
	ts.loadAndWait("dense", ds, 4)

	if status, body := ts.postJSON("/v1/datasets/dense/join", api.JoinRequest{Boxes: boxRows(ds)}); status != http.StatusUnprocessableEntity {
		t.Fatalf("buffered over-cap join: %d %s", status, body)
	}
	pairs, trailer := ts.streamPairs("/v1/datasets/dense/join", api.JoinRequest{Boxes: boxRows(ds)})
	if len(pairs) != 400 || trailer != 400 {
		t.Fatalf("streamed %d pairs, trailer %d, want 400", len(pairs), trailer)
	}
}

// TestNDJSONEmptyJoinIsA200: a streaming join that finds no pair still
// answers 200 with the NDJSON content type and a zero trailer — the
// status goes out after the join returns instead of with a first pair.
func TestNDJSONEmptyJoinIsA200(t *testing.T) {
	ts := newTestServer(t, Config{})
	ts.loadAndWait("ds", touch.GenerateUniform(50, 201), 8)
	far := [][]float64{{5000, 5000, 5000, 5001, 5001, 5001}}
	if pairs, trailer := ts.streamPairs("/v1/datasets/ds/join", api.JoinRequest{Boxes: far}); len(pairs) != 0 || trailer != 0 {
		t.Fatalf("empty streaming join: %d pairs, trailer %d, want 0 and 0", len(pairs), trailer)
	}
}

// TestNDJSONCountOnlyStaysBuffered: count_only is a buffered answer even
// when the client advertises NDJSON (there is nothing to stream).
func TestNDJSONCountOnlyStaysBuffered(t *testing.T) {
	ts := newTestServer(t, Config{})
	ds := touch.GenerateUniform(60, 181)
	ts.loadAndWait("c", ds, 8)
	req, err := json.Marshal(api.JoinRequest{Boxes: boxRows(ds), CountOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	hreq, _ := http.NewRequest(http.MethodPost, ts.hs.URL+"/v1/datasets/c/join", strings.NewReader(string(req)))
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set("Accept", "application/x-ndjson")
	resp, err := ts.hs.Client().Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("count_only content type %q, want application/json", ct)
	}
}

// TestWantsNDJSON: the streaming mode triggers on a proper media-type
// token, not a substring, and an explicit q=0 refusal keeps the
// buffered path.
func TestWantsNDJSON(t *testing.T) {
	cases := []struct {
		accept string
		want   bool
	}{
		{"application/x-ndjson", true},
		{"application/json, application/x-ndjson", true},
		{"application/x-ndjson;q=0.8", true},
		{" application/x-ndjson ; q=1", true},
		{"", false},
		{"application/json", false},
		{"application/x-ndjson;q=0", false},
		{"application/json, application/x-ndjson;q=0", false},
		{"application/x-ndjson-extended", false},
	}
	for _, tc := range cases {
		if got := api.WantsNDJSON(tc.accept); got != tc.want {
			t.Errorf("api.WantsNDJSON(%q) = %v, want %v", tc.accept, got, tc.want)
		}
	}
}

// TestNDJSONExpiredBudgetIsNotA200: a streaming join whose budget is
// already gone before the first byte goes out must answer the same 503
// timeout as the buffered path — never an empty, trailer-less 200.
func TestNDJSONExpiredBudgetIsNotA200(t *testing.T) {
	ts := newTestServer(t, Config{RequestTimeout: 20 * time.Millisecond})
	ts.srv.testHookWorker = func(ctx context.Context) { <-ctx.Done() }
	ts.loadAndWait("ds", touch.GenerateUniform(50, 191), 8)

	buf, _ := json.Marshal(api.JoinRequest{Boxes: boxRows(touch.GenerateUniform(30, 192))})
	req, err := http.NewRequest(http.MethodPost, ts.hs.URL+"/v1/datasets/ds/join", strings.NewReader(string(buf)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", "application/x-ndjson")
	resp, err := ts.hs.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("expired streaming join answered %d, want 503", resp.StatusCode)
	}
}

// TestNDJSONDisconnectCancelsStream: a client that walks away mid-stream
// cancels the engine; the abort lands in the canceled reject counter and
// the slot frees.
func TestNDJSONDisconnectCancelsStream(t *testing.T) {
	ts := newTestServer(t, Config{})
	// Identical boxes: a 1500×1500 all-pairs join streams 2.25M lines —
	// hundreds of milliseconds of formatting alone — so the disconnect
	// below lands mid-stream with a wide margin.
	box := touch.NewBox(touch.Point{0, 0, 0}, touch.Point{10, 10, 10})
	ds := make(touch.Dataset, 1500)
	for i := range ds {
		ds[i] = touch.Object{ID: touch.ID(i), Box: box}
	}
	ts.loadAndWait("dense", ds, 16)

	buf, _ := json.Marshal(api.JoinRequest{Boxes: boxRows(ds)})
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		ts.hs.URL+"/v1/datasets/dense/join", strings.NewReader(string(buf)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", "application/x-ndjson")
	resp, err := ts.hs.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read one line of the stream, then hang up.
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatal(err)
	}
	cancel()
	resp.Body.Close()

	deadline := time.Now().Add(5 * time.Second)
	for ts.srv.met.rejectCanceled.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("mid-stream disconnect never recorded as a canceled reject")
		}
		time.Sleep(time.Millisecond)
	}
	for ts.srv.met.inFlight.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("slot still held after stream disconnect, in-flight = %d", ts.srv.met.inFlight.Load())
		}
		time.Sleep(time.Millisecond)
	}
}
