package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"touch"
	"touch/internal/api"
)

// TestLoadRejectsFanoutOne: config.fanout == 1 would panic inside the
// background build goroutine and kill the process; the boundary must
// reject it with 400 and keep serving.
func TestLoadRejectsFanoutOne(t *testing.T) {
	ts := newTestServer(t, Config{})
	req := loadRequest{Boxes: [][]float64{{0, 0, 0, 1, 1, 1}}}
	req.Config.Fanout = 1
	status, body := ts.postJSON("/v1/datasets/f1", req)
	if status != http.StatusBadRequest || errCode(t, body) != api.CodeBadRequest {
		t.Fatalf("fanout=1 load: %d %s", status, body)
	}
	if status, _ := ts.do(http.MethodGet, "/healthz", "", nil); status != http.StatusOK {
		t.Fatalf("server unhealthy after rejected load: %d", status)
	}
}

// TestJoinWorkersClamped: an absurd request-supplied workers value must
// be clamped rather than allocating per-worker state proportional to it.
func TestJoinWorkersClamped(t *testing.T) {
	ts := newTestServer(t, Config{})
	a := touch.GenerateUniform(300, 121).Expand(5)
	b := touch.GenerateUniform(200, 122)
	ts.loadAndWait("a", a, 16)

	status, body := ts.postJSON("/v1/datasets/a/join",
		api.JoinRequest{Boxes: boxRows(b), Workers: 1 << 30, CountOnly: true})
	if status != http.StatusOK {
		t.Fatalf("clamped join: %d %s", status, body)
	}
}

// goroutineRecorder is a ResponseWriter that counts the writes made on
// the goroutine named caller and those made on any other.
type goroutineRecorder struct {
	*httptest.ResponseRecorder
	caller  string
	on, off atomic.Int64
}

// goroutineID returns the calling goroutine's ID, the number on the
// first line of its stack ("goroutine 42 [running]:").
func goroutineID() string {
	buf := make([]byte, 64)
	return string(bytes.Fields(buf[:runtime.Stack(buf, false)])[1])
}

func (w *goroutineRecorder) note() {
	if goroutineID() == w.caller {
		w.on.Add(1)
	} else {
		w.off.Add(1)
	}
}

func (w *goroutineRecorder) WriteHeader(status int) {
	w.note()
	w.ResponseRecorder.WriteHeader(status)
}

func (w *goroutineRecorder) Write(p []byte) (int, error) {
	w.note()
	return w.ResponseRecorder.Write(p)
}

// TestJoinDefaultWorkers: a join that names no workers runs with the
// server's Config.Workers — single-threaded when that is 0, so the whole
// NDJSON stream is written on the request's goroutine, and on engine
// goroutines, the first pair going out as the engine finds it, when it
// is 4.
func TestJoinDefaultWorkers(t *testing.T) {
	a := touch.GenerateUniform(3000, 151)
	b := touch.GenerateUniform(3000, 152)
	body, err := json.Marshal(api.JoinRequest{Boxes: boxRows(b), Eps: 20})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 4} {
		s := New(Config{Workers: workers})
		s.Load("a", a, touch.TOUCHConfig{})
		req := httptest.NewRequest(http.MethodPost, "/v1/datasets/a/join", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("Accept", api.NDJSONContentType)
		w := &goroutineRecorder{ResponseRecorder: httptest.NewRecorder(), caller: goroutineID()}
		s.ServeHTTP(w, req)
		if w.Code != http.StatusOK || bytes.Count(w.Body.Bytes(), []byte("\n")) < 100 {
			t.Fatalf("workers %d: status %d, %d bytes", workers, w.Code, w.Body.Len())
		}
		if workers == 0 && w.off.Load() != 0 {
			t.Errorf("Config.Workers 0: %d of %d writes off the request's goroutine", w.off.Load(), w.on.Load()+w.off.Load())
		}
		if workers == 4 && w.off.Load() == 0 {
			t.Errorf("Config.Workers 4: all %d writes on the request's goroutine", w.on.Load())
		}
	}
}

// TestLoadIgnoresConfigWorkers: a load body that still carries the
// retired config.workers field is accepted and builds the same tree as
// one without it.
func TestLoadIgnoresConfigWorkers(t *testing.T) {
	ts := newTestServer(t, Config{})
	a := touch.GenerateUniform(500, 161)
	b := touch.GenerateUniform(300, 162)
	ts.loadAndWait("plain", a, 32)
	status, body := ts.postJSON("/v1/datasets/workers", map[string]any{
		"boxes":  boxRows(a),
		"config": map[string]int{"partitions": 32, "workers": 4},
	})
	if status != http.StatusAccepted {
		t.Fatalf("load with config.workers: %d %s", status, body)
	}
	ts.waitServing("workers", 1)

	plain, withWorkers := ts.datasetInfo("plain"), ts.datasetInfo("workers")
	if plain.Objects != withWorkers.Objects || plain.StaticBytes != withWorkers.StaticBytes ||
		plain.Nodes != withWorkers.Nodes || plain.Height != withWorkers.Height {
		t.Fatalf("trees differ: %+v vs %+v", withWorkers, plain)
	}
	join := func(name string) api.JoinResponse {
		status, body := ts.postJSON("/v1/datasets/"+name+"/join", api.JoinRequest{Boxes: boxRows(b), Eps: 60})
		if status != http.StatusOK {
			t.Fatalf("join %s: %d %s", name, status, body)
		}
		var jr api.JoinResponse
		if err := json.Unmarshal(body, &jr); err != nil {
			t.Fatal(err)
		}
		return jr
	}
	got, want := join("workers"), join("plain")
	if want.Count < 10 || got.Count != want.Count || !slices.Equal(got.Pairs, want.Pairs) {
		t.Fatalf("joins differ: %d pairs vs %d", got.Count, want.Count)
	}
}

// TestBuildBacklogCap: background builds live outside the request-slot
// admission layer; once the backlog cap is reached, further loads are
// rejected with 429 instead of queueing unbounded build goroutines.
func TestBuildBacklogCap(t *testing.T) {
	tokens := make(chan struct{})
	cfg := Config{maxPendingBuilds: 2}
	cfg.build = func(ds touch.Dataset, tc touch.TOUCHConfig) *touch.Index {
		<-tokens
		return touch.BuildIndex(ds, tc)
	}
	ts := newTestServer(t, cfg)

	row := loadRequest{Boxes: [][]float64{{0, 0, 0, 1, 1, 1}}}
	for i, name := range []string{"q1", "q2"} {
		if status, body := ts.postJSON("/v1/datasets/"+name, row); status != http.StatusAccepted {
			t.Fatalf("load %d: %d %s", i, status, body)
		}
	}
	status, body := ts.postJSON("/v1/datasets/q3", row)
	if status != http.StatusTooManyRequests || errCode(t, body) != api.CodeOverload {
		t.Fatalf("backlog overflow: %d %s", status, body)
	}

	// Draining the backlog reopens the door.
	close(tokens)
	ts.waitServing("q1", 1)
	ts.waitServing("q2", 1)
	if status, body := ts.postJSON("/v1/datasets/q3", row); status != http.StatusAccepted {
		t.Fatalf("load after drain: %d %s", status, body)
	}
	ts.waitServing("q3", 1)
}

// TestSupersededBuildsSkipped: when several versions of one name are
// queued, only the newest actually builds — the stale ones are skipped
// without invoking the build function.
func TestSupersededBuildsSkipped(t *testing.T) {
	tokens := make(chan struct{})
	entered := make(chan struct{}, 16)
	builds := make(chan int64, 16)
	ds := touch.GenerateUniform(50, 131)
	c := newCatalog(func(d touch.Dataset, tc touch.TOUCHConfig) *touch.Index {
		entered <- struct{}{}
		<-tokens
		builds <- int64(len(d))
		return touch.BuildIndex(d, tc)
	})

	// v1 must be inside its build (past the superseded check) before the
	// newer versions arrive, so exactly v2 is the superseded one.
	c.load("s", ds[:10], touch.TOUCHConfig{}, false, 0)
	<-entered
	c.load("s", ds[:20], touch.TOUCHConfig{}, false, 0)
	c.load("s", ds[:30], touch.TOUCHConfig{}, false, 0)

	close(tokens)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if snap, _ := snapshotOf(c, "s"); snap != nil && snap.version == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("never converged to version 3")
		}
		time.Sleep(time.Millisecond)
	}
	// Only v1 (already running when v2/v3 arrived) and v3 built; v2 was
	// superseded before its turn and skipped.
	close(builds)
	var sizes []int64
	for s := range builds {
		sizes = append(sizes, s)
	}
	if len(sizes) != 2 || sizes[0] != 10 || sizes[1] != 30 {
		t.Fatalf("built sizes %v, want [10 30] (v2 skipped)", sizes)
	}
	if c.pending.Load() != 0 {
		t.Fatalf("pending counter leaked: %d", c.pending.Load())
	}
}

// TestLocalCellsClamped: a request-supplied local_cells value is capped
// so a join cannot be asked to manage cells³ grid bookkeeping.
func TestLocalCellsClamped(t *testing.T) {
	ts := newTestServer(t, Config{})
	req := loadRequest{Boxes: boxRows(touch.GenerateUniform(50, 151))}
	req.Config.LocalCells = 1 << 30
	status, body := ts.postJSON("/v1/datasets/lc", req)
	if status != http.StatusAccepted {
		t.Fatalf("load: %d %s", status, body)
	}
	ts.waitServing("lc", 1)
	status, body = ts.postJSON("/v1/datasets/lc/join",
		api.JoinRequest{Boxes: [][]float64{{0, 0, 0, 1000, 1000, 1000}}, CountOnly: true})
	if status != http.StatusOK {
		t.Fatalf("join with clamped grid: %d %s", status, body)
	}
}

// TestRetiredMapBounded: a load/delete loop over unique names must not
// grow the retired-version memory without bound.
func TestRetiredMapBounded(t *testing.T) {
	c := newCatalog(nil)
	for i := 0; i < maxRetired+50; i++ {
		name := fmt.Sprintf("tmp-%d", i)
		c.load(name, nil, touch.TOUCHConfig{}, true, 0)
		c.drop(name)
	}
	c.mu.RLock()
	n := len(c.retired)
	c.mu.RUnlock()
	if n > maxRetired {
		t.Fatalf("retired map grew to %d entries (cap %d)", n, maxRetired)
	}
}

// TestJoinResultCap: a join whose pair set exceeds maxJoinPairs is
// rejected with 422 instead of materializing an unbounded response;
// count_only still answers exactly.
func TestJoinResultCap(t *testing.T) {
	ts := newTestServer(t, Config{maxJoinPairs: 10})
	// 20 identical boxes joined against themselves → 400 pairs.
	box := touch.NewBox(touch.Point{0, 0, 0}, touch.Point{10, 10, 10})
	ds := make(touch.Dataset, 20)
	for i := range ds {
		ds[i] = touch.Object{ID: touch.ID(i), Box: box}
	}
	ts.loadAndWait("dense", ds, 4)

	status, body := ts.postJSON("/v1/datasets/dense/join", api.JoinRequest{Boxes: boxRows(ds)})
	if status != http.StatusUnprocessableEntity || errCode(t, body) != api.CodeResultTooLarge {
		t.Fatalf("over-cap join: %d %s", status, body)
	}
	// The abort happened inside the engine (a result limit, not a
	// post-hoc discard) and is counted under its own reject reason.
	if got := ts.srv.met.rejectLimited.Load(); got != 1 {
		t.Fatalf("over-cap join recorded %d limited rejects, want 1", got)
	}
	// count_only is exempt and exact.
	status, body = ts.postJSON("/v1/datasets/dense/join", api.JoinRequest{Boxes: boxRows(ds), CountOnly: true})
	if status != http.StatusOK {
		t.Fatalf("count_only join: %d %s", status, body)
	}
	var jr api.JoinResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatal(err)
	}
	if jr.Count != 400 {
		t.Fatalf("count = %d, want 400", jr.Count)
	}
}

// TestVersionsSurviveDelete: DELETE + re-POST of a name must continue
// its version sequence — responses advertise monotonic versions.
func TestVersionsSurviveDelete(t *testing.T) {
	ts := newTestServer(t, Config{})
	ds := touch.GenerateUniform(60, 141)
	ts.loadAndWait("v", ds, 8)
	ts.loadAndWait("v", ds, 8) // version 2
	if status, _ := ts.do(http.MethodDelete, "/v1/datasets/v", "", nil); status != http.StatusOK {
		t.Fatalf("delete: %d", status)
	}
	if v := ts.loadAndWait("v", ds, 8); v != 3 {
		t.Fatalf("version after delete + re-POST = %d, want 3", v)
	}
}

// TestClientDisconnectIsNotATimeout: a client hanging up mid-request
// cancels the request context, which cancels the computation; the
// server must record that under its own "canceled" reject reason, never
// as a processing-budget timeout (a mass client redeploy would
// otherwise read as the server blowing its budget) — and the admission
// slot frees with the abort, since no computation survives the request.
func TestClientDisconnectIsNotATimeout(t *testing.T) {
	ts := newTestServer(t, Config{})
	// Park the request under its own context: it unblocks the instant
	// the client below hangs up.
	ts.srv.testHookWorker = func(ctx context.Context) { <-ctx.Done() }
	ts.loadAndWait("ds", touch.GenerateUniform(80, 161), 16)

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		ts.hs.URL+"/v1/datasets/ds/query",
		strings.NewReader(`{"type":"point","point":[1,1,1]}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	errc := make(chan error, 1)
	go func() {
		_, err := ts.hs.Client().Do(req)
		errc <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for ts.srv.met.inFlight.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("request never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	cancel() // client hangs up while the request is parked
	if err := <-errc; err == nil {
		t.Fatal("client request should have errored on cancel")
	}

	// The handler observes the cancellation, records the 499 and
	// releases its slot — nothing external to unblock.
	deadline = time.Now().Add(5 * time.Second)
	for ts.srv.met.responses[classQuery][codeIndex(api.StatusClientClosed)].Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("disconnect never recorded as 499")
		}
		time.Sleep(time.Millisecond)
	}
	for ts.srv.met.inFlight.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("slot still held after disconnect, in-flight = %d", ts.srv.met.inFlight.Load())
		}
		time.Sleep(time.Millisecond)
	}
	if got := ts.srv.met.rejectTimeout.Load(); got != 0 {
		t.Fatalf("client disconnect counted as %d timeout rejects", got)
	}
	if got := ts.srv.met.rejectCanceled.Load(); got != 1 {
		t.Fatalf("client disconnect recorded %d canceled rejects, want 1", got)
	}
}

// TestRejectsStayOutOfLatencyHistograms: admission rejects finish in
// microseconds; feeding them into the duration histogram would report a
// healthy p50 during an overload incident.
func TestRejectsStayOutOfLatencyHistograms(t *testing.T) {
	m := newMetrics()
	m.observe(classQuery, http.StatusTooManyRequests, time.Microsecond, false)
	if n := m.duration[classQuery].Count(); n != 0 {
		t.Fatalf("rejected request polluted the duration histogram (count %d)", n)
	}
	m.observe(classQuery, http.StatusOK, time.Millisecond, true)
	if n := m.duration[classQuery].Count(); n != 1 {
		t.Fatalf("admitted request not recorded (count %d)", n)
	}
}
