package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"touch"
	"touch/internal/api"
	snapstore "touch/internal/snapshot"
)

// listDatasets fetches and decodes GET /v1/datasets.
func (ts *testServer) listDatasets() []datasetInfo {
	ts.t.Helper()
	status, body := ts.do(http.MethodGet, "/v1/datasets", "", nil)
	if status != http.StatusOK {
		ts.t.Fatalf("list: status %d: %s", status, body)
	}
	var out struct {
		Datasets []datasetInfo `json:"datasets"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		ts.t.Fatal(err)
	}
	return out.Datasets
}

func (ts *testServer) datasetInfo(name string) datasetInfo {
	ts.t.Helper()
	for _, d := range ts.listDatasets() {
		if d.Name == name {
			return d
		}
	}
	ts.t.Fatalf("dataset %s not in listing", name)
	return datasetInfo{}
}

// rangeIDs runs one range query over HTTP and returns the IDs.
func (ts *testServer) rangeIDs(name string, box []float64) []touch.ID {
	ts.t.Helper()
	status, body := ts.postJSON("/v1/datasets/"+name+"/query", api.QueryRequest{Type: "range", Box: box})
	if status != http.StatusOK {
		ts.t.Fatalf("range on %s: status %d: %s", name, status, body)
	}
	var qr api.QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		ts.t.Fatal(err)
	}
	return qr.IDs
}

// recover runs Server.Recover, failing the test on error.
func (ts *testServer) recover() RecoveryStats {
	ts.t.Helper()
	stats, err := ts.srv.Recover()
	if err != nil {
		ts.t.Fatalf("Recover: %v", err)
	}
	return stats
}

// countingBuild wraps touch.BuildIndex and counts invocations — the
// "no rebuild on recovery" witness.
func countingBuild(n *int) buildFunc {
	return func(ds touch.Dataset, cfg touch.TOUCHConfig) *touch.Index {
		*n++
		return touch.BuildIndex(ds, cfg)
	}
}

func TestPersistAndRecoverServesIdentically(t *testing.T) {
	dir := t.TempDir()
	a := newTestServer(t, Config{DataDir: dir})
	dsA := touch.GenerateClustered(2000, 3)
	dsB := touch.GenerateUniform(800, 4)
	a.loadAndWait("alpha", dsA, 64)
	a.loadAndWait("beta", dsB, 32)

	info := a.datasetInfo("alpha")
	if !info.Persisted || info.SnapshotBytes <= 0 {
		t.Fatalf("alpha not persisted: %+v", info)
	}
	if n := a.srv.SnapshotErrors(); n != 0 {
		t.Fatalf("%d snapshot errors on the happy path", n)
	}
	probe := []float64{0, 0, 0, 400, 400, 400}
	wantA := a.rangeIDs("alpha", probe)
	wantB := a.rangeIDs("beta", probe)

	// "Restart": a fresh server over the same directory, with a build
	// counter proving recovery never rebuilds.
	builds := 0
	b := newTestServer(t, Config{DataDir: dir, build: countingBuild(&builds)})
	stats := b.recover()
	if stats.Loaded != 2 || stats.Quarantined != 0 {
		t.Fatalf("recovery stats %+v", stats)
	}
	if builds != 0 {
		t.Fatalf("recovery ran %d builds", builds)
	}
	for name, wantVersion := range map[string]int64{"alpha": 1, "beta": 1} {
		if info := b.datasetInfo(name); info.Version != wantVersion || info.Status != "ready" || !info.Persisted {
			t.Fatalf("recovered %s: %+v", name, info)
		}
	}
	if gotA := b.rangeIDs("alpha", probe); !equalIDs(gotA, wantA) {
		t.Fatalf("alpha answers differ after restart: %d vs %d ids", len(gotA), len(wantA))
	}
	if gotB := b.rangeIDs("beta", probe); !equalIDs(gotB, wantB) {
		t.Fatalf("beta answers differ after restart: %d vs %d ids", len(gotB), len(wantB))
	}

	// Metrics surface the snapshot health.
	status, body := b.do(http.MethodGet, "/metrics", "", nil)
	if status != http.StatusOK {
		t.Fatalf("metrics: %d", status)
	}
	for _, want := range []string{
		"touchserved_snapshot_errors_total 0",
		`touchserved_dataset_persisted{dataset="alpha"} 1`,
		`touchserved_snapshot_bytes{dataset="alpha"}`,
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
}

func equalIDs(a, b []touch.ID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestVersionCountersSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	a := newTestServer(t, Config{DataDir: dir})
	ds := touch.GenerateUniform(300, 1)
	a.loadAndWait("ds", ds, 16)
	if v := a.loadAndWait("ds", ds, 16); v != 2 {
		t.Fatalf("second load got v%d", v)
	}

	b := newTestServer(t, Config{DataDir: dir})
	b.recover()
	if info := b.datasetInfo("ds"); info.Version != 2 {
		t.Fatalf("recovered version %d, want 2", info.Version)
	}
	// No version reuse after reload: the next POST continues at 3.
	if v := b.loadAndWait("ds", ds, 16); v != 3 {
		t.Fatalf("post-restart load got v%d, want 3", v)
	}
}

// TestDeleteThenRestartDoesNotResurrect also replays, in its losing
// order, a PATCH that resolved its entry a moment before the DELETE
// removed it: the test holds the entry as that request would and, after
// the DELETE, drives the update step and an already-armed fold through
// it. Neither may reserve retired+1 — that version would pass the
// persister's staleness guard and the restart would serve the dataset.
func TestDeleteThenRestartDoesNotResurrect(t *testing.T) {
	dir := t.TempDir()
	a := newTestServer(t, Config{DataDir: dir, CompactThreshold: 8})
	ds := touch.GenerateUniform(200, 9)
	a.loadAndWait("doomed", ds, 16)
	a.loadAndWait("doomed", ds, 16) // counter at 2
	held := a.srv.cat.entryFor("doomed")
	if _, st := a.srv.cat.updateEntry(held, uniformBoxes(4, 10), nil); st != updOK {
		t.Fatalf("update under the threshold: status %d", st)
	}
	if status, body := a.do(http.MethodDelete, "/v1/datasets/doomed", "", nil); status != http.StatusOK {
		t.Fatalf("delete: %d: %s", status, body)
	}
	if res, st := a.srv.cat.updateEntry(held, uniformBoxes(16, 11), nil); st != updUnknown {
		t.Fatalf("update through the dropped entry: status %d, %+v, want unknown_dataset", st, res)
	}
	if pending := a.srv.cat.fold(held); pending != 0 {
		t.Fatalf("fold of the dropped entry left %d pending, want a refusal", pending)
	}
	snapFile := filepath.Join(dir, "doomed.snap")
	if _, err := os.Stat(snapFile); !os.IsNotExist(err) {
		t.Fatalf("snapshot file survived DELETE: %v", err)
	}

	b := newTestServer(t, Config{DataDir: dir})
	stats := b.recover()
	if stats.Loaded != 0 {
		t.Fatalf("deleted dataset resurrected: %+v", stats)
	}
	if status, _ := b.postJSON("/v1/datasets/doomed/query", api.QueryRequest{Type: "point", Point: []float64{1, 2, 3}}); status != http.StatusNotFound {
		t.Fatalf("query on deleted dataset: status %d", status)
	}
	// The version sequence still continues past the deleted generation —
	// the counters file outlives the snapshot — and at retired+1, which
	// the dropped entry must not have reserved.
	if v := b.loadAndWait("doomed", ds, 16); v != 3 || !b.datasetInfo("doomed").Persisted {
		t.Fatalf("re-POST after delete+restart got v%d, want 3, persisted", v)
	}
	if _, err := os.Stat(snapFile); err != nil {
		t.Fatalf("re-POSTed version left no snapshot file: %v", err)
	}
}

func TestRecoverQuarantinesCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	a := newTestServer(t, Config{DataDir: dir})
	ds := touch.GenerateUniform(500, 2)
	a.loadAndWait("good", ds, 16)
	a.loadAndWait("bad", ds, 16)

	// Corrupt bad.snap on disk after it was durably published.
	path := filepath.Join(dir, "bad.snap")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x55
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	b := newTestServer(t, Config{DataDir: dir})
	stats := b.recover()
	if stats.Loaded != 1 || stats.Quarantined != 1 {
		t.Fatalf("recovery stats %+v, want 1 loaded / 1 quarantined", stats)
	}
	if _, err := os.Stat(filepath.Join(dir, snapstore.CorruptDir, "bad.snap")); err != nil {
		t.Fatalf("corrupt snapshot not quarantined: %v", err)
	}
	if info := b.datasetInfo("good"); info.Status != "ready" {
		t.Fatalf("good dataset: %+v", info)
	}
	// The corrupt dataset is gone but its version counter survives.
	if v := b.loadAndWait("bad", ds, 16); v != 2 {
		t.Fatalf("re-POST of quarantined dataset got v%d, want 2", v)
	}
}

func TestPersistFailureDegradesToEphemeral(t *testing.T) {
	dir := t.TempDir()
	boom := errors.New("disk on fire")
	ffs := &snapstore.FaultFS{Inner: snapstore.OSFS{}}
	armed := false
	ffs.Fail = func(op snapstore.Op, path string) error {
		if armed && op == snapstore.OpSync {
			return boom
		}
		return nil
	}
	a := newTestServer(t, Config{DataDir: dir, snapFS: ffs})
	armed = true
	ds := touch.GenerateUniform(300, 5)
	if v, _ := a.srv.Load("flaky", ds, touch.TOUCHConfig{Partitions: 16}); v != 1 {
		t.Fatalf("load got v%d", v)
	}
	// The in-memory swap still happened: the dataset serves.
	if info := a.datasetInfo("flaky"); info.Status != "ready" || info.Persisted {
		t.Fatalf("after persist failure: %+v", info)
	}
	if n := a.srv.SnapshotErrors(); n == 0 {
		t.Fatal("persist failure not counted")
	}
	if status, body := a.do(http.MethodGet, "/metrics", "", nil); status != http.StatusOK ||
		!strings.Contains(string(body), `touchserved_dataset_persisted{dataset="flaky"} 0`) {
		t.Fatalf("metrics do not flag the ephemeral dataset")
	}

	// An ephemeral dataset is lost by the restart — and says so in the
	// listing beforehand, which is the point of the flag.
	b := newTestServer(t, Config{DataDir: dir})
	stats := b.recover()
	if stats.Loaded != 0 {
		t.Fatalf("ephemeral dataset recovered: %+v", stats)
	}
}

// TestRepostRacingRecoveryConverges: a POST whose build is in flight
// while Recover restores a newer on-disk version must neither regress
// the serving version nor duplicate version numbers afterwards.
func TestRepostRacingRecoveryConverges(t *testing.T) {
	dir := t.TempDir()
	a := newTestServer(t, Config{DataDir: dir})
	ds := touch.GenerateClustered(600, 8)
	for i := 0; i < 3; i++ {
		a.loadAndWait("ds", ds, 16) // on-disk snapshot ends at v3
	}

	var once sync.Once
	entered := make(chan struct{})
	release := make(chan struct{})
	b := newTestServer(t, Config{DataDir: dir, build: func(ds touch.Dataset, cfg touch.TOUCHConfig) *touch.Index {
		once.Do(func() { close(entered) })
		<-release
		return touch.BuildIndex(ds, cfg)
	}})
	// The racing POST: accepted as v1 (the fresh process knows no
	// counter yet), its build parked inside the build func.
	status, body := b.postJSON("/v1/datasets/ds", loadRequest{Boxes: boxRows(ds)})
	if status != http.StatusAccepted {
		t.Fatalf("racing POST: %d: %s", status, body)
	}
	<-entered

	stats := b.recover()
	if stats.Loaded != 1 {
		t.Fatalf("recovery stats %+v", stats)
	}
	close(release)
	b.waitServing("ds", 3)
	if snap, _ := snapshotOf(b.srv.cat, "ds"); snap.version != 3 {
		t.Fatalf("serving v%d, want the restored v3", snap.version)
	}
	// The stale racing build must not have overwritten the v3 file.
	cnt, _, _, err := readSnapshotFile(t, filepath.Join(dir, "ds.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if cnt != 3 {
		t.Fatalf("on-disk snapshot holds v%d, want 3", cnt)
	}
	// And the next accepted version continues past everything: 4.
	if v := b.loadAndWait("ds", ds, 16); v != 4 {
		t.Fatalf("post-convergence load got v%d, want 4", v)
	}
}

// readSnapshotFile decodes a snapshot file's version via the public API.
func readSnapshotFile(t *testing.T, path string) (int64, string, int, error) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, "", 0, err
	}
	info, ds, _, err := touch.DecodeSnapshot(data)
	if err != nil {
		return 0, "", 0, err
	}
	return info.Version, info.Name, len(ds), nil
}

// TestRestartKeepsBuildConfig: the build configuration a dataset was
// loaded with survives a restart — the first compaction after Recover
// rebuilds the tree in the shape its load asked for, not with the paper
// defaults.
func TestRestartKeepsBuildConfig(t *testing.T) {
	dir := t.TempDir()
	a := newTestServer(t, Config{DataDir: dir})
	ds := touch.GenerateUniform(5000, 5)
	_, want := a.srv.Load("d", ds, touch.TOUCHConfig{Partitions: 16, Fanout: 4})

	b := newTestServer(t, Config{DataDir: dir, CompactThreshold: 8})
	if stats := b.recover(); stats.Loaded != 1 {
		t.Fatalf("recovery stats %+v", stats)
	}
	// Replace a quarter of the objects: inserts plus tombstones weigh half
	// the base, so the fold rewrites the base itself, and the object count
	// — and with it the shape a given configuration packs — stays what it
	// was.
	var req api.UpdateRequest
	for _, o := range ds[:len(ds)/4] {
		req.Delete = append(req.Delete, o.ID)
		req.Insert = append(req.Insert, boxRow(o.Box))
	}
	if status, raw := b.patch("d", req); status != http.StatusOK {
		t.Fatalf("patch: status %d: %s", status, raw)
	}
	b.waitServing("d", 2)
	snap, _ := snapshotOf(b.srv.cat, "d")
	if got := snap.stats(); snap.tiers() != 1 || got.Objects != want.Objects || got.Leaves != want.Leaves || got.Height != want.Height {
		t.Fatalf("fold after restart built %d leaves, height %d; the load built %d leaves, height %d",
			got.Leaves, got.Height, want.Leaves, want.Height)
	}
}
