package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"touch"
	"touch/client"
	"touch/internal/api"
	"touch/internal/testutil"
)

// patch sends a PATCH /v1/datasets/{name} and decodes the ack.
func (ts *testServer) patch(name string, req api.UpdateRequest) (int, []byte) {
	return ts.do(http.MethodPatch, "/v1/datasets/"+name, "application/json", req)
}

func boxRow(b touch.Box) []float64 {
	return []float64{b.Min[0], b.Min[1], b.Min[2], b.Max[0], b.Max[1], b.Max[2]}
}

// oracle mirrors the server-side update sequence on a local Mutable —
// whose answers are themselves differentially pinned to from-scratch
// rebuilds — so the server's merged answers have an independent,
// bit-exact reference including the assigned IDs.
type updOracle struct {
	t *testing.T
	m *touch.Mutable
}

func newUpdOracle(t *testing.T, ds touch.Dataset) *updOracle {
	m, err := touch.NewMutable(ds, touch.TOUCHConfig{})
	if err != nil {
		t.Fatal(err)
	}
	m.SetCompactThreshold(-1)
	return &updOracle{t: t, m: m}
}

func (o *updOracle) apply(inserts []touch.Box, deletes []touch.ID) []touch.ID {
	o.m.Delete(deletes)
	ids, err := o.m.Insert(inserts)
	if err != nil {
		o.t.Fatal(err)
	}
	return ids
}

// checkAgainstOracle compares the server's HTTP answers for every query
// shape and the join against the oracle's.
func (ts *testServer) checkAgainstOracle(o *updOracle, name string, probe touch.Dataset, seed int64) {
	t := ts.t
	t.Helper()
	boxes, points, ks := testutil.QueryWorkload(seed, 12)
	for i := range boxes {
		status, raw := ts.postJSON("/v1/datasets/"+name+"/query", api.QueryRequest{Type: "range", Box: boxRow(boxes[i])})
		if status != http.StatusOK {
			t.Fatalf("range: status %d: %s", status, raw)
		}
		var resp api.QueryResponse
		if err := json.Unmarshal(raw, &resp); err != nil {
			t.Fatal(err)
		}
		want, err := o.m.View().RangeQuery(boxes[i])
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.IDs) != len(want) {
			t.Fatalf("range %d: got %d ids, oracle %d", i, len(resp.IDs), len(want))
		}
		for j := range want {
			if resp.IDs[j] != want[j] {
				t.Fatalf("range %d id %d: got %d, oracle %d", i, j, resp.IDs[j], want[j])
			}
		}

		status, raw = ts.postJSON("/v1/datasets/"+name+"/query",
			api.QueryRequest{Type: "knn", Point: []float64{points[i][0], points[i][1], points[i][2]}, K: ks[i]})
		if status != http.StatusOK {
			t.Fatalf("knn: status %d: %s", status, raw)
		}
		if err := json.Unmarshal(raw, &resp); err != nil {
			t.Fatal(err)
		}
		wantN, err := o.m.View().KNN(points[i], ks[i])
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Neighbors) != len(wantN) {
			t.Fatalf("knn %d: got %d neighbors, oracle %d", i, len(resp.Neighbors), len(wantN))
		}
		for j, n := range wantN {
			got := resp.Neighbors[j]
			if got.ID != n.ID || got.Distance != n.Distance {
				t.Fatalf("knn %d neighbor %d: got {%d %g}, oracle {%d %g}", i, j, got.ID, got.Distance, n.ID, n.Distance)
			}
		}
	}

	status, raw := ts.postJSON("/v1/datasets/"+name+"/join", api.JoinRequest{Boxes: boxRows(probe), Eps: 2.5})
	if status != http.StatusOK {
		ts.t.Fatalf("join: status %d: %s", status, raw)
	}
	var jr api.JoinResponse
	if err := json.Unmarshal(raw, &jr); err != nil {
		t.Fatal(err)
	}
	res, err := o.m.View().DistanceJoin(probe, 2.5, nil)
	if err != nil {
		t.Fatal(err)
	}
	res.SortPairs()
	if int64(len(jr.Pairs)) != jr.Count || len(jr.Pairs) != len(res.Pairs) {
		t.Fatalf("join: got %d pairs (count %d), oracle %d", len(jr.Pairs), jr.Count, len(res.Pairs))
	}
	for i, p := range res.Pairs {
		if jr.Pairs[i][0] != p.A || jr.Pairs[i][1] != p.B {
			t.Fatalf("join pair %d: got %v, oracle %v", i, jr.Pairs[i], p)
		}
	}
}

// TestUpdateEndToEndDifferential drives a random insert/delete sequence
// through PATCH and pins every query shape and the join to the oracle
// after each batch — the server's merged answers must be exactly what a
// rebuild of the merged dataset would produce, IDs included.
func TestUpdateEndToEndDifferential(t *testing.T) {
	ts := newTestServer(t, Config{CompactThreshold: -1})
	ds := touch.GenerateClustered(600, 5)
	ts.srv.Load("cells", ds, touch.TOUCHConfig{})
	o := newUpdOracle(t, ds)
	probe := touch.GenerateUniform(80, 17).Expand(6)
	rng := rand.New(rand.NewSource(23))

	live := make([]touch.ID, len(ds))
	for i, obj := range ds {
		live[i] = obj.ID
	}

	for step := 0; step < 8; step++ {
		var inserts []touch.Box
		for i := 0; i < 5+rng.Intn(20); i++ {
			g := touch.GenerateUniform(1, rng.Int63())[0].Box
			inserts = append(inserts, g)
		}
		var deletes []touch.ID
		for i := 0; i < rng.Intn(8) && len(live) > 0; i++ {
			deletes = append(deletes, live[rng.Intn(len(live))])
		}
		deletes = append(deletes, touch.ID(1<<30)) // unknown: skipped silently

		wantIDs := o.apply(inserts, deletes)
		status, raw := ts.patch("cells", api.UpdateRequest{Insert: rowsOf(inserts), Delete: deletes})
		if status != http.StatusOK {
			t.Fatalf("patch step %d: status %d: %s", step, status, raw)
		}
		var ack struct {
			InsertedIDs []touch.ID `json:"inserted_ids"`
			Deleted     int        `json:"deleted"`
		}
		if err := json.Unmarshal(raw, &ack); err != nil {
			t.Fatal(err)
		}
		if len(ack.InsertedIDs) != len(wantIDs) {
			t.Fatalf("step %d: server assigned %d ids, oracle %d", step, len(ack.InsertedIDs), len(wantIDs))
		}
		for i := range wantIDs {
			if ack.InsertedIDs[i] != wantIDs[i] {
				t.Fatalf("step %d insert %d: server id %d, oracle %d", step, i, ack.InsertedIDs[i], wantIDs[i])
			}
		}
		dead := make(map[touch.ID]bool, len(deletes))
		for _, id := range deletes {
			dead[id] = true
		}
		kept := live[:0]
		for _, id := range live {
			if !dead[id] {
				kept = append(kept, id)
			}
		}
		live = append(kept, wantIDs...)

		ts.checkAgainstOracle(o, "cells", probe, int64(step)*101+7)
	}

	// The listing must advertise the pending delta.
	status, raw := ts.do(http.MethodGet, "/v1/datasets", "", nil)
	if status != http.StatusOK {
		t.Fatalf("list: status %d", status)
	}
	if !strings.Contains(string(raw), `"delta_inserts"`) {
		t.Fatalf("listing does not report the pending delta: %s", raw)
	}
}

func rowsOf(boxes []touch.Box) [][]float64 {
	rows := make([][]float64, len(boxes))
	for i, b := range boxes {
		rows[i] = boxRow(b)
	}
	return rows
}

// TestUpdateCompactionPublishes: once the delta crosses the threshold a
// background compaction folds it into a new base version — without
// changing a single answer, without reusing IDs, and leaving the delta
// counters empty.
func TestUpdateCompactionPublishes(t *testing.T) {
	ts := newTestServer(t, Config{CompactThreshold: 8})
	ds := touch.GenerateUniform(300, 3)
	v0, _ := ts.srv.Load("cells", ds, touch.TOUCHConfig{})
	o := newUpdOracle(t, ds)
	probe := touch.GenerateUniform(60, 9).Expand(5)

	boxes := make([]touch.Box, 12)
	for i := range boxes {
		boxes[i] = touch.GenerateUniform(1, int64(i)*77+1)[0].Box
	}
	wantIDs := o.apply(boxes, []touch.ID{3, 4, 5})
	status, raw := ts.patch("cells", api.UpdateRequest{Insert: rowsOf(boxes), Delete: []touch.ID{3, 4, 5}})
	if status != http.StatusOK {
		t.Fatalf("patch: status %d: %s", status, raw)
	}

	// The 15-entry delta is over the threshold: a new version must
	// publish with the delta folded in.
	deadline := time.Now().Add(10 * time.Second)
	for {
		snap, _ := snapshotOf(ts.srv.cat, "cells")
		if snap != nil && snap.version > v0 && snap.pending() == 0 {
			if snap.stats().Objects != 300-3+12 {
				t.Fatalf("compacted base has %d objects, want %d", snap.stats().Objects, 300-3+12)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("compaction never published")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got := ts.srv.cat.compactions.Load(); got < 1 {
		t.Fatalf("compactions counter %d, want >= 1", got)
	}
	ts.checkAgainstOracle(o, "cells", probe, 31)

	// IDs keep ascending across the fold — the next insert must not
	// reuse anything, even though the compaction rebuilt the base.
	next := o.apply([]touch.Box{{Max: touch.Point{1, 1, 1}}}, nil)
	status, raw = ts.patch("cells", api.UpdateRequest{Insert: [][]float64{{0, 0, 0, 1, 1, 1}}})
	if status != http.StatusOK {
		t.Fatalf("post-compaction patch: status %d: %s", status, raw)
	}
	var ack struct {
		InsertedIDs []touch.ID `json:"inserted_ids"`
	}
	if err := json.Unmarshal(raw, &ack); err != nil {
		t.Fatal(err)
	}
	if len(ack.InsertedIDs) != 1 || ack.InsertedIDs[0] != next[0] {
		t.Fatalf("post-compaction insert got ids %v, oracle %v", ack.InsertedIDs, next)
	}
	if want := wantIDs[len(wantIDs)-1] + 1; next[0] != want {
		t.Fatalf("post-compaction id %d, want %d (no reuse)", next[0], want)
	}

	// Compaction persistence metrics surface on /metrics.
	status, raw = ts.do(http.MethodGet, "/metrics", "", nil)
	if status != http.StatusOK {
		t.Fatalf("metrics: status %d", status)
	}
	if !strings.Contains(string(raw), `touchserved_compactions_total{outcome="published"}`) {
		t.Fatalf("metrics missing compaction counters:\n%s", raw)
	}
}

// TestUpdateErrors covers the PATCH failure vocabulary.
func TestUpdateErrors(t *testing.T) {
	ts := newTestServer(t, Config{})
	ts.srv.Load("cells", touch.GenerateUniform(50, 1), touch.TOUCHConfig{})

	status, raw := ts.patch("nosuch", api.UpdateRequest{Delete: []touch.ID{1}})
	if status != http.StatusNotFound || errCode(t, raw) != api.CodeUnknownDataset {
		t.Fatalf("unknown dataset: status %d code %s", status, errCode(t, raw))
	}

	status, raw = ts.patch("cells", api.UpdateRequest{})
	if status != http.StatusBadRequest || errCode(t, raw) != api.CodeBadRequest {
		t.Fatalf("empty batch: status %d: %s", status, raw)
	}

	status, raw = ts.patch("cells", api.UpdateRequest{Insert: [][]float64{{1, 2}}})
	if status != http.StatusBadRequest || errCode(t, raw) != api.CodeInvalidBox {
		t.Fatalf("short row: status %d: %s", status, raw)
	}

	status, raw = ts.patch("cells", api.UpdateRequest{Insert: [][]float64{{5, 5, 5, 1, 1, 1}}})
	if status != http.StatusBadRequest || errCode(t, raw) != api.CodeInvalidBox {
		t.Fatalf("inverted box: status %d: %s", status, raw)
	}

	// Deleting the same ID twice: second time is a silent no-op.
	for i, want := range []int{1, 0} {
		status, raw = ts.patch("cells", api.UpdateRequest{Delete: []touch.ID{7}})
		if status != http.StatusOK {
			t.Fatalf("delete %d: status %d: %s", i, status, raw)
		}
		var ack struct {
			Deleted int `json:"deleted"`
		}
		if err := json.Unmarshal(raw, &ack); err != nil {
			t.Fatal(err)
		}
		if ack.Deleted != want {
			t.Fatalf("delete round %d: deleted %d, want %d", i, ack.Deleted, want)
		}
	}

	// The 405 on the collection element names PATCH now.
	status, raw = ts.do(http.MethodPut, "/v1/datasets/cells", "application/json", api.UpdateRequest{})
	if status != http.StatusMethodNotAllowed || !strings.Contains(string(raw), "PATCH") {
		t.Fatalf("PUT: status %d: %s", status, raw)
	}
}

// TestWireUpdateMatchesHTTP: an update applied over the wire is visible
// to both transports, and at eps = 0 the join answers stay byte-identical
// between HTTP and wire after the update — the fast-path parity check.
func TestWireUpdateMatchesHTTP(t *testing.T) {
	ts := newTestServer(t, Config{CompactThreshold: -1})
	ds := touch.GenerateUniform(900, 8)
	ts.srv.Load("cells", ds, touch.TOUCHConfig{})
	addr := ts.startWire()
	c := ts.dialWire(addr)
	ctx := context.Background()

	ins := make([]touch.Box, 30)
	for i := range ins {
		ins[i] = touch.GenerateUniform(1, int64(i)*13+2)[0].Box
	}
	res, err := c.Update(ctx, "cells", client.UpdateSpec{Insert: ins, Delete: []touch.ID{10, 11, 12, 10}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Deleted != 3 || len(res.InsertedIDs) != 30 || res.InsertedIDs[0] != 900 {
		t.Fatalf("wire update ack: %+v", res)
	}
	if res.DeltaInserts != 30 || res.DeltaTombstones != 3 {
		t.Fatalf("wire update delta counts: %+v", res)
	}

	// A batch-queued update is applied before later requests in the
	// same pipeline.
	b := c.Batch()
	uf := b.Update("cells", client.UpdateSpec{Delete: []touch.ID{20}})
	rf := b.Range("cells", touch.Box{Max: touch.Point{1000, 1000, 1000}})
	if err := b.Send(); err != nil {
		t.Fatal(err)
	}
	ur, err := uf.Get(ctx)
	if err != nil || ur.Deleted != 1 {
		t.Fatalf("batched update: %+v, %v", ur, err)
	}
	if _, ids, err := rf.Get(ctx); err != nil {
		t.Fatal(err)
	} else {
		for _, id := range ids {
			if id == 20 {
				t.Fatal("range after batched delete still returns id 20")
			}
		}
	}

	// eps = 0 parity: the HTTP buffered join and the wire streaming join
	// must marshal to byte-identical pair sets over the merged state.
	probe := touch.GenerateUniform(200, 44).Expand(40)
	status, raw := ts.postJSON("/v1/datasets/cells/join", api.JoinRequest{Boxes: boxRows(probe), Eps: 0})
	if status != http.StatusOK {
		t.Fatalf("http join: status %d: %s", status, raw)
	}
	var hj api.JoinResponse
	if err := json.Unmarshal(raw, &hj); err != nil {
		t.Fatal(err)
	}
	probeBoxes := make([]touch.Box, len(probe))
	for i, o := range probe {
		probeBoxes[i] = o.Box
	}
	wv, pairs, count, err := c.Join(ctx, "cells", client.JoinSpec{Boxes: probeBoxes, Eps: 0})
	if err != nil {
		t.Fatal(err)
	}
	if count == 0 {
		t.Fatal("eps=0 join found no pairs; probe too small to exercise the fast path")
	}
	wj := api.JoinResponse{Dataset: "cells", Version: wv, ProbeObjects: len(probe), Count: count,
		Pairs: make([][2]touch.ID, len(pairs))}
	for i, p := range pairs {
		wj.Pairs[i] = [2]touch.ID{p.A, p.B}
	}
	hj.Stats = nil // engine timings legitimately differ between runs
	hb, _ := json.Marshal(hj)
	wb, _ := json.Marshal(wj)
	if string(hb) != string(wb) {
		t.Fatalf("eps=0 answers differ between transports:\nhttp: %.200s\nwire: %.200s", hb, wb)
	}
}

// TestUpdateUnderConcurrentReads is the serving-path race centerpiece:
// PATCH batches and background compactions publish while HTTP and wire
// readers hammer queries and joins. Run with -race; answers are checked
// for internal consistency during the storm and against the oracle
// after it.
func TestUpdateUnderConcurrentReads(t *testing.T) {
	ts := newTestServer(t, Config{CompactThreshold: 16, Workers: 2})
	ds := touch.GenerateUniform(400, 6)
	ts.srv.Load("cells", ds, touch.TOUCHConfig{})
	o := newUpdOracle(t, ds)
	addr := ts.startWire()
	ctx := context.Background()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	fail := func(format string, args ...any) {
		select {
		case errs <- fmt.Errorf(format, args...):
		default:
		}
	}

	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			box := touch.Box{Max: touch.Point{1000, 1000, 1000}}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				status, raw := ts.postJSON("/v1/datasets/cells/query",
					api.QueryRequest{Type: "range", Box: boxRow(box)})
				if status != http.StatusOK {
					fail("reader %d: range status %d: %s", g, status, raw)
					return
				}
				var resp api.QueryResponse
				if err := json.Unmarshal(raw, &resp); err != nil {
					fail("reader %d: %v", g, err)
					return
				}
				for j := 1; j < len(resp.IDs); j++ {
					if resp.IDs[j] <= resp.IDs[j-1] {
						fail("reader %d: ids not strictly ascending at %d", g, j)
						return
					}
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := ts.dialWire(addr)
		probe := touch.GenerateUniform(40, 77).Expand(3)
		probeBoxes := make([]touch.Box, len(probe))
		for i, o := range probe {
			probeBoxes[i] = o.Box
		}
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, pairs, count, err := c.Join(ctx, "cells", client.JoinSpec{Boxes: probeBoxes}); err != nil {
				fail("wire join: %v", err)
				return
			} else if int64(len(pairs)) != count {
				fail("wire join: %d pairs vs count %d", len(pairs), count)
				return
			}
		}
	}()

	// Single mutator keeps the oracle in lockstep with the server.
	rng := rand.New(rand.NewSource(99))
	live := make([]touch.ID, len(ds))
	for i, obj := range ds {
		live[i] = obj.ID
	}
	for step := 0; step < 40; step++ {
		var ins []touch.Box
		for i := 0; i < 3+rng.Intn(6); i++ {
			ins = append(ins, touch.GenerateUniform(1, rng.Int63())[0].Box)
		}
		var dels []touch.ID
		if len(live) > 4 {
			for i := 0; i < rng.Intn(4); i++ {
				dels = append(dels, live[rng.Intn(len(live))])
			}
		}
		ids := o.apply(ins, dels)
		status, raw := ts.patch("cells", api.UpdateRequest{Insert: rowsOf(ins), Delete: dels})
		if status != http.StatusOK {
			t.Fatalf("patch step %d: status %d: %s", step, status, raw)
		}
		dead := make(map[touch.ID]bool, len(dels))
		for _, id := range dels {
			dead[id] = true
		}
		kept := live[:0]
		for _, id := range live {
			if !dead[id] {
				kept = append(kept, id)
			}
		}
		live = append(kept, ids...)
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	// Quiesced: the merged serving state must still match the oracle
	// exactly, compactions and all.
	probe := touch.GenerateUniform(70, 5).Expand(4)
	ts.checkAgainstOracle(o, "cells", probe, 55)
	if got := ts.srv.cat.compactions.Load(); got < 1 {
		t.Fatalf("compactions %d, want >= 1 (threshold 16 over 40 mutation steps)", got)
	}
}
