package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"time"

	"touch"
	"touch/client"
	"touch/internal/delta"
	"touch/internal/nl"
	"touch/internal/trace"
)

const (
	updateEvery  = 8  // op i with i%updateEvery == updateEvery-1 is an update
	insertBatch  = 16 // boxes inserted per update
	deleteBatch  = 8  // oldest live inserted IDs deleted per update...
	deleteAtLive = 32 // ...once this many are live
)

// mixedFixture is serve_mixed's set-up: one mutable dataset behind one
// server with the default compaction threshold, and one wire client.
type mixedFixture struct {
	ds touch.Dataset
	st *stack
}

func (r *run) buildMixedFixture() (*mixedFixture, error) {
	ds := touch.GenerateUniform(r.sz.mixedN, r.cfg.seed)
	st, err := newStack(ds, false, func(st *stack) error {
		box, pt := ds[0].Box, ds[0].Box.Center()
		for i := 0; i < 4; i++ {
			if _, _, err := st.wire[0].Range(bg, dataset, box); err != nil {
				return err
			}
			if _, _, err := st.wire[0].KNN(bg, dataset, pt, knnK); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &mixedFixture{ds: ds, st: st}, nil
}

// model is the benchmark's own account of the dataset under the update
// schedule: the base never loses an object (only inserted IDs are
// deleted), so it is the base plus the inserts still alive.
type model struct {
	baseN int
	live  []touch.Object // inserted and not yet deleted, oldest first
	next  int            // next insert box to draw
	boxes []touch.Box
}

// nextUpdate draws the schedule's next update batch.
func (m *model) nextUpdate() client.UpdateSpec {
	var spec client.UpdateSpec
	if len(m.live) >= deleteAtLive {
		for _, o := range m.live[:deleteBatch] {
			spec.Delete = append(spec.Delete, o.ID)
		}
	}
	for i := 0; i < insertBatch; i++ {
		spec.Insert = append(spec.Insert, m.boxes[(m.next+i)%len(m.boxes)])
	}
	return spec
}

// apply folds an acknowledged update into the model and reports whether
// the server's account of it (assigned IDs, deleted count) is the one
// the contract promises.
func (m *model) apply(spec client.UpdateSpec, res client.UpdateResult) error {
	if res.Deleted != len(spec.Delete) {
		return fmt.Errorf("update deleted %d objects, want %d", res.Deleted, len(spec.Delete))
	}
	if len(res.InsertedIDs) != len(spec.Insert) {
		return fmt.Errorf("update assigned %d IDs, want %d", len(res.InsertedIDs), len(spec.Insert))
	}
	m.live = m.live[len(spec.Delete):]
	for i, id := range res.InsertedIDs {
		if int(id) < m.baseN || (len(m.live) > 0 && id <= m.live[len(m.live)-1].ID) {
			return fmt.Errorf("update assigned ID %d, not above every earlier ID", id)
		}
		m.live = append(m.live, touch.Object{ID: id, Box: spec.Insert[i]})
	}
	m.next += len(spec.Insert)
	return nil
}

// dataset is the merged live objects, for the brute-force check.
func (m *model) dataset(base touch.Dataset) touch.Dataset {
	return append(slices.Clone(base), m.live...)
}

// rangeHashParts hashes the base part of a range answer (IDs below
// baseN) the way hashIDs does, and checks the rest against the model:
// every ID above the base must be a live insert that intersects q.
func (m *model) rangeHashParts(ids []touch.ID, q touch.Box) (uint64, error) {
	cut, _ := slices.BinarySearch(ids, touch.ID(m.baseN))
	for _, id := range ids[cut:] {
		at, ok := slices.BinarySearchFunc(m.live, id, func(o touch.Object, id touch.ID) int { return int(o.ID) - int(id) })
		if !ok || !m.live[at].Box.Intersects(q) {
			return 0, fmt.Errorf("range answer holds ID %d, which is not a live insert intersecting the box", id)
		}
	}
	return hashIDs(ids[:cut]), nil
}

// schedule runs the fixed update/query schedule through one wire client
// and returns the per-kind latencies. While the dataset changes under
// it, a range answer is checked in two parts (see rangeHashParts) and a
// kNN answer for shape (count and order); the 64 brute-force queries
// after the schedule settle the rest. With spanBlocks (the traced run)
// every other block of updateEvery ops runs under spans and the rest
// bare, the bare latencies returned separately.
func (r *run) schedule(fx *mixedFixture, sh *shapes, m *model, n int, spanBlocks bool) (lat latencies, updates durations, bare latencies, compactions, deltaMax int) {
	conn := fx.st.wire[0]
	firstVersion, lastVersion := int64(0), int64(0)
	q := 0
	for i := 0; i < n; i++ {
		if i%512 == 0 {
			r.calibrate()
		}
		spanned := spanBlocks && (i/updateEvery)%2 == 0
		call := func(name string, f func()) time.Duration {
			if spanned {
				return r.timed(name, -1, i, f)
			}
			start := time.Now()
			f()
			return time.Since(start)
		}
		into := &lat
		if spanBlocks && !spanned {
			into = &bare
		}
		if i%updateEvery == updateEvery-1 {
			spec := m.nextUpdate()
			var res client.UpdateResult
			var err error
			d := call("server.wire.update", func() { res, err = conn.Update(bg, dataset, spec) })
			r.attempt()
			if err == nil {
				err = m.apply(spec, res)
			}
			if err != nil {
				r.fail("update op %d: %v", i, err)
				continue
			}
			if firstVersion == 0 {
				firstVersion = res.Version
			}
			lastVersion = res.Version
			deltaMax = max(deltaMax, res.DeltaInserts+res.DeltaTombstones)
			if !spanBlocks || spanned {
				updates = append(updates, d)
			}
			continue
		}
		si, knn := shapeOf(sh, q)
		q++
		if knn {
			var nbrs []touch.Neighbor
			var err error
			d := call("server.wire.knn", func() { _, nbrs, err = conn.KNN(bg, dataset, sh.points[si], knnK) })
			r.attempt()
			switch {
			case err != nil:
				r.fail("knn op %d: %v", i, err)
			case len(nbrs) != knnK || !slices.IsSortedFunc(nbrs, neighborOrder):
				r.fail("knn op %d: answer is not %d neighbors in (distance, ID) order", i, knnK)
			default:
				into.add(true, d)
			}
			continue
		}
		var ids []touch.ID
		var err error
		d := call("server.wire.range", func() { _, ids, err = conn.Range(bg, dataset, sh.boxes[si]) })
		var got uint64
		if err == nil {
			got, err = m.rangeHashParts(ids, sh.boxes[si])
		}
		if r.check("range", i, err, got, sh.rangeWant[si]) {
			into.add(false, d)
		}
	}
	return lat, updates, bare, int(lastVersion - firstVersion), deltaMax
}

// verifyModel asks the server n queries after the schedule and compares
// each answer with a brute-force scan of the model.
func (r *run) verifyModel(fx *mixedFixture, sh *shapes, m *model, n int) {
	merged := m.dataset(fx.ds)
	conn := fx.st.wire[0]
	for i := 0; i < n; i++ {
		si := (i * 7) % len(sh.boxes)
		if i%2 == 0 {
			_, ids, err := conn.Range(bg, dataset, sh.boxes[si])
			r.check("model range", i, err, hashIDs(ids), hashIDs(nl.RangeQuery(merged, sh.boxes[si])))
		} else {
			_, nbrs, err := conn.KNN(bg, dataset, sh.points[si], knnK)
			r.check("model knn", i, err, hashNeighbors(nbrs), hashNeighbors(bruteKNN(merged, sh.points[si], knnK)))
		}
	}
}

// mixedRef prepares what serve_mixed checks against: the shapes with
// the frozen base's answers, and the model.
func (r *run) mixedRef(fx *mixedFixture) (*shapes, *touch.Index, *model) {
	start := time.Now()
	idx := touch.BuildIndex(fx.ds, touch.TOUCHConfig{})
	var fp fingerprint
	fp.dataset(fx.ds)
	sh := r.newShapes(r.cfg.seed+2, fx.ds, idx, &fp)
	m := &model{baseN: len(fx.ds), boxes: smallBoxes(r.cfg.seed+3, 4096)}
	fp.boxes(m.boxes)
	r.res.Inputs = fp.String()
	r.res.Sizes["objects"] = len(fx.ds)
	r.res.Sizes["shapes"] = len(sh.boxes)
	r.res.OracleS = time.Since(start).Seconds()
	return sh, idx, m
}

// runServeMixed is the end-to-end run of serve_mixed: writes beside
// reads through one wire client, with background compactions publishing
// underneath.
func (r *run) runServeMixed() error {
	fx, err := setupMedian(r, 3, r.buildMixedFixture, func(fx *mixedFixture) { fx.st.close() })
	if err != nil {
		return err
	}
	defer fx.st.close()
	sh, idx, m := r.mixedRef(fx)
	n := r.sz.mixedOps
	r.res.Ops["schedule"] = n
	r.res.Ops["updates"] = n / updateEvery

	before := memBefore()
	start := time.Now()
	lat, updates, _, compactions, deltaMax := r.schedule(fx, sh, m, n, false)
	wall := time.Since(start)
	r.res.WallS = wall.Seconds()
	r.res.Ops["compactions"] = compactions
	r.res.Ops["delta_max"] = deltaMax

	r.setTime("wire_range_p50_us", lat.ranges)
	r.setTime("wire_knn_p50_us", lat.knns)
	r.setTime("update_p50_us", updates)
	r.setValue("mixed_ops_per_s", float64(n)/wall.Seconds())
	r.verifyModel(fx, sh, m, r.sz.mixedChecks)
	r.memAfter(before, int64(n), fx, sh, idx, m)
	return nil
}

// traceServeMixed is the traced run of serve_mixed: the overlay on a
// fixed delta split by the engine's own phases, the delta and Mutable
// write paths, the update front doors, and the schedule itself under
// spans.
func (r *run) traceServeMixed() error {
	fx, err := r.buildMixedFixture()
	if err != nil {
		return err
	}
	defer fx.st.close()
	sh, idx, m := r.mixedRef(fx)
	n := r.sz.ladderOps

	// A fixed delta of half the compaction threshold.
	inBase := func(id touch.ID) bool { return int(id) < len(fx.ds) }
	d := delta.NewForBase(fx.ds)
	d, _ = d.Insert(smallBoxes(r.cfg.seed+4, r.sz.deltaIns))
	tombs := make([]touch.ID, r.sz.deltaTombs)
	for i := range tombs {
		tombs[i] = touch.ID(i * (len(fx.ds) / len(tombs)))
	}
	d, _ = d.Delete(tombs, inBase)
	loaded := touch.NewOverlay(idx, d.Live(), d.TombIDs())
	empty := touch.NewOverlay(idx, nil, nil)
	merged := d.Merged(fx.ds)

	for _, knn := range []bool{false, true} {
		kind := "range"
		if knn {
			kind = "knn"
		}
		query := func(ov *touch.Overlay, sp *touch.Span, i int) uint64 {
			if knn {
				nbrs, _ := ov.KNNTraced(sh.points[i], knnK, sp)
				return hashNeighbors(nbrs)
			}
			ids, _ := ov.RangeQueryTraced(sh.boxes[i], sp)
			return hashIDs(ids)
		}
		brute := func(i int) uint64 {
			if knn {
				return hashNeighbors(bruteKNN(merged, sh.points[i], knnK))
			}
			return hashIDs(nl.RangeQuery(merged, sh.boxes[i]))
		}
		// The engine's own phase split of every call (PR 9's spans), next
		// to the call's wall time.
		phases := map[trace.Phase][]float64{trace.PhaseQuery: nil, trace.PhaseOverlay: nil, trace.PhaseDelta: nil}
		var sp touch.Span
		var got uint64
		stem := "touch.overlay_loaded." + kind
		r.setTime(stem+"_us", r.rung(stem, n,
			func(op int) {
				sp = touch.Span{}
				got = query(loaded, &sp, op%len(sh.boxes))
			},
			func(op int) bool {
				for ph := range phases {
					phases[ph] = append(phases[ph], float64(sp.Durations[ph])/float64(time.Microsecond))
				}
				if op >= r.sz.bruteShapes {
					return true
				}
				return r.check(stem, op, nil, got, brute(op%len(sh.boxes)))
			}))
		r.setSamples(stem+"_query_us", phases[trace.PhaseQuery])
		r.setSamples(stem+"_overlay_us", phases[trace.PhaseOverlay])
		r.setSamples(stem+"_delta_us", phases[trace.PhaseDelta])
		base := r.rung("touch.overlay_empty."+kind, n, func(op int) { query(empty, nil, op%len(sh.boxes)) }, nil).median()
		if base > 0 {
			r.setValue(stem+"_slowdown", r.median(stem+"_us")*float64(time.Microsecond)/float64(base))
		}
	}

	// The write path, layer by layer, at the schedule's batch sizes.
	ins := smallBoxes(r.cfg.seed+5, insertBatch)
	r.setTime("delta.insert_us", r.rung("delta.insert", r.sz.updateOps, func(int) { d.Insert(ins) }, nil))
	r.setTime("delta.delete_us", r.rung("delta.delete", r.sz.updateOps, func(op int) {
		del := make([]touch.ID, deleteBatch)
		for j := range del {
			del[j] = touch.ID(1 + op*deleteBatch + j)
		}
		d.Delete(del, inBase)
	}, nil))

	mut, err := touch.NewMutable(fx.ds, touch.TOUCHConfig{})
	if err != nil {
		return err
	}
	mut.SetCompactThreshold(0) // compaction is timed explicitly below
	if _, err := mut.Insert(smallBoxes(r.cfg.seed+4, r.sz.deltaIns)); err != nil {
		return err
	}
	mut.Delete(tombs)
	var inserted, batch []touch.ID
	var mutErr error
	r.setTime("touch.mutable.insert_us", r.rung("touch.mutable.insert", r.sz.updateOps/4,
		func(int) { batch, mutErr = mut.Insert(ins) },
		func(int) bool {
			inserted = append(inserted, batch...)
			return mutErr == nil
		}))
	deleted := 0
	r.setTime("touch.mutable.delete_us", r.rung("touch.mutable.delete", r.sz.updateOps/4,
		func(op int) { deleted = mut.Delete(inserted[op*deleteBatch : (op+1)*deleteBatch]) },
		func(int) bool { return deleted == deleteBatch }))
	// Compact folding a threshold-sized delta into the base.
	fill := smallBoxes(r.cfg.seed+6, touch.DefaultCompactThreshold)
	var folds durations
	for i := 0; i < r.sz.compacts; i++ {
		mut.Compact()
		if _, err := mut.Insert(fill); err != nil {
			return err
		}
		folds = append(folds, r.timed("touch.mutable.compact", -1, i, func() { mut.Compact() }))
	}
	r.setTime("touch.mutable.compact_ms", folds)

	// The update front doors: PATCH into a recorder, then the wire.
	patch := func(spec client.UpdateSpec) ([]byte, error) {
		rows := make([][]float64, len(spec.Insert))
		for i, b := range spec.Insert {
			rows[i] = []float64{b.Min[0], b.Min[1], b.Min[2], b.Max[0], b.Max[1], b.Max[2]}
		}
		return json.Marshal(map[string]any{"insert": rows, "delete": spec.Delete})
	}
	var patchResp struct {
		Version         int64      `json:"version"`
		InsertedIDs     []touch.ID `json:"inserted_ids"`
		Deleted         int        `json:"deleted"`
		DeltaInserts    int        `json:"delta_inserts"`
		DeltaTombstones int        `json:"delta_tombstones"`
	}
	var handlerTimes durations
	for op := 0; op < r.sz.updateOps; op++ {
		spec := m.nextUpdate()
		body, err := patch(spec)
		if err != nil {
			return err
		}
		req := httptest.NewRequest(http.MethodPatch, "/v1/datasets/"+dataset, bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		dur := r.timed("server.handler.update", -1, op, func() { fx.st.srv.ServeHTTP(rec, req) })
		r.attempt()
		if rec.Code != http.StatusOK {
			r.fail("PATCH op %d: status %d: %s", op, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
			continue
		}
		patchResp.InsertedIDs = patchResp.InsertedIDs[:0]
		if err := json.Unmarshal(rec.Body.Bytes(), &patchResp); err == nil {
			err = m.apply(spec, client.UpdateResult{InsertedIDs: patchResp.InsertedIDs, Deleted: patchResp.Deleted})
		}
		if err != nil {
			r.fail("PATCH op %d: %v", op, err)
			continue
		}
		handlerTimes = append(handlerTimes, dur)
	}
	r.setTime("server.handler.update_us", handlerTimes)

	// The schedule under spans, every other block bare so the cost of
	// recording reads off the same run.
	ops := r.sz.mixedOps / 2
	r.res.Ops["schedule"] = ops
	lat, updates, bare, compactions, deltaMax := r.schedule(fx, sh, m, ops, true)
	r.setTime("server.wire.update_us", updates)
	r.setValue("server.compactions", float64(compactions))
	r.setValue("server.delta_max", float64(deltaMax))
	r.setOverhead("bench.trace_overhead_pct", lat.ranges, bare.ranges)
	r.verifyModel(fx, sh, m, r.sz.mixedChecks)
	return nil
}
