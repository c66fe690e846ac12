package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"touch"
	"touch/internal/api"
	snapstore "touch/internal/snapshot"
)

// update PATCHes one batch and returns the IDs the server assigned and
// how many objects it tombstoned.
func (ts *testServer) update(name string, inserts []touch.Box, deletes []touch.ID) (ids []touch.ID, deleted int) {
	ts.t.Helper()
	status, raw := ts.patch(name, api.UpdateRequest{Insert: rowsOf(inserts), Delete: deletes})
	if status != http.StatusOK {
		ts.t.Fatalf("patch %s: status %d: %s", name, status, raw)
	}
	var ack struct {
		InsertedIDs []touch.ID `json:"inserted_ids"`
		Deleted     int        `json:"deleted"`
	}
	if err := json.Unmarshal(raw, &ack); err != nil {
		ts.t.Fatal(err)
	}
	return ack.InsertedIDs, ack.Deleted
}

// TestRestartNeverReissuesFoldedIDs: the IDs a dataset has issued stay
// issued across a fold that drops the objects holding the highest of
// them and a restart from the file that fold wrote. The largest ID still
// alive says nothing about 200–203 here; the snapshot's high-water mark
// does.
func TestRestartNeverReissuesFoldedIDs(t *testing.T) {
	dir := t.TempDir()
	a := newTestServer(t, Config{DataDir: dir, compactThreshold: 8})
	a.srv.Load("d", touch.GenerateUniform(200, 5), touch.TOUCHConfig{})
	ids, _ := a.update("d", uniformBoxes(4, 6), nil)
	if len(ids) != 4 || ids[0] != 200 {
		t.Fatalf("inserts received IDs %v, want 200..203", ids)
	}
	// Four inserts and their four tombstones reach the threshold: the
	// fold publishes version 2 with none of them in it.
	if _, deleted := a.update("d", nil, ids); deleted != 4 {
		t.Fatalf("deleted %d of the 4 inserts", deleted)
	}
	a.waitServing("d", 2)
	if ids, _ := a.update("d", uniformBoxes(1, 7), nil); ids[0] != 204 {
		t.Fatalf("without a restart the next insert received ID %d, want 204", ids[0])
	}

	b := newTestServer(t, Config{DataDir: dir, compactThreshold: -1})
	if stats := b.recover(); stats.Loaded != 1 {
		t.Fatalf("recovery stats %+v", stats)
	}
	if info := b.datasetInfo("d"); info.Version != 2 || info.Objects != 200 {
		t.Fatalf("recovered %+v, want version 2 with 200 objects", info)
	}
	if ids, _ := b.update("d", uniformBoxes(1, 7), nil); ids[0] != 204 {
		t.Fatalf("after the restart the next insert received ID %d: an ID was reissued (want 204)", ids[0])
	}
}

// TestTieredFoldsPersistAndRecover walks one dataset through folds that
// stack three tiers over its base, with tombstones left in every one of
// them, and restarts from the file the last fold wrote: the same tiers,
// the same live objects, the same answers on every query shape and the
// join, the same next ID — and not one tree built. Updates then go on
// where they left off: a delete finds an object of a recovered upper
// tier, and an ID whose tombstone came back from the file stays dead.
func TestTieredFoldsPersistAndRecover(t *testing.T) {
	dir := t.TempDir()
	a := newTestServer(t, Config{DataDir: dir, compactThreshold: 32})
	ds := touch.GenerateUniform(2000, 11)
	a.srv.Load("d", ds, touch.TOUCHConfig{Partitions: 64})
	o := newUpdOracle(t, ds)
	probe := touch.GenerateUniform(80, 12).Expand(5)

	step := func(version int64, inserts []touch.Box, deletes []touch.ID) []touch.ID {
		t.Helper()
		want := o.apply(inserts, deletes)
		got, _ := a.update("d", inserts, deletes)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("the server assigned IDs %v, the oracle %v", got, want)
		}
		a.waitServing("d", version)
		return got
	}
	first := step(2, uniformBoxes(400, 13), nil)
	// More tombstones into the base than the threshold: once a fold has
	// left them in place they must count toward no further fold.
	intoBase := []touch.ID{3, 500, 1999}
	for id := touch.ID(1000); id < 1040; id++ {
		intoBase = append(intoBase, id)
	}
	second := step(3, uniformBoxes(100, 14), append(intoBase, first[0], first[17], first[399]))
	step(4, uniformBoxes(40, 15), []touch.ID{second[5], second[99], first[200], 7})

	snap, _ := snapshotOf(a.srv.cat, "d")
	tiers := snap.ov.Tiers()
	if len(tiers) != 4 || snap.pending() != 0 {
		t.Fatalf("version 4 holds %d tiers and %d pending updates, want 4 and 0: %+v", len(tiers), snap.pending(), tiers)
	}
	for i, tier := range tiers[:3] {
		if tier.Dead == 0 {
			t.Fatalf("no tombstone outlived the folds in tier %d: %+v", i, tiers)
		}
	}
	info := a.datasetInfo("d")
	if !info.Persisted || info.Objects != len(o.m.Dataset()) || info.DeltaTombstones != 0 {
		t.Fatalf("listing after the folds: %+v, want %d objects persisted and nothing pending", info, len(o.m.Dataset()))
	}
	a.checkAgainstOracle(o, "d", probe, 16)
	// The tombstones the folds left in place count toward nothing: a
	// scheduler that still saw them would be over its threshold for good
	// and would have folded again by now.
	if cat := a.srv.cat; cat.compactions.Load() != 3 || cat.compactionsInFlight.Load() != 0 {
		t.Fatalf("%d folds published and %d in flight after three threshold crossings", cat.compactions.Load(), cat.compactionsInFlight.Load())
	}
	m := a.scrape()
	if tiers, rewritten := m.Families["touchserved_dataset_tiers"].Samples, m.Families["touchserved_compaction_objects_total"].Samples; len(tiers) != 1 || tiers[0].Label("dataset") != "d" || tiers[0].Value != 4 || rewritten[0].Value != 400+100+40 {
		t.Fatalf("metrics: dataset_tiers %+v, compaction_objects_total %+v; want 4 for d and the 540 the three folds wrote", tiers, rewritten)
	}

	// The file is the generation: format 2, every tier and tombstone.
	data, err := os.ReadFile(filepath.Join(dir, "d.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if _, onDisk, err := touch.DecodeOverlay(data); err != nil || fmt.Sprint(onDisk.Tiers()) != fmt.Sprint(tiers) {
		t.Fatalf("the file decodes to %+v, %v; serving %+v", onDisk.Tiers(), err, tiers)
	}
	if _, _, _, err := touch.DecodeSnapshot(data); err == nil {
		t.Fatal("DecodeSnapshot returned one index for a file of four tiers")
	}

	builds := 0
	b := newTestServer(t, Config{DataDir: dir, compactThreshold: -1, build: countingBuild(&builds)})
	if stats := b.recover(); stats.Loaded != 1 || stats.Quarantined != 0 || builds != 0 {
		t.Fatalf("recovery stats %+v after %d builds, want one dataset and no build", stats, builds)
	}
	back, _ := snapshotOf(b.srv.cat, "d")
	if fmt.Sprint(back.ov.Tiers()) != fmt.Sprint(tiers) || back.version != 4 || back.ov.Stats() != snap.ov.Stats() {
		t.Fatalf("recovered version %d with %+v %+v; served version 4 with %+v %+v",
			back.version, back.ov.Tiers(), back.ov.Stats(), tiers, snap.ov.Stats())
	}
	b.checkAgainstOracle(o, "d", probe, 17)
	// first[5] sits in a recovered upper tier; first[17]'s tombstone came
	// back from the file; 3's too, in the base.
	want := o.apply(uniformBoxes(2, 18), []touch.ID{first[5], first[17], 3})
	got, deleted := b.update("d", uniformBoxes(2, 18), []touch.ID{first[5], first[17], 3})
	if deleted != 1 || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("after the restart an update tombstoned %d objects and received IDs %v; want 1 and %v", deleted, got, want)
	}
	b.checkAgainstOracle(o, "d", probe, 19)
}

// TestFoldPersistFaultMatrix injects a failure at every step of the
// write that a fold's snapshot goes through. The fold publishes either
// way — the version serves, flagged ephemeral when its file did not make
// it — and a restart finds a complete file: the version before the fold
// or, when the fault came after the rename, the fold itself with its new
// tier. Never a hybrid, nothing quarantined, and the IDs go on from what
// that version had issued.
func TestFoldPersistFaultMatrix(t *testing.T) {
	boom := errors.New("injected fault")
	for _, tc := range []struct {
		name  string
		op    snapstore.Op
		torn  int
		crash bool // process death at the fault: no cleanup runs
		want  int64
	}{
		{name: "short-write", op: snapstore.OpWrite, want: 1},
		{name: "torn-write", op: snapstore.OpWrite, torn: 100, want: 1},
		{name: "torn-write-crash", op: snapstore.OpWrite, torn: 20_000, crash: true, want: 1},
		{name: "failed-sync", op: snapstore.OpSync, want: 1},
		{name: "failed-close", op: snapstore.OpClose, want: 1},
		{name: "crash-before-rename", op: snapstore.OpRename, crash: true, want: 1},
		{name: "failed-dir-sync", op: snapstore.OpSyncDir, want: 2},
		{name: "failed-create", op: snapstore.OpCreate, want: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			ffs := &snapstore.FaultFS{Inner: snapstore.OSFS{}, TornBytes: tc.torn}
			armed := false
			ffs.Fail = func(op snapstore.Op, path string) error {
				if armed && (op == tc.op || (tc.crash && op == snapstore.OpRemove)) {
					return boom
				}
				return nil
			}
			a := newTestServer(t, Config{DataDir: dir, snapFS: ffs, compactThreshold: 16})
			ds := touch.GenerateUniform(500, 21)
			a.srv.Load("d", ds, touch.TOUCHConfig{Partitions: 16})
			o := newUpdOracle(t, ds)
			armed = true
			boxes := uniformBoxes(64, 22)
			a.update("d", boxes, []touch.ID{9})
			a.waitServing("d", 2)
			armed = false
			snap, _ := snapshotOf(a.srv.cat, "d")
			if len(snap.ov.Tiers()) != 2 || snap.persisted || a.srv.SnapshotErrors() == 0 {
				t.Fatalf("the fold serves %d tiers, persisted=%v, after %d snapshot errors; want 2 tiers, ephemeral, an error counted",
					len(snap.ov.Tiers()), snap.persisted, a.srv.SnapshotErrors())
			}

			b := newTestServer(t, Config{DataDir: dir, compactThreshold: -1})
			if stats := b.recover(); stats.Loaded != 1 || stats.Quarantined != 0 {
				t.Fatalf("recovery stats %+v, want the one dataset and nothing quarantined", stats)
			}
			next := touch.ID(500)
			if tc.want == 2 {
				o.apply(boxes, []touch.ID{9})
				next = 564
			}
			back, _ := snapshotOf(b.srv.cat, "d")
			if back.version != tc.want || len(back.ov.Tiers()) != int(tc.want) {
				t.Fatalf("recovered version %d with %d tiers, want version %d", back.version, len(back.ov.Tiers()), tc.want)
			}
			b.checkAgainstOracle(o, "d", touch.GenerateUniform(40, 23).Expand(5), 24)
			if ids, _ := b.update("d", uniformBoxes(1, 25), nil); ids[0] != next {
				t.Fatalf("the next insert received ID %d, want %d", ids[0], next)
			}
		})
	}
}
