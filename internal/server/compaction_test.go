package server

import (
	"runtime"
	"slices"
	"testing"
	"time"

	"touch"
)

func uniformBoxes(n int, seed int64) []touch.Box {
	boxes := make([]touch.Box, n)
	for i, o := range touch.GenerateUniform(n, seed) {
		boxes[i] = o.Box
	}
	return boxes
}

// TestCompactionRearmsAfterPublish: updates that arrive while a
// compaction is building carry over into the delta it publishes; when
// they alone are over the threshold a second compaction must follow
// with no further update to trigger it. The injected build holds every
// compaction on a channel, so the burst provably lands inside the first
// build and the second build's arrival is the event waited on. The folds
// cost what changed: the first indexes its 16 inserts as a tier of their
// own, the second rewrites that tier together with the 48 that outgrew
// it, and neither touches the 200-object base.
func TestCompactionRearmsAfterPublish(t *testing.T) {
	started := make(chan int)
	release := make(chan struct{})
	hold := false // written before the first held build starts, read by builds only
	cat := newCatalog(func(ds touch.Dataset, cfg touch.TOUCHConfig) *touch.Index {
		if hold {
			started <- len(ds)
			<-release
		}
		return touch.BuildIndex(ds, cfg)
	})
	cat.compactAt = 8
	base := touch.GenerateUniform(200, 61)
	if v, ok := cat.load("m", base, touch.TOUCHConfig{}, true, 0); !ok || v != 1 {
		t.Fatalf("load: version %d, ok %v", v, ok)
	}
	hold = true

	awaitBuild := func(what string, wantObjects int) {
		t.Helper()
		select {
		case n := <-started:
			if n != wantObjects {
				t.Fatalf("%s builds over %d objects, want %d", what, n, wantObjects)
			}
		case <-time.After(20 * time.Second):
			t.Fatalf("%s never started", what)
		}
	}
	update := func(seed int64) {
		t.Helper()
		if _, st := cat.applyUpdate("m", uniformBoxes(16, seed), nil); st != updOK {
			t.Fatalf("applyUpdate: status %d", st)
		}
	}

	update(62) // 16 pending ≥ 8: the first compaction starts and is held
	awaitBuild("first compaction", 16)
	for seed := int64(63); seed < 66; seed++ {
		update(seed) // 48 more land while it builds
	}
	release <- struct{}{}
	// No further update: the carried-over 48 must re-arm on their own.
	awaitBuild("second compaction", 64)
	release <- struct{}{}

	for {
		snap, _ := snapshotOf(cat, "m")
		if snap.version == 3 {
			if snap.pending() != 0 || snap.stats().Objects != 264 || snap.tiers() != 2 {
				t.Fatalf("version 3 has %d objects in %d tiers and %d pending updates, want 264, 2 and 0", snap.stats().Objects, snap.tiers(), snap.pending())
			}
			break
		}
		runtime.Gosched()
	}
	if got := cat.compactions.Load(); got != 2 {
		t.Fatalf("compactions = %d, want 2", got)
	}
	if got := cat.compactionTime.Count(); got != 2 {
		t.Fatalf("compaction_seconds observed %d folds, want 2", got)
	}
	if got := cat.compactionObjects.Load(); got != 16+64 {
		t.Fatalf("compaction_objects_total = %d, want the 16 + 64 the two folds wrote", got)
	}
}

// TestUpdatePublishAllocatesPerBatch is the structural form of "update
// publish is O(batch)": the bytes one applyUpdate allocates do not grow
// with the inserts already pending, and with T tombstones pending a
// batch that deletes pays one 4-byte-per-tombstone copy and nothing
// else. Bytes, not time; the median of nine consecutive updates keeps
// the occasional amortized growth of the shared insert array out. And by
// count: an insert-only update publishes in three allocations — the
// delta, the reader over it and the serving state — with the compaction
// threshold armed or not; the scheduler holds its fold from construction
// and Arm allocates nothing.
func TestUpdatePublishAllocatesPerBatch(t *testing.T) {
	base := touch.GenerateUniform(4000, 71)
	batch := uniformBoxes(16, 72)
	perUpdate := func(pendingInserts, pendingTombs, deletes int) uint64 {
		cat := newCatalog(nil) // compactAt 0: no compaction underneath
		cat.load("m", base, touch.TOUCHConfig{}, true, 0)
		if pendingInserts > 0 {
			cat.applyUpdate("m", uniformBoxes(pendingInserts, 73), nil)
		}
		dead := make([]touch.ID, pendingTombs)
		for i := range dead {
			dead[i] = touch.ID(i)
		}
		if res, _ := cat.applyUpdate("m", nil, dead); res.deleted != pendingTombs {
			t.Fatalf("tombstoned %d of %d", res.deleted, pendingTombs)
		}
		var samples []uint64
		var before, after runtime.MemStats
		for i := 0; i < 9; i++ {
			del := make([]touch.ID, deletes)
			for j := range del {
				del[j] = touch.ID(pendingTombs + i*deletes + j)
			}
			runtime.ReadMemStats(&before)
			res, st := cat.applyUpdate("m", batch, del)
			runtime.ReadMemStats(&after)
			if st != updOK || res.inserted != len(batch) || res.deleted != deletes {
				t.Fatalf("applyUpdate: status %d, %+v", st, res)
			}
			samples = append(samples, after.TotalAlloc-before.TotalAlloc)
		}
		slices.Sort(samples)
		return samples[len(samples)/2]
	}

	for _, compactAt := range []int{0, 1 << 30} {
		cat := newCatalog(nil)
		cat.compactAt = compactAt
		cat.load("m", base, touch.TOUCHConfig{}, true, 0)
		if got := testing.AllocsPerRun(100, func() { cat.applyUpdate("m", batch, nil) }); got != 3 {
			t.Errorf("an insert-only update with the threshold at %d allocates %v objects, want 3", compactAt, got)
		}
	}

	const slack = 1024
	empty := perUpdate(0, 0, 0)
	if got := perUpdate(8192, 0, 0); got > empty+slack {
		t.Errorf("update over 8192 pending inserts allocates %d B, over none %d B: publish is not O(batch)", got, empty)
	}
	const tombs = 2048
	if got := perUpdate(8192, tombs, 0); got > empty+slack {
		t.Errorf("insert-only update over %d tombstones allocates %d B, over none %d B: tombstones were copied", tombs, got, empty)
	}
	// The nine measured updates add 8 tombstones each, and the allocator
	// rounds the copy up to a size class, at most an eighth more.
	if got, limit := perUpdate(8192, tombs, 8), empty+slack+4*(tombs+9*8)*9/8; got > limit {
		t.Errorf("deleting update over %d tombstones allocates %d B, want ≤ %d (4 B per tombstone + the constant)", tombs, got, limit)
	}
}

// TestCompactionGaugesFollowTheFold holds one compaction inside its index
// build: compactions_in_flight reads 1 while the fold holds its reserved
// version and 0 once it has published, and delta_pending_max keeps the
// 16 the update published after the fold emptied the live delta.
func TestCompactionGaugesFollowTheFold(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	cat := newCatalog(func(ds touch.Dataset, cfg touch.TOUCHConfig) *touch.Index {
		if len(ds) != 200 { // the fold's tier, not the load
			close(started)
			<-release
		}
		return touch.BuildIndex(ds, cfg)
	})
	cat.compactAt = 8
	cat.load("m", touch.GenerateUniform(200, 81), touch.TOUCHConfig{}, true, 0)
	cat.applyUpdate("m", uniformBoxes(16, 82), nil)
	<-started
	if n, row := cat.compactionsInFlight.Load(), cat.list()[0]; n != 1 || row.deltaPendingMax != 16 {
		t.Fatalf("during the held fold: %d in flight, pending max %d; want 1 and 16", n, row.deltaPendingMax)
	}
	close(release)
	for cat.compactionsInFlight.Load() != 0 {
		runtime.Gosched()
	}
	if row := cat.list()[0]; row.Version != 2 || row.DeltaInserts != 0 || row.deltaPendingMax != 16 {
		t.Fatalf("after the fold: %+v; want version 2, nothing pending, high-water mark 16", row)
	}
}

// TestFoldYieldsToNewerFullVersion: an update that crosses the threshold
// while a re-POST is building arms a fold that must count itself skipped
// and reserve nothing — the re-POST replaces the base wholesale, so a
// fold into the old one could never publish.
func TestFoldYieldsToNewerFullVersion(t *testing.T) {
	release := make(chan struct{})
	cat := newCatalog(func(ds touch.Dataset, cfg touch.TOUCHConfig) *touch.Index {
		if len(ds) == 50 { // the re-POST
			<-release
		}
		return touch.BuildIndex(ds, cfg)
	})
	cat.compactAt = 8
	cat.load("m", touch.GenerateUniform(200, 91), touch.TOUCHConfig{}, true, 0)
	cat.load("m", touch.GenerateUniform(50, 92), touch.TOUCHConfig{}, false, 0) // version 2, held in its build
	cat.applyUpdate("m", uniformBoxes(16, 93), nil)
	for cat.compactionsSkipped.Load() == 0 {
		runtime.Gosched()
	}
	close(release)
	for snap, _ := snapshotOf(cat, "m"); snap.version != 2; snap, _ = snapshotOf(cat, "m") {
		runtime.Gosched()
	}
	if row := cat.list()[0]; row.Objects != 50 || row.DeltaInserts != 0 || cat.compactions.Load() != 0 || cat.compactionsSkipped.Load() != 1 {
		t.Fatalf("after the re-POST: %+v, %d folds published, %d skipped; want its 50 objects, nothing pending, 0 and 1",
			row, cat.compactions.Load(), cat.compactionsSkipped.Load())
	}
}
