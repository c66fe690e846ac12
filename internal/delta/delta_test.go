package delta

import (
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"unsafe"

	"touch/internal/geom"
)

func box(i float64) geom.Box {
	return geom.Box{Min: geom.Point{i, i, i}, Max: geom.Point{i + 1, i + 1, i + 1}}
}

// objects zips d's two columns into objects, tombstoned inserts
// included, in ID order.
func objects(d *Delta) geom.Dataset { return runObjects(Run{Boxes: d.boxes, IDs: d.ids}) }

func base(n int) geom.Dataset {
	ds := make(geom.Dataset, n)
	for i := range ds {
		ds[i] = geom.Object{ID: geom.ID(i), Box: box(float64(i))}
	}
	return ds
}

// all is the cut of a fold that rewrites every tier: below every ID.
const all = geom.ID(-1 << 31)

func inBase(ds geom.Dataset) func(geom.ID) bool {
	return func(id geom.ID) bool {
		return id >= 0 && int(id) < len(ds)
	}
}

func TestNilDeltaReads(t *testing.T) {
	var d *Delta
	if !d.Empty() || d.Size() != 0 || d.Inserts() != 0 || d.Tombstones() != 0 {
		t.Fatal("nil delta is not empty")
	}
	if d.Tombstoned(3) || d.Live() != nil || d.TombIDs() != nil {
		t.Fatal("nil delta read accessors")
	}
	if d.NextID() != 0 {
		t.Fatal("nil delta NextID")
	}
}

func TestInsertDeleteMerged(t *testing.T) {
	bs := base(4)
	d := NewForBase(bs)
	if d.NextID() != 4 {
		t.Fatalf("NextID = %d, want 4", d.NextID())
	}

	d, first := d.Insert([]geom.Box{box(10), box(11)})
	if first != 4 || d.Inserts() != 2 || d.NextID() != 6 {
		t.Fatalf("after insert: first=%d inserts=%d next=%d", first, d.Inserts(), d.NextID())
	}

	// Delete one base object, one insert, one unknown and one duplicate.
	d, n := d.Delete([]geom.ID{1, 5, 99, 1}, inBase(bs))
	if n != 2 {
		t.Fatalf("deleted = %d, want 2", n)
	}
	if !d.Tombstoned(1) || !d.Tombstoned(5) || d.Tombstoned(0) {
		t.Fatal("tombstone membership")
	}
	if live := d.Live(); len(live) != 1 || live[0].ID != 4 {
		t.Fatalf("Live = %v", live)
	}

	merged := d.Merged(bs)
	var ids []geom.ID
	for _, o := range merged {
		ids = append(ids, o.ID)
	}
	want := []geom.ID{0, 2, 3, 4}
	if !slices.Equal(ids, want) {
		t.Fatalf("Merged IDs = %v, want %v", ids, want)
	}
	if !slices.IsSortedFunc(merged, func(a, b geom.Object) int { return int(a.ID - b.ID) }) {
		t.Fatal("merged dataset not ID-ascending")
	}
	held := slices.Clone(bs)
	if inPlace := d.MergedInPlace(held); !slices.Equal(inPlace, merged) || &inPlace[0] != &held[0] {
		t.Fatalf("MergedInPlace = %v, want Merged's %v in the slice it was given", inPlace, merged)
	}
}

func TestDeleteAlreadyDeadAndUnknownKeepsValue(t *testing.T) {
	bs := base(2)
	d := NewForBase(bs)
	d1, n := d.Delete([]geom.ID{7}, inBase(bs))
	if n != 0 || d1 != d {
		t.Fatal("no-op delete must return the receiver")
	}
	d2, _ := d.Delete([]geom.ID{0}, inBase(bs))
	if d.Tombstoned(0) {
		t.Fatal("Delete mutated the parent delta")
	}
	if !d2.Tombstoned(0) {
		t.Fatal("child delta missing tombstone")
	}
}

func TestSince(t *testing.T) {
	bs := base(3)
	d0 := NewForBase(bs)
	d0, _ = d0.Insert([]geom.Box{box(20)}) // id 3
	d0, _ = d0.Delete([]geom.ID{0}, inBase(bs))

	// Updates after the d0 snapshot: one more insert, delete of a base
	// object, delete of a folded insert, delete of the new insert.
	d1, _ := d0.Insert([]geom.Box{box(21)}) // id 4
	d1, _ = d1.Delete([]geom.ID{1, 3, 4}, inBase(bs))

	nd := d1.Since(d0, all)
	if nd.Inserts() != 1 || nd.ids[0] != 4 {
		t.Fatalf("Since inserts = %v", objects(nd))
	}
	if got := nd.TombIDs(); !slices.Equal(got, []geom.ID{1, 3, 4}) {
		t.Fatalf("Since tombs = %v, want [1 3 4]", got)
	}
	if nd.Tombstoned(0) {
		t.Fatal("folded tombstone survived Since")
	}
	if nd.NextID() != 5 {
		t.Fatalf("Since NextID = %d, want 5", nd.NextID())
	}

	// Folding d0 then applying Since must equal folding d1 directly.
	viaFold := nd.Merged(d0.Merged(bs))
	direct := d1.Merged(bs)
	if !slices.Equal(viaFold, direct) {
		t.Fatalf("fold+since = %v, direct = %v", viaFold, direct)
	}
}

func TestCanInsert(t *testing.T) {
	d := &Delta{nextID: maxID - 1}
	if !d.CanInsert(2) {
		t.Fatal("two IDs left, CanInsert(2) = false")
	}
	if d.CanInsert(3) {
		t.Fatal("CanInsert past the int32 ID space")
	}
}

// TestDeleteKeepsTombstonesSorted drives Delete through every kind of
// ID at once — base and insert IDs, repeats inside the batch, IDs
// already dead, IDs nobody ever held, all out of order — and checks the
// tombstones stay one ascending duplicate-free slice that parents do
// not share.
func TestDeleteKeepsTombstonesSorted(t *testing.T) {
	bs := base(10)
	d0 := NewForBase(bs)
	d0, first := d0.Insert([]geom.Box{box(20), box(21), box(22), box(23)}) // ids 10..13
	if first != 10 {
		t.Fatalf("first insert ID = %d, want 10", first)
	}

	d1, n := d0.Delete([]geom.ID{12, 3, 12, 99, 7, 3, -4, 14}, inBase(bs))
	if n != 3 || !slices.Equal(d1.Tombs(), []geom.ID{3, 7, 12}) {
		t.Fatalf("first delete: n=%d tombs=%v, want 3 and [3 7 12]", n, d1.Tombs())
	}
	// Already-dead IDs are skipped, new ones merge in on both sides of
	// and between the old ones.
	d2, n := d1.Delete([]geom.ID{13, 7, 0, 5, 12, 10}, inBase(bs))
	if n != 4 || !slices.Equal(d2.Tombs(), []geom.ID{0, 3, 5, 7, 10, 12, 13}) {
		t.Fatalf("second delete: n=%d tombs=%v, want 4 and [0 3 5 7 10 12 13]", n, d2.Tombs())
	}
	if !slices.Equal(d1.Tombs(), []geom.ID{3, 7, 12}) || d0.Tombstones() != 0 {
		t.Fatalf("Delete changed an ancestor: d0=%v d1=%v", d0.Tombs(), d1.Tombs())
	}
	for _, id := range []geom.ID{0, 3, 5, 7, 10, 12, 13} {
		if !d2.Tombstoned(id) {
			t.Fatalf("Tombstoned(%d) = false", id)
		}
	}
	for _, id := range []geom.ID{-4, 1, 11, 14, 99} {
		if d2.Tombstoned(id) {
			t.Fatalf("Tombstoned(%d) = true", id)
		}
	}
	if live := d2.Live(); len(live) != 1 || live[0].ID != 11 {
		t.Fatalf("Live = %v, want only ID 11", live)
	}
	if got := d2.TombIDs(); !slices.Equal(got, d2.Tombs()) || &got[0] == &d2.Tombs()[0] {
		t.Fatal("TombIDs must be a copy of Tombs")
	}
	if objects(d2)[2].ID != 12 || d2.Inserts() != 4 {
		t.Fatalf("Objects must keep tombstoned inserts, got %v", objects(d2))
	}
}

// TestInsertSharesOneArray pins the shared-array discipline: a linear
// chain of inserts extends one backing array that earlier generations
// keep reading untouched.
func TestInsertSharesOneArray(t *testing.T) {
	d0, _ := NewForBase(nil).Insert([]geom.Box{box(1), box(2), box(3)})
	if cap(d0.boxes) < 4 || cap(d0.ids) < 4 {
		t.Skip("append left no spare capacity to share")
	}
	d1, _ := d0.Insert([]geom.Box{box(4)})
	d2, _ := d1.Insert([]geom.Box{box(5)})
	if &d0.boxes[0] != &d1.boxes[0] || &d0.ids[0] != &d1.ids[0] {
		t.Fatal("a linear history reallocated with spare capacity left")
	}
	if d0.Inserts() != 3 || d1.Inserts() != 4 || d2.Inserts() != 5 || d1.boxes[3] != box(4) {
		t.Fatalf("generations see %d/%d/%d inserts", d0.Inserts(), d1.Inserts(), d2.Inserts())
	}
}

// TestSinceAndMergedWalks checks the two merge-walks against their
// definitions on a delta whose tombstones interleave folded and new
// ones at both ends.
func TestSinceAndMergedWalks(t *testing.T) {
	bs := base(12)
	d0 := NewForBase(bs)
	d0, _ = d0.Insert([]geom.Box{box(30), box(31)}) // ids 12, 13
	d0, _ = d0.Delete([]geom.ID{2, 6, 13}, inBase(bs))
	d1, _ := d0.Insert([]geom.Box{box(32), box(33)}) // ids 14, 15
	d1, _ = d1.Delete([]geom.ID{0, 4, 11, 12, 15}, inBase(bs))

	nd := d1.Since(d0, all)
	if !slices.Equal(nd.Tombs(), []geom.ID{0, 4, 11, 12, 15}) {
		t.Fatalf("Since tombs = %v, want [0 4 11 12 15]", nd.Tombs())
	}
	if nd.Inserts() != 2 || objects(nd)[0].ID != 14 || nd.NextID() != 16 {
		t.Fatalf("Since inserts = %v next=%d", objects(nd), nd.NextID())
	}
	if same := d1.Since(d1, all); !same.Empty() || same.NextID() != 16 {
		t.Fatalf("Since(self) = %d inserts, %v", same.Inserts(), same.Tombs())
	}

	var want []geom.ID
	for id := geom.ID(0); id < 16; id++ {
		if !d1.Tombstoned(id) {
			want = append(want, id)
		}
	}
	ids := func(ds geom.Dataset) (out []geom.ID) {
		for _, o := range ds {
			out = append(out, o.ID)
		}
		return out
	}
	if got := ids(d1.Merged(bs)); !slices.Equal(got, want) {
		t.Fatalf("Merged = %v, want %v", got, want)
	}
	if got := ids(nd.Merged(d0.Merged(bs))); !slices.Equal(got, want) {
		t.Fatalf("fold then Since = %v, want %v", got, want)
	}
	if got := d1.Since(d1, all).Merged(bs); &got[0] != &bs[0] {
		t.Fatal("an empty delta must return the base itself")
	}
}

// TestApplyEqualsDeleteThenInsert runs the batch shapes FuzzDeltaMerge
// drives a Mutable with down two chains, one through Apply and one
// through Delete then Insert, and requires the same delta and the same
// results after every step.
func TestApplyEqualsDeleteThenInsert(t *testing.T) {
	bs := base(24)
	var bulkDel []geom.ID // every other one of the inserts 29..92, every third base ID
	for j := 0; j < 64; j += 2 {
		bulkDel = append(bulkDel, geom.ID(29+j), geom.ID(j/2*3))
	}
	script := []struct {
		inserts int
		deletes []geom.ID
	}{
		{3, nil}, {0, []geom.ID{7}}, {0, []geom.ID{7, 99, -1, 7}}, {1, []geom.ID{25}},
		// 28 is the ID this batch's own insert is about to receive:
		// deletes apply first, so it must stay live.
		{1, []geom.ID{28, 3}},
		{64, nil}, {0, bulkDel}, {2, []geom.ID{0, 1, 30, 90, 500}},
		{0, nil}, {0, []geom.ID{7, 99}}, // nothing changes: the receiver itself comes back
	}
	viaApply, viaSteps := NewForBase(bs), NewForBase(bs)
	for i, step := range script {
		boxes := make([]geom.Box, step.inserts)
		next, first, deleted, ok := viaApply.Apply(boxes, step.deletes, inBase(bs))
		want, wantDeleted := viaSteps.Delete(step.deletes, inBase(bs))
		want, wantFirst := want.Insert(boxes)
		if !ok || first != wantFirst || deleted != wantDeleted || next.NextID() != want.NextID() ||
			!slices.Equal(objects(next), objects(want)) || !slices.Equal(next.Tombs(), want.Tombs()) {
			t.Fatalf("step %d: Apply = (ok %v, first %d, deleted %d, %v, tombs %v), Delete then Insert = (first %d, deleted %d, %v, tombs %v)",
				i, ok, first, deleted, objects(next), next.Tombs(), wantFirst, wantDeleted, objects(want), want.Tombs())
		}
		if (next == viaApply) != (want == viaSteps) {
			t.Fatalf("step %d: Apply returned the receiver itself: %v, Delete then Insert: %v", i, next == viaApply, want == viaSteps)
		}
		viaApply, viaSteps = next, want
	}
	if viaApply.Tombstoned(28) || !viaApply.Tombstoned(3) {
		t.Fatal("a batch tombstoned the insert it was about to make, or skipped the base ID beside it")
	}

	// Inserts that do not fit the ID space refuse the whole batch, its
	// deletes included, and leave the receiver untouched.
	full := &Delta{nextID: maxID - 1}
	if next, _, deleted, ok := full.Apply(make([]geom.Box, 3), []geom.ID{0, 1}, inBase(bs)); ok || next != full || deleted != 0 || full.Size() != 0 {
		t.Fatalf("overflowing Apply = (%+v, deleted %d, ok %v), want the untouched receiver and ok=false", next, deleted, ok)
	}
	if next, first, deleted, ok := full.Apply(make([]geom.Box, 2), []geom.ID{0, 1}, inBase(bs)); !ok || first != maxID-1 || deleted != 2 || next.Size() != 4 {
		t.Fatalf("Apply of the last two IDs = (first %d, deleted %d, ok %v)", first, deleted, ok)
	}
}

// TestSinceBelowTheCutSettles walks one dataset through the two kinds of
// fold over three tiers' worth of history: tombstones below a fold's cut
// stay readable but stop counting, tombstones at or above it leave with
// their objects, what arrived during the fold carries over unfolded, and
// at every step the tiers a reader would hold, merged under the delta,
// equal the plain account of what is live.
func TestSinceBelowTheCutSettles(t *testing.T) {
	ids := func(ds geom.Dataset) (out []geom.ID) {
		for _, o := range ds {
			out = append(out, o.ID)
		}
		return out
	}
	tier0 := base(10) // IDs 0..9
	held := func(tiers ...geom.Dataset) func(geom.ID) bool {
		return func(id geom.ID) bool {
			for _, ds := range tiers {
				if IDsOf(ids(ds)).Holds(id) {
					return true
				}
			}
			return false
		}
	}

	// Tail 10..13, tombstones into tier 0 and into the tail.
	d0 := NewForBase(tier0)
	d0, _, _, _ = d0.Apply(make([]geom.Box, 4), nil, held(tier0))
	d0, _, n, _ := d0.Apply(nil, []geom.ID{2, 11, 7}, held(tier0))
	if n != 3 || d0.Size() != 7 {
		t.Fatalf("deleted %d, size %d; want 3 and 7", n, d0.Size())
	}
	// The tail becomes tier 1 (cut = its first ID) while two more updates land.
	tier1 := d0.Merged()
	if got := ids(tier1); !slices.Equal(got, []geom.ID{10, 12, 13}) {
		t.Fatalf("tier 1 = %v, want [10 12 13]", got)
	}
	d1, _, _, _ := d0.Apply(make([]geom.Box, 2), []geom.ID{3, 12}, held(tier0)) // 12 is in the tail d0 folds
	fold := d0.Since(d0, 10)
	if !slices.Equal(fold.Tombs(), []geom.ID{2, 7}) || !fold.Empty() || fold.Tombstones() != 0 || fold.NextID() != 14 {
		t.Fatalf("the fold's own delta: tombs %v, size %d, next %d; want [2 7] settled, 0, 14", fold.Tombs(), fold.Size(), fold.NextID())
	}
	d2 := d1.Since(d0, 10)
	if !slices.Equal(d2.Tombs(), []geom.ID{2, 3, 7, 12}) || d2.Tombstones() != 2 || d2.Inserts() != 2 || d2.Size() != 4 {
		t.Fatalf("carried over: tombs %v (%d unfolded), %d inserts", d2.Tombs(), d2.Tombstones(), d2.Inserts())
	}
	if got, want := ids(d2.Merged(tier0, tier1)), []geom.ID{0, 1, 4, 5, 6, 8, 9, 10, 13, 14, 15}; !slices.Equal(got, want) {
		t.Fatalf("tiers merged under the carried delta = %v, want %v", got, want)
	}
	// An insert keeps the settled count; a delete of an ID a settled
	// tombstone already names is a no-op; one into tier 1 is found by
	// search, not by the consecutive-run shortcut (11 left a gap there).
	d3, _, n, _ := d2.Apply(make([]geom.Box, 1), []geom.ID{2, 11, 13}, held(tier0, tier1))
	if n != 1 || d3.Tombstones() != 3 || !slices.Equal(d3.Tombs(), []geom.ID{2, 3, 7, 12, 13}) {
		t.Fatalf("deleted %d, tombs %v (%d unfolded); want 1, [2 3 7 12 13], 3", n, d3.Tombs(), d3.Tombstones())
	}
	// A fold from tier 1 up: tombstones at or above its first ID go, the
	// ones into tier 0 stay and are all settled now.
	merged := d3.Merged(tier1)
	if got := ids(merged); !slices.Equal(got, []geom.ID{10, 14, 15, 16}) {
		t.Fatalf("tier 1 rewritten = %v, want [10 14 15 16]", got)
	}
	d4 := d3.Since(d3, tier1[0].ID)
	if !slices.Equal(d4.Tombs(), []geom.ID{2, 3, 7}) || !d4.Empty() || d4.NextID() != 17 {
		t.Fatalf("after the merge: tombs %v, size %d, next %d", d4.Tombs(), d4.Size(), d4.NextID())
	}
	if got, want := ids(d4.Merged(tier0, merged)), []geom.ID{0, 1, 4, 5, 6, 8, 9, 10, 14, 15, 16}; !slices.Equal(got, want) {
		t.Fatalf("after the merge, live = %v, want %v", got, want)
	}
	// A full fold settles nothing and keeps nothing.
	if d5 := d4.Since(d4, all); len(d5.Tombs()) != 0 || d5.NextID() != 17 {
		t.Fatalf("after a full fold: tombs %v", d5.Tombs())
	}

	// Restored: the persisted mark wins over the largest live ID, and the
	// other way round for a file that carries none.
	if r := Restored([]geom.ID{2, 3}, 17, 16); r.NextID() != 17 || !r.Empty() || !r.Tombstoned(3) {
		t.Fatalf("Restored(next 17, max 16): next %d, size %d", r.NextID(), r.Size())
	}
	if r := Restored(nil, 0, 16); r.NextID() != 17 {
		t.Fatalf("Restored(next 0, max 16): next %d, want 17", r.NextID())
	}
}

// TestInsertAllocatesPerBatch: an insert appends into the spare room of
// the columns its parent shares, so inserting 16 boxes, again and again,
// on one parent whose 2,048 inserts are all sealed — as a retried update
// does — allocates the new delta and nothing in proportion to what is
// pending: less than the batch's own boxes and IDs a call.
func TestInsertAllocatesPerBatch(t *testing.T) {
	parent, _ := NewForBase(nil).Insert(make([]geom.Box, 8*RunLen))
	if Sealed(parent.Runs()) != parent.Inserts() {
		t.Fatalf("premise: %d of %d inserts sealed", Sealed(parent.Runs()), parent.Inserts())
	}
	batch := make([]geom.Box, 16)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	parent.Insert(batch)
	const calls = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		parent.Insert(batch)
	}
	runtime.ReadMemStats(&after)
	perCall := (after.TotalAlloc - before.TotalAlloc) / calls
	if limit := uint64(len(batch)) * uint64(unsafe.Sizeof(geom.Box{})+unsafe.Sizeof(geom.ID(0))); perCall >= limit {
		t.Errorf("an insert of %d boxes on %d sealed inserts allocates %d B a call, want under %d", len(batch), parent.Inserts(), perCall, limit)
	}
}
