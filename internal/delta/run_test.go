package delta

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"touch/internal/geom"
)

// randTail returns n objects with IDs from first on and random boxes on a
// coarse lattice, so Min[0] ties are common, with NaN and infinite x
// corners where odd is set.
func randTail(rng *rand.Rand, first geom.ID, n int, odd bool) geom.Dataset {
	ds := make(geom.Dataset, n)
	for i := range ds {
		var b geom.Box
		for d := 0; d < geom.Dims; d++ {
			b.Min[d] = float64(rng.Intn(40))
			b.Max[d] = b.Min[d] + float64(rng.Intn(6))
		}
		if odd && rng.Intn(50) == 0 {
			b.Min[0] = []float64{math.NaN(), math.Inf(-1), math.Inf(1), 3}[rng.Intn(4)]
			b.Max[0] = []float64{math.NaN(), math.Inf(1), 7}[rng.Intn(3)]
		}
		ds[i] = geom.Object{ID: first + geom.ID(i), Box: b}
	}
	return ds
}

// checkRest fails t unless d's rest columns hold the inserts no run
// seals, in ID order.
func checkRest(t *testing.T, name string, d *Delta) {
	t.Helper()
	boxes, ids := d.Rest()
	want := objects(d)[Sealed(d.Runs()):]
	if !slices.Equal(runObjects(Run{Boxes: boxes, IDs: ids}), want) {
		t.Fatalf("%s: the rest's columns hold %d objects, the unsealed inserts are %d", name, len(ids), len(want))
	}
}

// runObjects zips r's two columns into objects, in the run's order.
func runObjects(r Run) geom.Dataset {
	out := make(geom.Dataset, len(r.IDs))
	for i := range out {
		out[i] = geom.Object{ID: r.IDs[i], Box: r.Boxes[i]}
	}
	return out
}

// TestSealWindow: a sealed run is a copy of its objects sorted by
// (Min[0], ID) with an extent bound that, unless it is +Inf, takes every
// object's Min[0] up to its Max[0] (so a NaN extent forces +Inf); and its
// window for any valid query box holds every object of the run that
// meets the box.
func TestSealWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 200; trial++ {
		ds := randTail(rng, 100, 1+rng.Intn(2*RunLen), trial%2 == 1)
		r := seal(columns(ds))
		objs := runObjects(r)
		if !slices.IsSortedFunc(objs, func(a, b geom.Object) int {
			if a.Box.Min[0] == b.Box.Min[0] || (math.IsNaN(a.Box.Min[0]) && math.IsNaN(b.Box.Min[0])) {
				return int(a.ID - b.ID)
			}
			if math.IsNaN(a.Box.Min[0]) || a.Box.Min[0] < b.Box.Min[0] {
				return -1
			}
			return 1
		}) || len(r.Boxes) != len(ds) || len(r.IDs) != len(ds) {
			t.Fatalf("trial %d: the run is not a (Min[0], ID)-sorted copy", trial)
		}
		for _, o := range ds {
			if math.IsInf(r.Ext, 1) {
				break
			}
			if math.IsNaN(o.Box.Max[0]-o.Box.Min[0]) || !(o.Box.Min[0]+r.Ext >= o.Box.Max[0]) {
				t.Fatalf("trial %d: Ext %v does not cover %v", trial, r.Ext, o.Box)
			}
		}
		for i := 0; i < 20; i++ {
			lo := geom.Point{float64(rng.Intn(50) - 5), float64(rng.Intn(50) - 5), float64(rng.Intn(50) - 5)}
			q := geom.NewBox(lo, geom.Point{lo[0] + float64(rng.Intn(8)), lo[1] + 9, lo[2] + 9})
			boxes, ids := r.Window(&q)
			if len(boxes) != len(ids) {
				t.Fatalf("trial %d: the window of %v has %d boxes and %d IDs", trial, q, len(boxes), len(ids))
			}
			for j := range objs {
				o := &objs[j]
				if o.Box.Meets(&q) && !slices.Contains(ids, o.ID) {
					t.Fatalf("trial %d: the window of %v misses %v", trial, q, o.Box)
				}
			}
		}
	}
}

// TestInsertSealsRuns: runs are sealed exactly when the unsealed inserts
// reach RunLen, also inside one batch, cover the inserts in order, and
// are shared — never re-sealed — by the generations that follow.
func TestInsertSealsRuns(t *testing.T) {
	d := NewForBase(base(5))
	var gens []*Delta
	for _, n := range []int{1, RunLen - 2, 1, 1, 3*RunLen + 17, 0} {
		d, _ = d.Insert(make([]geom.Box, n))
		gens = append(gens, d)
		checkRest(t, fmt.Sprintf("after %d inserts", d.Inserts()), d)
		if got, want := Sealed(d.Runs()), d.Inserts()/RunLen*RunLen; got != want || len(d.Runs()) != d.Inserts()/RunLen {
			t.Fatalf("%d inserts: %d runs sealing %d, want %d sealing %d", d.Inserts(), len(d.Runs()), got, d.Inserts()/RunLen, want)
		}
		at := 0
		for _, r := range d.Runs() {
			ids := slices.Sorted(slices.Values(r.IDs))
			if ids[0] != d.ids[at] || ids[len(ids)-1] != d.ids[at+len(ids)-1] {
				t.Fatalf("run %v does not seal inserts %d..%d", ids, at, at+len(ids))
			}
			at += len(ids)
		}
	}
	d, _ = d.Delete([]geom.ID{5, 6}, inBase(base(5)))
	for i, g := range append(gens, d) {
		checkRest(t, fmt.Sprintf("generation %d, later", i), g)
		if len(g.Runs()) > 0 && &g.Runs()[0].IDs[0] != &d.Runs()[0].IDs[0] {
			t.Fatal("a later generation sealed the first run again")
		}
	}
}

// TestSinceCarriesRuns: a fold built from d0 and published over d carries
// the runs of d that lie wholly in what d added, as they are, and seals
// the added part of the run it cut on its own.
func TestSinceCarriesRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	d0 := NewForBase(base(3))
	d0, _ = d0.Insert(boxesOf(randTail(rng, 0, RunLen+44, false)))
	d, _ := d0.Insert(boxesOf(randTail(rng, 0, 2*RunLen+7, false)))
	nd := d.Since(d0, all)
	if nd.Inserts() != 2*RunLen+7 || len(nd.Runs()) != 2 || len(nd.Runs()[0].IDs) != RunLen-44 {
		t.Fatalf("carried %d inserts in runs of %d and %d objects", nd.Inserts(), len(nd.Runs()[0].IDs), Sealed(nd.Runs()[1:]))
	}
	if &nd.Runs()[1].IDs[0] != &d.Runs()[2].IDs[0] {
		t.Fatal("a run wholly among the carried inserts was sealed again")
	}
	if want := seal(d.boxes[RunLen+44:2*RunLen], d.ids[RunLen+44:2*RunLen]); !slices.Equal(runObjects(nd.Runs()[0]), runObjects(want)) || nd.Runs()[0].Ext != want.Ext {
		t.Fatal("the carried part of the cut run is not sealed on its own")
	}
	checkRest(t, "carried", nd)
	// The carried generation seals on from its unsealed rest.
	nd, _ = nd.Insert(make([]geom.Box, RunLen))
	if len(nd.Runs()) != 3 || Sealed(nd.Runs()) != 2*RunLen-44+RunLen {
		t.Fatalf("after RunLen more inserts: %d runs sealing %d", len(nd.Runs()), Sealed(nd.Runs()))
	}
	checkRest(t, "carried, then sealed on", nd)
	if own := d0.Since(d0, all); len(own.Runs()) != 0 || own.Inserts() != 0 {
		t.Fatal("the fold's own delta kept runs or inserts")
	}
	// A fold built past the last run takes part of the rest: the rest of
	// what it carries is the part it did not take.
	d1, _ := d.Insert(boxesOf(randTail(rng, 0, 30, false)))
	checkRest(t, "a fold through the rest", d1.Since(d, all))
	// Pending seals and leaves what Insert would.
	p := Pending(objects(d), nil)
	if len(p.Runs()) != len(d.Runs()) || Sealed(p.Runs()) != Sealed(d.Runs()) {
		t.Fatalf("Pending sealed %d runs over %d inserts, Insert %d over %d", len(p.Runs()), Sealed(p.Runs()), len(d.Runs()), Sealed(d.Runs()))
	}
	checkRest(t, "pending", p)
}

func boxesOf(ds geom.Dataset) []geom.Box {
	boxes := make([]geom.Box, len(ds))
	for i := range ds {
		boxes[i] = ds[i].Box
	}
	return boxes
}
