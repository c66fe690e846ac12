package delta

import (
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

// TestSealWindow: a sealed run is a copy of its objects sorted by
// (Min[0], ID) with an extent bound that, unless it is +Inf, takes every
// object's Min[0] up to its Max[0] (so a NaN extent forces +Inf); and its
// window for any valid query box holds every object of the run that
// meets the box.
func TestSealWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 200; trial++ {
		ds := randTail(rng, 100, 1+rng.Intn(2*RunLen), trial%2 == 1)
		r := seal(ds)
		if !slices.IsSortedFunc(r.Objects, func(a, b geom.Object) int {
			if a.Box.Min[0] == b.Box.Min[0] || (math.IsNaN(a.Box.Min[0]) && math.IsNaN(b.Box.Min[0])) {
				return int(a.ID - b.ID)
			}
			if math.IsNaN(a.Box.Min[0]) || a.Box.Min[0] < b.Box.Min[0] {
				return -1
			}
			return 1
		}) || len(r.Objects) != len(ds) || &r.Objects[0] == &ds[0] {
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
			w := r.Window(&q)
			for j := range r.Objects {
				o := &r.Objects[j]
				if o.Box.Meets(&q) && !slices.ContainsFunc(w, func(x geom.Object) bool { return x.ID == o.ID }) {
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
		if got, want := Sealed(d.Runs()), d.Inserts()/RunLen*RunLen; got != want || len(d.Runs()) != d.Inserts()/RunLen {
			t.Fatalf("%d inserts: %d runs sealing %d, want %d sealing %d", d.Inserts(), len(d.Runs()), got, d.Inserts()/RunLen, want)
		}
		at := 0
		for _, r := range d.Runs() {
			ids := make([]geom.ID, 0, len(r.Objects))
			for _, o := range r.Objects {
				ids = append(ids, o.ID)
			}
			slices.Sort(ids)
			if ids[0] != d.Objects()[at].ID || ids[len(ids)-1] != d.Objects()[at+len(ids)-1].ID {
				t.Fatalf("run %v does not seal inserts %d..%d", ids, at, at+len(ids))
			}
			at += len(ids)
		}
	}
	d, _ = d.Delete([]geom.ID{5, 6}, inBase(base(5)))
	for _, g := range append(gens, d) {
		if len(g.Runs()) > 0 && &g.Runs()[0].Objects[0] != &d.Runs()[0].Objects[0] {
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
	if nd.Inserts() != 2*RunLen+7 || len(nd.Runs()) != 2 || len(nd.Runs()[0].Objects) != RunLen-44 {
		t.Fatalf("carried %d inserts in runs of %d and %d objects", nd.Inserts(), len(nd.Runs()[0].Objects), Sealed(nd.Runs()[1:]))
	}
	if &nd.Runs()[1].Objects[0] != &d.Runs()[2].Objects[0] {
		t.Fatal("a run wholly among the carried inserts was sealed again")
	}
	if want := seal(d.Objects()[RunLen+44 : 2*RunLen]); !slices.Equal(nd.Runs()[0].Objects, want.Objects) || nd.Runs()[0].Ext != want.Ext {
		t.Fatal("the carried part of the cut run is not sealed on its own")
	}
	// The carried generation seals on from its unsealed rest.
	nd, _ = nd.Insert(make([]geom.Box, RunLen))
	if len(nd.Runs()) != 3 || Sealed(nd.Runs()) != 2*RunLen-44+RunLen {
		t.Fatalf("after RunLen more inserts: %d runs sealing %d", len(nd.Runs()), Sealed(nd.Runs()))
	}
	if len(d0.Since(d0, all).Runs()) != 0 {
		t.Fatal("the fold's own delta kept runs")
	}
}

func boxesOf(ds geom.Dataset) []geom.Box {
	boxes := make([]geom.Box, len(ds))
	for i := range ds {
		boxes[i] = ds[i].Box
	}
	return boxes
}
