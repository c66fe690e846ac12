package testutil

import (
	"math/rand"
	"slices"
	"testing"

	"touch"
	"touch/internal/core"
	"touch/internal/geom"
	"touch/internal/nl"
	"touch/internal/stats"
)

// TestKNNSkipMatchesFilteredSearch is the property the delta layer's
// kNN rests on, checked on the fuzz targets' coarse lattice where
// distance ties are the rule: a search that skips a set of IDs returns,
// result for result, what filtering the unskipped search asked for
// k+|skip| neighbors returns — the old over-asking Overlay.KNN. The
// skip sets cover the corners: nothing skipped, a random subset (dead
// and live objects tie constantly on the lattice), the k nearest,
// every object, IDs the tree never held, and k beyond the live count.
func TestKNNSkipMatchesFilteredSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(14001))
	for round := 0; round < 60; round++ {
		data := make([]byte, 7+bytesPerBox*(1+rng.Intn(120)))
		rng.Read(data)
		ds, _ := fuzzDataset(data, 7, 128)
		tree := core.Build(ds, core.Config{Partitions: 1 + rng.Intn(16)})
		p := tree.NewProbe()
		q := geom.Point{fuzzVal(data, 1), fuzzVal(data, 3), fuzzVal(data, 5)}
		var c stats.Counters

		nearest := slices.Clone(p.KNN(q, len(ds), &c))
		skips := [][]geom.ID{nil, {-3, geom.ID(len(ds)), geom.ID(len(ds)) + 9}}
		var random, all []geom.ID
		for i := range ds {
			all = append(all, geom.ID(i))
			if rng.Intn(3) == 0 {
				random = append(random, geom.ID(i))
			}
		}
		skips = append(skips, random, all, append([]geom.ID{-1}, random...))
		for _, n := range []int{1, 5, len(ds) - 1} {
			var head []geom.ID
			for _, nb := range nearest[:min(max(n, 0), len(nearest))] {
				head = append(head, nb.ID)
			}
			slices.Sort(head)
			skips = append(skips, head)
		}

		for _, skip := range skips {
			for _, k := range []int{1, 2, 7, len(ds), len(ds) + 5} {
				var want []geom.Neighbor
				for _, nb := range p.KNN(q, k+len(skip), &c) {
					if _, dead := slices.BinarySearch(skip, nb.ID); !dead && len(want) < k {
						want = append(want, nb)
					}
				}
				c = stats.Counters{}
				got := p.KNN(q, k, &c, skip...)
				if !slices.Equal(got, want) {
					t.Fatalf("round %d: KNN(%v, k=%d, skip=%v) on %d objects:\n got %v\nwant %v",
						round, q, k, skip, len(ds), got, want)
				}
				if c.Results != int64(len(got)) {
					t.Fatalf("round %d: Results=%d for %d neighbors", round, c.Results, len(got))
				}
			}
		}
	}
}

// TestKNNTiesAndSkipsMatchBruteForce holds the bounded search to the kNN
// contract where it is easiest to break: a lattice of points, every one
// present five times under far-apart IDs, so that dozens of objects
// share the k-th distance; tombstones on some of the tied IDs; pending
// inserts at the very same positions. The index sits in four buckets of
// ten blocks, so nodes, blocks and objects all meet the bound at a tie.
// A second Mutable holds the lattice in three tiers — two more copies of
// it folded in one after the other — under tombstones in every tier and
// a pending tail, so the tie groups also span the trees that share the
// one heap. Index.KNN and both Mutable.View().KNN must return the
// brute-force (Distance, ID) order for k = 1, 10, n and n+5. A search that prunes at
// >= instead of > loses the tied objects with the smaller IDs; one that
// lets a tombstoned object tighten the bound before looking it up in the
// skip list loses live ones behind it.
func TestKNNTiesAndSkipsMatchBruteForce(t *testing.T) {
	const side, copies, step = 8, 5, 10.0
	const cells = side * side * side
	at := func(cell int) geom.Box {
		return geom.BoxAt(geom.Point{step * float64(cell/(side*side)), step * float64(cell/side%side), step * float64(cell%side)})
	}
	ds := make(touch.Dataset, 0, copies*cells)
	for c := 0; c < copies; c++ {
		for cell := 0; cell < cells; cell++ {
			ds = append(ds, touch.Object{ID: geom.ID(len(ds)), Box: at(cell)})
		}
	}
	cfg := touch.TOUCHConfig{Partitions: 4}
	ix := touch.BuildIndex(ds, cfg)
	m, err := touch.NewMutable(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.SetCompactThreshold(0)
	// Tombstones: every fifth ID, so every tie group loses some members
	// and keeps others. Pending inserts: one more copy of every third
	// lattice point, tying with the base objects there; a few of those
	// deleted again.
	var dead []geom.ID
	for id := 0; id < len(ds); id += 5 {
		dead = append(dead, geom.ID(id))
	}
	m.Delete(dead)
	var extra []geom.Box
	for cell := 0; cell < cells; cell += 3 {
		extra = append(extra, at(cell))
	}
	inserted, err := m.Insert(extra)
	if err != nil {
		t.Fatal(err)
	}
	m.Delete([]geom.ID{inserted[0], inserted[7], inserted[len(inserted)-1]})
	live := m.Dataset()
	isDead := func(id geom.ID) bool { _, ok := slices.BinarySearch(dead, id); return ok }

	// Three tiers: every lattice point once more, folded; every third one
	// once more, folded; then the same tombstones and pending inserts as
	// above plus tombstones into both upper tiers.
	tiered, err := touch.NewMutable(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tiered.SetCompactThreshold(0)
	var all []geom.Box
	for cell := 0; cell < cells; cell++ {
		all = append(all, at(cell))
	}
	var upper []geom.ID
	for _, boxes := range [][]geom.Box{all, extra} {
		ids, err := tiered.Insert(boxes)
		if err != nil {
			t.Fatal(err)
		}
		foldTail(t, tiered)
		for i := 0; i < len(ids); i += 4 {
			upper = append(upper, ids[i])
		}
	}
	if tiers := tiered.View().Tiers(); len(tiers) != 3 {
		t.Fatalf("the fixture holds %d tiers, want 3: %+v", len(tiers), tiers)
	}
	tiered.Delete(append(upper, dead...))
	if inserted, err = tiered.Insert(extra); err != nil {
		t.Fatal(err)
	}
	tiered.Delete([]geom.ID{inserted[0], inserted[7], inserted[len(inserted)-1]})
	for i, tier := range tiered.View().Tiers() {
		if tier.Dead == 0 {
			t.Fatalf("the fixture has no tombstone in tier %d", i)
		}
	}

	// Lattice points (30 objects at distance 10, 60 at √200), cell centres
	// (40 at the nearest distance), edge midpoints, and points outside the
	// lattice facing a whole face of it.
	var queries []geom.Point
	for _, cell := range []int{0, 73, 219, 292, cells - 1} {
		p := at(cell).Min
		queries = append(queries, p,
			geom.Point{p[0] + step/2, p[1] + step/2, p[2] + step/2},
			geom.Point{p[0] + step/2, p[1], p[2]},
			geom.Point{p[0], p[1] - step/2, p[2] + step/2})
	}
	queries = append(queries, geom.Point{-50, 35, 35}, geom.Point{35, 35, 200}, geom.Point{-5, -5, -5})

	tiedWithDeadAndPending := 0
	for _, q := range queries {
		for _, run := range []struct {
			name string
			knn  func(geom.Point, int) ([]touch.Neighbor, error)
			ds   touch.Dataset
		}{
			{"Index", ix.KNN, ds},
			{"Mutable.View", m.View().KNN, live},
			{"three-tier Mutable.View", tiered.View().KNN, tiered.Dataset()},
		} {
			n := len(run.ds)
			for _, k := range []int{1, 10, n, n + 5} {
				got, err := run.knn(q, k)
				if err != nil {
					t.Fatal(err)
				}
				want := nl.KNN(run.ds, q, k)
				if !slices.Equal(got, want) {
					t.Fatalf("%s.KNN(%v, %d) over %d objects: first difference at %d:\n got %v\nwant %v",
						run.name, q, k, n, firstDiff(got, want), head(got, 12), head(want, 12))
				}
			}
		}
		// Premise: at k = 10 the k-th distance is shared by dozens of
		// objects, tombstoned base objects and pending inserts among them.
		kth := nl.KNN(live, q, 10)[9].Distance
		tied, tiedDead, tiedPending := 0, 0, 0
		for _, o := range ds {
			if o.Box.PointDistance(q) == kth && isDead(o.ID) {
				tiedDead++
			}
		}
		for _, o := range live {
			if o.Box.PointDistance(q) == kth {
				tied++
				if int(o.ID) >= len(ds) {
					tiedPending++
				}
			}
		}
		if tied >= 24 && tiedDead > 0 && tiedPending > 0 {
			tiedWithDeadAndPending++
		}
	}
	if tiedWithDeadAndPending < 5 {
		t.Fatalf("premise: only %d of %d query points have two dozen live objects, a tombstone and a pending insert at the 10th distance",
			tiedWithDeadAndPending, len(queries))
	}
}

func head[T any](s []T, n int) []T { return s[:min(n, len(s))] }
