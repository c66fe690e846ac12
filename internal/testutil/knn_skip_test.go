package testutil

import (
	"math/rand"
	"slices"
	"testing"

	"touch/internal/core"
	"touch/internal/geom"
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
