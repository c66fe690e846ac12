// Package testutil is the randomized differential-testing harness of
// the repository: seeded dataset generators spanning uniform, clustered
// and degenerate shapes, canonicalization helpers, and checkers that
// compare every join algorithm and every Index query path against the
// brute-force oracles of internal/nl. The tests of this package (and
// the fuzz targets in fuzz_test.go) drive the harness; other packages
// may import it to reuse the dataset table.
package testutil

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"

	"touch"
	"touch/internal/geom"
)

// Case is one differential-test workload: a named pair of datasets.
// Degenerate shapes (empty, single-object, all-identical boxes) ride in
// the same table as the random ones so every checker covers them
// without special-casing.
type Case struct {
	Name string
	A, B touch.Dataset
	// KeepOrder makes every join index A as given instead of letting the
	// join-order heuristic pick the smaller side.
	KeepOrder bool
}

// IdenticalSet returns n objects sharing one box — the pathological
// input for tie-breaking, STR packing and grid sizing alike.
func IdenticalSet(n int, box geom.Box) touch.Dataset {
	ds := make(touch.Dataset, n)
	for i := range ds {
		ds[i] = touch.Object{ID: geom.ID(i), Box: box}
	}
	return ds
}

// withAnchor appends one small object in a far corner of the generator
// universe. Grid-partitioned joins (PBSM) size their grid from the data
// MBR: a dataset of purely identical boxes collapses the universe onto
// that box, making every object overlap every one of the resolution³
// cells — an inherent O(n·cells) degeneration, not a bug. The anchor
// keeps the universe at generator scale so the identical boxes stress
// tie handling without the grid blowup; the pure all-identical shape is
// still exercised by the query harness (QueryDatasets), which never
// builds a space-partitioned grid.
func withAnchor(ds touch.Dataset, corner geom.Point) touch.Dataset {
	anchor := geom.NewBox(corner, geom.Point{corner[0] + 1, corner[1] + 1, corner[2] + 1})
	return append(ds, touch.Object{ID: geom.ID(len(ds)), Box: anchor})
}

// Cases builds the harness workload table from a seed: random uniform
// and clustered pairs at a few sizes plus the degenerate shapes. The
// same seed always yields the same table.
func Cases(seed int64) []Case {
	box := geom.NewBox(geom.Point{100, 100, 100}, geom.Point{110, 110, 110})
	return []Case{
		{Name: "uniform-small", A: touch.GenerateUniform(60, seed).Expand(20), B: touch.GenerateUniform(90, seed+1)},
		{Name: "uniform-medium", A: touch.GenerateUniform(400, seed+2).Expand(8), B: touch.GenerateUniform(700, seed+3)},
		{Name: "clustered", A: touch.GenerateClustered(350, seed+4).Expand(8), B: touch.GenerateClustered(500, seed+5)},
		{Name: "gaussian-vs-uniform", A: touch.GenerateGaussian(300, seed+6).Expand(8), B: touch.GenerateUniform(300, seed+7)},
		{Name: "empty-a", A: nil, B: touch.GenerateUniform(40, seed+8)},
		{Name: "empty-b", A: touch.GenerateUniform(40, seed+9).Expand(5), B: nil},
		{Name: "both-empty", A: nil, B: nil},
		{Name: "single-object", A: touch.GenerateUniform(1, seed+10).Expand(60), B: touch.GenerateUniform(50, seed+11)},
		{Name: "all-identical", A: withAnchor(IdenticalSet(60, box), geom.Point{0, 0, 0}),
			B: withAnchor(IdenticalSet(90, box), geom.Point{999, 999, 999})},
		{Name: "identical-vs-uniform", A: IdenticalSet(64, box), B: touch.GenerateUniform(200, seed+12)},
		// The serving regime: a handful of probe boxes against a large
		// index, where TOUCH's local join prunes deepest. The order
		// heuristic would index the probe instead, so the order is kept.
		{Name: "probe-100x-smaller", A: touch.GenerateUniform(6000, seed+13).Expand(8), B: touch.GenerateUniform(60, seed+14).Expand(30), KeepOrder: true},
	}
}

// QueryDatasets lists the single-dataset shapes the query harness
// indexes: the A sides of the case table plus the pure all-identical
// shape (safe here — single-probe queries never build a spatial grid).
func QueryDatasets(seed int64) []Case {
	box := geom.NewBox(geom.Point{300, 300, 300}, geom.Point{340, 340, 340})
	out := []Case{{Name: "pure-identical", A: IdenticalSet(100, box)}}
	for _, c := range Cases(seed) {
		out = append(out, Case{Name: c.Name, A: c.A})
	}
	return out
}

// PairSet canonicalizes a pair list: sorted by (A, B). Two joins agree
// iff their PairSets are equal.
func PairSet(pairs []touch.Pair) []touch.Pair {
	out := slices.Clone(pairs)
	slices.SortFunc(out, func(x, y touch.Pair) int {
		if x.A != y.A {
			return cmp.Compare(x.A, y.A)
		}
		return cmp.Compare(x.B, y.B)
	})
	return out
}

// OraclePairs computes the reference result with the nested-loop oracle
// through the public API, so orientation conventions match the checked
// joins exactly.
func OraclePairs(a, b touch.Dataset) ([]touch.Pair, error) {
	res, err := touch.SpatialJoin(touch.AlgNL, a, b, &touch.Options{KeepOrder: true})
	if err != nil {
		return nil, err
	}
	return PairSet(res.Pairs), nil
}

// CheckJoin runs one algorithm at one worker count and returns an error
// unless its pair set is identical to the oracle's.
func CheckJoin(alg touch.Algorithm, c Case, workers int, want []touch.Pair) error {
	res, err := touch.SpatialJoin(alg, c.A, c.B, &touch.Options{Workers: workers, KeepOrder: c.KeepOrder})
	if err != nil {
		return fmt.Errorf("%s/%s workers=%d: %w", c.Name, alg, workers, err)
	}
	got := PairSet(res.Pairs)
	if !slices.Equal(got, want) {
		return fmt.Errorf("%s/%s workers=%d: %d pairs, oracle has %d (first diff at %d)",
			c.Name, alg, workers, len(got), len(want), firstDiff(got, want))
	}
	if res.Stats.Results != int64(len(got)) {
		return fmt.Errorf("%s/%s workers=%d: Stats.Results=%d but %d pairs",
			c.Name, alg, workers, res.Stats.Results, len(got))
	}
	return nil
}

// firstDiff returns the index of the first position where the two lists
// diverge.
func firstDiff[T comparable](a, b []T) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// QueryWorkload derives deterministic query boxes, points and k values
// from a seed, sized for the generator universe.
func QueryWorkload(seed int64, n int) (boxes []geom.Box, points []geom.Point, ks []int) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		var lo, hi geom.Point
		for d := 0; d < geom.Dims; d++ {
			lo[d] = rng.Float64() * 1000
			hi[d] = lo[d] + rng.Float64()*rng.Float64()*300
		}
		boxes = append(boxes, geom.NewBox(lo, hi))
		points = append(points, geom.Point{rng.Float64() * 1000, rng.Float64() * 1000, rng.Float64() * 1000})
		ks = append(ks, 1+rng.Intn(24))
	}
	return boxes, points, ks
}
