package testutil

import (
	"fmt"
	"slices"
	"testing"

	"touch"
	"touch/internal/geom"
)

// A distance join applies ε inside the engine's own copies of the
// datasets — the tree's arena, each local join's gathered node — instead
// of joining an enlarged copy. The tests here hold it to the copy it
// replaced: the same pairs and the same counters as the intersection
// join over the explicitly expanded dataset.

// distanceReader is the join surface an Index and an Overlay share.
type distanceReader interface {
	Join(b touch.Dataset, opt *touch.Options) *touch.Result
	DistanceJoin(b touch.Dataset, eps float64, opt *touch.Options) (*touch.Result, error)
}

// sameJoin returns an error unless got and want hold the same pair set
// and the same engine counters.
func sameJoin(got, want *touch.Result) error {
	g, w := PairSet(got.Pairs), PairSet(want.Pairs)
	if !slices.Equal(g, w) {
		return fmt.Errorf("%d pairs, expanded join has %d (first diff at %d)", len(g), len(w), firstDiff(g, w))
	}
	type counts struct{ Comparisons, NodeTests, Filtered, Replicas, Results, MemoryBytes int64 }
	of := func(s *touch.Stats) counts {
		return counts{s.Comparisons, s.NodeTests, s.Filtered, s.Replicas, s.Results, s.MemoryBytes}
	}
	if gc, wc := of(&got.Stats), of(&want.Stats); gc != wc {
		return fmt.Errorf("counters %+v, expanded join has %+v", gc, wc)
	}
	return nil
}

// checkOneShotFold compares the one-shot TOUCH DistanceJoin of a and b
// with SpatialJoin over a.Expand(eps), with the join order kept and left
// to the heuristic (which swaps when b is the smaller side).
func checkOneShotFold(a, b touch.Dataset, eps float64, workers int) error {
	for _, keep := range []bool{true, false} {
		opt := &touch.Options{Workers: workers, KeepOrder: keep}
		got, err := touch.DistanceJoin(touch.AlgTOUCH, a, b, eps, opt)
		if err != nil {
			return err
		}
		want, err := touch.SpatialJoin(touch.AlgTOUCH, a.Expand(eps), b, opt)
		if err != nil {
			return err
		}
		if err := sameJoin(got, want); err != nil {
			return fmt.Errorf("one-shot keepOrder=%v: %w", keep, err)
		}
	}
	return nil
}

// checkReaderFold compares r.DistanceJoin(b, eps) with r.Join over
// b.Expand(eps).
func checkReaderFold(r distanceReader, b touch.Dataset, eps float64, workers int) error {
	opt := &touch.Options{Workers: workers}
	got, err := r.DistanceJoin(b, eps, opt)
	if err != nil {
		return err
	}
	return sameJoin(got, r.Join(b.Expand(eps), opt))
}

// foldReaders returns the reader shapes a distance join runs on over
// a, whose IDs must be 0, 1, …: a frozen index; an overlay whose last
// fifth of a is pending inserts; one with every third object
// tombstoned; and a generation of two tiers — the last fifth of a
// folded above the rest — with inserts and tombstones pending on both.
func foldReaders(t *testing.T, a touch.Dataset) map[string]distanceReader {
	t.Helper()
	cut := 4 * len(a) / 5
	base, tail := a[:cut], a[cut:]
	var dead []geom.ID
	for i := 0; i < len(a); i += 3 {
		dead = append(dead, geom.ID(i))
	}
	idx := touch.BuildIndex(a, touch.TOUCHConfig{})
	baseIdx := touch.BuildIndex(base, touch.TOUCHConfig{})
	readers := map[string]distanceReader{
		"index":      idx,
		"inserts":    touch.NewOverlay(baseIdx, tail, nil),
		"tombstones": touch.NewOverlay(idx, nil, dead),
	}
	if len(base) == 0 || len(tail) == 0 {
		return readers
	}
	step := func(v *touch.Overlay, ins touch.Dataset, del []geom.ID) *touch.Overlay {
		boxes := make([]geom.Box, len(ins))
		for i := range ins {
			boxes[i] = ins[i].Box
		}
		next, _, _, ok := v.Apply(boxes, del)
		if !ok {
			t.Fatal("Apply refused the batch")
		}
		return next
	}
	gen := step(baseIdx, tail, nil)
	gen = gen.Fold(false, touch.BuildIndex).Next(gen)
	if n := len(gen.Tiers()); n != 2 {
		t.Fatalf("the fold left %d tiers, want 2", n)
	}
	readers["tiers"] = step(gen, a[:min(len(a), 5)], []geom.ID{0, geom.ID(cut), geom.ID(len(a) - 1)})
	return readers
}

// latticeCase is A on a lattice of 5-unit cubes every 10 units and B of
// 1-unit cubes between them, 2.5 past A's cubes and 1.5 short of the
// next: at ε = 2.5 or 1.5 every candidate pair touches exactly, where an
// off-by-one-ulp predicate shows. B is the smaller side, so the one-shot
// join's heuristic swaps.
func latticeCase() Case {
	var a, b touch.Dataset
	for i := 0; i < 6*6*6; i++ {
		x, y, z := float64(10*(i%6)), float64(10*(i/6%6)), float64(10*(i/36))
		a = append(a, touch.Object{ID: geom.ID(len(a)), Box: geom.NewBox(geom.Point{x, y, z}, geom.Point{x + 5, y + 5, z + 5})})
		if i%2 == 0 {
			b = append(b, touch.Object{ID: geom.ID(len(b)), Box: geom.NewBox(geom.Point{x + 7.5, y + 7.5, z + 7.5}, geom.Point{x + 8.5, y + 8.5, z + 8.5})})
		}
	}
	return Case{Name: "lattice", A: a, B: b}
}

// TestDistanceJoinFoldsEps: on every harness case and the lattice, at
// ε = 0, a small ε and the lattice's exact gaps, with 1 and 4 workers,
// the one-shot TOUCH DistanceJoin (order kept and swapped) equals
// SpatialJoin over A.Expand(ε), and DistanceJoin on a frozen index, on
// overlays with pending inserts or tombstones and on a two-tier
// generation equals its Join over B.Expand(ε) — pairs and counters.
// Last, sides large enough for 4 workers to shard the assignment, with
// ε on the probe (index, and one-shot swapped) and on the tree.
func TestDistanceJoinFoldsEps(t *testing.T) {
	for _, c := range append(Cases(7301), latticeCase()) {
		readers := foldReaders(t, c.A)
		for _, eps := range []float64{0, 0.75, 1.5, 2.5} {
			for _, workers := range []int{1, 4} {
				if err := checkOneShotFold(c.A, c.B, eps, workers); err != nil {
					t.Errorf("%s eps=%g workers=%d: %v", c.Name, eps, workers, err)
				}
				for name, r := range readers {
					if err := checkReaderFold(r, c.B, eps, workers); err != nil {
						t.Errorf("%s eps=%g workers=%d %s: %v", c.Name, eps, workers, name, err)
					}
				}
			}
		}
	}
	a, b := touch.GenerateUniform(5000, 7302), touch.GenerateUniform(4200, 7303)
	idx := touch.BuildIndex(a, touch.TOUCHConfig{})
	for _, eps := range []float64{0, 0.75} {
		if err := checkOneShotFold(a, b, eps, 4); err != nil {
			t.Errorf("sharded eps=%g: %v", eps, err)
		}
		if err := checkReaderFold(idx, b, eps, 4); err != nil {
			t.Errorf("sharded eps=%g index: %v", eps, err)
		}
	}
}
