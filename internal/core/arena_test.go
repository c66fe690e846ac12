package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"touch/internal/datagen"
	"touch/internal/geom"
	"touch/internal/str"
)

// objects zips two arena columns of one length into objects, for the
// tests that hold the arena to an object oracle.
func objects(boxes []geom.Box, ids []geom.ID) geom.Dataset {
	out := make(geom.Dataset, len(boxes))
	for i := range boxes {
		out[i] = geom.Object{ID: ids[i], Box: boxes[i]}
	}
	return out
}

// columns splits objs into a box column and an ID column, the arena's
// layout.
func columns(objs geom.Dataset) ([]geom.Box, []geom.ID) {
	boxes, ids := make([]geom.Box, len(objs)), make([]geom.ID, len(objs))
	for i := range objs {
		boxes[i], ids[i] = objs[i].Box, objs[i].ID
	}
	return boxes, ids
}

// shuffleLeaves replaces f's arena columns with copies in which each
// leaf's stretch is shuffled, both columns alike, so every object keeps
// its ID.
func shuffleLeaves(f *Frozen, rng *rand.Rand) {
	f.Boxes, f.IDs = slices.Clone(f.Boxes), slices.Clone(f.IDs)
	for _, fn := range f.Nodes {
		if fn.Children == 0 {
			boxes, ids := f.Boxes[fn.AStart:fn.AEnd], f.IDs[fn.AStart:fn.AEnd]
			rng.Shuffle(len(boxes), func(i, j int) {
				boxes[i], boxes[j] = boxes[j], boxes[i]
				ids[i], ids[j] = ids[j], ids[i]
			})
		}
	}
}

// sameBits reports whether two boxes have the same corners, bit for bit.
func sameBits(a, b geom.Box) bool {
	for d := 0; d < geom.Dims; d++ {
		if math.Float64bits(a.Min[d]) != math.Float64bits(b.Min[d]) || math.Float64bits(a.Max[d]) != math.Float64bits(b.Max[d]) {
			return false
		}
	}
	return true
}

// TestArenaColumnsMatchPack: the build gathers the arena's two columns
// straight from STR's permutation and grows the boxes by ε in the same
// pass, so at every arena position the box and the ID are those of the
// object str.PackStages put there, the box grown by ε, bit for bit — on
// 2^17 uniform objects, the smallest input two workers build on
// (buildFloor), and on a neuroscience input, at ε 0 and 5, on one worker
// and two. Freezing the tree and thawing copies of its columns gives back
// the same columns.
func TestArenaColumnsMatchPack(t *testing.T) {
	axons, _ := datagen.GenerateNeuro(datagen.ScaledNeuroConfig(42, 1.0/50))
	for _, tc := range []struct {
		name string
		ds   geom.Dataset
	}{
		{"uniform 2^17", datagen.UniformSet(1<<17, 71)},
		{"neuro", axons.Objects()},
	} {
		if tc.name == "uniform 2^17" && buildWorkers(2, len(tc.ds)) != 2 {
			t.Fatalf("premise: %d objects build on %d goroutines at two workers", len(tc.ds), buildWorkers(2, len(tc.ds)))
		}
		for _, eps := range []float64{0, 5} {
			grown := func(b geom.Box) geom.Box {
				if eps == 0 {
					return b
				}
				return b.Expand(eps)
			}
			order, _ := str.PackStages(tc.ds, func(o geom.Object) geom.Point { return grown(o.Box).Center() },
				str.GroupSizeFor(len(tc.ds), DefaultPartitions), 1)
			for _, workers := range []int{1, 2} {
				name := fmt.Sprintf("%s eps=%g workers=%d", tc.name, eps, workers)
				tr := BuildExpanded(tc.ds, eps, Config{}, workers)
				if len(tr.boxes) != len(order) || len(tr.ids) != len(order) {
					t.Fatalf("%s: %d boxes and %d IDs for %d objects", name, len(tr.boxes), len(tr.ids), len(order))
				}
				for i, j := range order {
					if want := &tc.ds[j]; tr.ids[i] != want.ID || !sameBits(tr.boxes[i], grown(want.Box)) {
						t.Fatalf("%s: arena position %d holds %d %v, STR put %d %v there", name, i, tr.ids[i], tr.boxes[i], want.ID, grown(want.Box))
					}
				}
				f := tr.Freeze()
				f.Boxes, f.IDs = slices.Clone(f.Boxes), slices.Clone(f.IDs)
				thawed, err := Thaw(f)
				if err != nil {
					t.Fatalf("%s: Thaw: %v", name, err)
				}
				if !slices.EqualFunc(thawed.boxes, tr.boxes, sameBits) || !slices.Equal(thawed.ids, tr.ids) {
					t.Fatalf("%s: the thawed columns differ from the built ones", name)
				}
			}
		}
	}
}
