package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"touch/internal/datagen"
	"touch/internal/geom"
	"touch/internal/str"
)

// sameCentre returns n boxes of random extents around one point: every
// sort STR makes ties from end to end.
func sameCentre(n int, seed int64) geom.Dataset {
	rng := rand.New(rand.NewSource(seed))
	ds := make(geom.Dataset, n)
	for i := range ds {
		h := geom.Point{rng.Float64() * 4, rng.Float64() * 4, rng.Float64() * 4}
		c := geom.Point{500, 500, 500}
		ds[i] = geom.Object{ID: geom.ID(i), Box: geom.NewBox(geom.Sub(c, h), geom.Add(c, h))}
	}
	return ds
}

// checkNests holds tr, built on ds with cfg, to what nesting along STR's
// cuts promises. The cuts are recomputed here, from the dataset: the test
// reads no record of them in the tree, because the tree keeps none.
func checkNests(t *testing.T, name string, tr *Tree, ds geom.Dataset, cfg Config) {
	t.Helper()
	cfg.fillDefaults()
	var maxExt geom.Point
	for i := range ds {
		for d := range maxExt {
			maxExt[d] = max(maxExt[d], ds[i].Box.Extent(d))
		}
	}
	ordered, stages := str.PackStages(ds, func(o geom.Object) geom.Point { return o.Box.Center() },
		str.GroupSizeFor(len(ds), cfg.Partitions))

	// The arena is STR's output order, the leaves its groups.
	if !slices.Equal(tr.arena, ordered) {
		t.Fatalf("%s: the arena is not STR's output order", name)
	}
	groups := stages[len(stages)-1]
	if tr.Leaves != len(groups)-1 {
		t.Fatalf("%s: %d leaves, STR cut %d groups", name, tr.Leaves, len(groups)-1)
	}
	if d := leafDepths(tr); tr.Height != d[len(d)-1]+1 {
		t.Errorf("%s: Height %d, the longest root-to-leaf path has %d nodes", name, tr.Height, d[len(d)-1]+1)
	}
	if tr.Nodes != len(tr.table) {
		t.Errorf("%s: Nodes %d, the table holds %d", name, tr.Nodes, len(tr.table))
	}

	// inRun reports whether the node's arena range lies inside one run of
	// the cut along dimension d.
	inRun := func(d int, n *entry) bool {
		i, _ := slices.BinarySearch(stages[d], n.aStart+1) // the end of the run aStart lies in
		return stages[d][i] >= n.aEnd
	}
	leaf := 0
	for i := range tr.table {
		id, n := int32(i), &tr.table[i]
		if n.leaf(id) {
			if n.aStart != groups[leaf] {
				t.Fatalf("%s: leaf %d begins at arena %d, STR's group %d at %d", name, id, n.aStart, leaf, groups[leaf])
			}
			leaf++
			continue
		}
		chs := tr.children(id)
		if len(chs) < 2 || len(chs) > cfg.Fanout {
			t.Errorf("%s: node %d has %d children under fanout %d", name, id, len(chs), cfg.Fanout)
		}
		// Children are consecutive arena ranges, in order.
		want := n.aStart
		for j, ch := range chs {
			if c := &tr.table[ch]; c.aStart != want {
				t.Fatalf("%s: node %d child %d begins at arena %d, want %d", name, id, j, c.aStart, want)
			}
			want = tr.table[ch].aEnd
		}
		if want != n.aEnd {
			t.Errorf("%s: node %d ends at arena %d, its children at %d", name, id, n.aEnd, want)
		}
		// The node splits along the innermost cut that does not hold all
		// of it in one run: tiles of one run are split in the last
		// dimension, runs of one slab in the one before, slabs in the first.
		dim := 0
		for d := len(stages) - 2; d >= 0; d-- {
			if inRun(d, n) {
				dim = d + 1
				break
			}
		}
		// Its children are whole runs of that cut: nothing is cut across.
		for _, ch := range chs {
			if _, ok := slices.BinarySearch(stages[dim], tr.table[ch].aStart); !ok {
				t.Errorf("%s: node %d splits in dimension %d, but child %d begins inside a run of that cut", name, id, dim, ch)
			}
		}
		// Siblings ascend by centre along the split, so they overlap there
		// by an object's extent at most.
		for j, left := range chs {
			for _, right := range chs[j+1:] {
				if over := tr.table[left].mbr.Max[dim] - tr.table[right].mbr.Min[dim]; over > maxExt[dim]*(1+1e-12) {
					t.Errorf("%s: node %d splits in dimension %d, where children %d and %d overlap by %g; the largest object spans %g",
						name, id, dim, left, right, over, maxExt[dim])
				}
			}
		}
	}
}

// TestUpperLevelsNest: above the leaves the tree follows the cuts STR made
// for them — slabs, runs, tiles — so every inner node's children are
// consecutive stretches of the arena, separated along one dimension and
// overlapping there by no more than an object's extent, no node has a
// single child, and the result depends on nothing but the dataset and the
// configuration, two builds racing each other included. A builder that
// packs the nodes' centres again, as this one used to, cuts across the
// slabs and fails the run and overlap checks at the first level it builds.
func TestUpperLevelsNest(t *testing.T) {
	datasets := []struct {
		name       string
		ds         geom.Dataset
		partitions int
	}{
		{"uniform", datagen.UniformSet(5000, 11).Expand(3), 0},
		{"gaussian", datagen.GaussianSet(4000, 12), 200},
		{"clustered", datagen.ClusteredSet(3000, 13), 64},
		{"all centres equal", sameCentre(2000, 14), 64},
		{"fewer objects than partitions", datagen.UniformSet(300, 15), 0},
		{"one object", datagen.UniformSet(1, 16), 0},
		{"one bucket", datagen.UniformSet(500, 17), 1},
		// 11 slabs, which no fanout here divides: leaves at unequal depths.
		{"eleven slabs", datagen.UniformSet(20_000, 18), 1021},
	}
	for _, tc := range datasets {
		for _, fanout := range []int{2, 3, 7} {
			name := fmt.Sprintf("%s/fanout %d", tc.name, fanout)
			cfg := Config{Partitions: tc.partitions, Fanout: fanout}
			var trees [2]*Tree
			var wg sync.WaitGroup
			for i := range trees {
				wg.Add(1)
				go func() {
					defer wg.Done()
					trees[i] = Build(tc.ds, cfg)
				}()
			}
			wg.Wait()
			if !slices.Equal(trees[0].table, trees[1].table) || !slices.Equal(trees[0].extSum, trees[1].extSum) ||
				!slices.Equal(trees[0].arena, trees[1].arena) || !slices.Equal(trees[0].blocks, trees[1].blocks) {
				t.Errorf("%s: two concurrent builds of one dataset differ", name)
			}
			checkNests(t, name, trees[0], tc.ds, cfg)
			checkTable(t, name, trees[0])
		}
	}
}
