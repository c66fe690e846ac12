package core

import (
	"math"
	"slices"
	"strings"
	"testing"

	"touch/internal/datagen"
	"touch/internal/geom"
	"touch/internal/stats"
)

// thawEqual asserts that a thawed tree is structurally identical to the
// original: counts, the node table — topology, MBRs, arena ranges — and
// the extent sums, the arena's content, and the derived block directory.
func thawEqual(t *testing.T, want, got *Tree) {
	t.Helper()
	if got.Nodes != want.Nodes || got.Leaves != want.Leaves || got.Height != want.Height || got.SizeA != want.SizeA {
		t.Fatalf("shape mismatch: got (%d nodes, %d leaves, h%d, %d objs), want (%d, %d, h%d, %d)",
			got.Nodes, got.Leaves, got.Height, got.SizeA, want.Nodes, want.Leaves, want.Height, want.SizeA)
	}
	if len(got.boxes) != len(want.boxes) || len(got.ids) != len(want.ids) {
		t.Fatalf("arena columns of %d boxes and %d IDs, want %d and %d", len(got.boxes), len(got.ids), len(want.boxes), len(want.ids))
	}
	for i := range want.boxes {
		if got.boxes[i] != want.boxes[i] || got.ids[i] != want.ids[i] {
			t.Fatalf("arena object %d = %d %v, want %d %v", i, got.ids[i], got.boxes[i], want.ids[i], want.boxes[i])
		}
	}
	if len(got.table) != len(want.table) || len(got.extSum) != len(want.extSum) {
		t.Fatalf("%d entries and %d extent sums, want %d and %d", len(got.table), len(got.extSum), len(want.table), len(want.extSum))
	}
	for i := range want.table {
		if w, g := want.table[i], got.table[i]; g != w || got.extSum[i] != want.extSum[i] {
			t.Fatalf("node %d mismatch: got %+v (extent sum %g), want %+v (%g)", i, g, got.extSum[i], w, want.extSum[i])
		}
	}
	if got.cfg != want.cfg {
		t.Fatalf("config %+v, want %+v", got.cfg, want.cfg)
	}
	if !slices.Equal(got.blocks, want.blocks) || !slices.Equal(got.windows, want.windows) {
		t.Fatal("the thawed block directory differs from the built one")
	}
}

func TestFreezeThawRoundtrip(t *testing.T) {
	for _, tc := range []struct {
		name    string
		ds      geom.Dataset
		cfg     Config
		workers int  // the probes' worker count
		uneven  bool // premise: the leaves sit at more than one depth
		build   int  // the build's worker count; 0: Build's
	}{
		{"empty", nil, Config{}, 0, false, 0},
		{"single", datagen.UniformSet(1, 1), Config{}, 0, false, 0},
		{"uniform", datagen.UniformSet(4000, 2), Config{Partitions: 64}, 3, false, 0},
		{"clustered-fanout4", datagen.ClusteredSet(2500, 3), Config{Partitions: 128, Fanout: 4}, 0, false, 0},
		{"sweep-localjoin", datagen.GaussianSet(900, 4), Config{Partitions: 16, LocalJoin: LocalJoinSweep}, 0, false, 0},
		// STR cuts 1,021 buckets from 11 slabs, and 11 halves to 5 and 6,
		// to 2, 3, 3 and 3: some slabs end up a level below the others, and
		// the runs and tiles inside them round the same way.
		{"leaves-at-unequal-depths", datagen.UniformSet(20_000, 5), Config{Partitions: 1021}, 0, true, 0},
		// Two goroutines pack the slabs, and fill the block directory the
		// thawed tree fills again.
		{"built-in-parallel", datagen.UniformSet(1<<17, 6), Config{}, 2, false, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := Build(tc.ds, tc.cfg)
			if tc.build > 0 {
				want = BuildExpanded(tc.ds, 0, tc.cfg, tc.build)
				thawEqual(t, BuildExpanded(tc.ds, 0, tc.cfg, 1), want)
			}
			if d := leafDepths(want); tc.uneven && len(d) < 2 {
				t.Fatalf("premise: every leaf sits at depth %v", d)
			}
			got, err := Thaw(want.Freeze())
			if err != nil {
				t.Fatalf("Thaw: %v", err)
			}
			thawEqual(t, want, got)

			// The thawed tree must serve joins identically.
			b := datagen.UniformSet(1500, 99)
			var cw, cg stats.Counters
			sw, sg := &stats.CollectSink{}, &stats.CollectSink{}
			pw, pg := want.NewProbe(), got.NewProbe()
			pw.SetWorkers(tc.workers)
			pg.SetWorkers(tc.workers)
			pw.Assign(b, nil, &cw)
			pw.JoinPhase(nil, &cw, sw)
			pg.Assign(b, nil, &cg)
			pg.JoinPhase(nil, &cg, sg)
			if len(sw.Pairs) != len(sg.Pairs) || cw.Comparisons != cg.Comparisons {
				t.Fatalf("thawed join diverged: %d pairs / %d cmp, want %d / %d",
					len(sg.Pairs), cg.Comparisons, len(sw.Pairs), cw.Comparisons)
			}
			for i := range sw.Pairs {
				if sw.Pairs[i] != sg.Pairs[i] {
					t.Fatalf("pair %d = %v, want %v", i, sg.Pairs[i], sw.Pairs[i])
				}
			}
		})
	}
}

// corrupt applies one mutation to a fresh Frozen and asserts Thaw
// rejects it with an error mentioning the expected fragment.
func TestThawRejectsCorruption(t *testing.T) {
	ds := datagen.UniformSet(800, 7)
	base := Build(ds, Config{Partitions: 32})
	for _, tc := range []struct {
		name    string
		mutate  func(f *Frozen)
		wantErr string
	}{
		{"no-nodes", func(f *Frozen) { f.Nodes = nil }, "no nodes"},
		{"fanout-1", func(f *Frozen) { f.Cfg.Fanout = 1 }, "fanout 1"},
		{"nan-cellfactor", func(f *Frozen) { f.Cfg.CellFactor = math.NaN() }, "cell factor"},
		{"bad-localjoin", func(f *Frozen) { f.Cfg.LocalJoin = 99 }, "local-join"},
		{"negative-children", func(f *Frozen) { f.Nodes[0].Children = -3 }, "child count"},
		{"overconsuming-children", func(f *Frozen) { f.Nodes[0].Children = int32(len(f.Nodes)) }, "consume"},
		{"arena-overrun", func(f *Frozen) {
			leaf := lastLeaf(f)
			f.Nodes[leaf].AEnd = int32(len(f.Boxes) + 5)
		}, "arena"},
		{"inverted-range", func(f *Frozen) {
			leaf := lastLeaf(f)
			f.Nodes[leaf].AStart, f.Nodes[leaf].AEnd = f.Nodes[leaf].AEnd, f.Nodes[leaf].AStart
		}, "arena"},
		{"wrong-leaf-count", func(f *Frozen) { f.Leaves++ }, "leaf count"},
		{"wrong-height", func(f *Frozen) { f.Height++ }, "height"},
		{"mbr-drift", func(f *Frozen) { f.Nodes[0].MBR.Max[0] += 1 }, "MBR"},
		{"extent-drift", func(f *Frozen) { f.Nodes[len(f.Nodes)-1].ExtSumA += 0.5 }, "extent"},
		{"nan-arena-box", func(f *Frozen) { f.Boxes[0].Min[1] = math.NaN() }, "non-finite"},
		{"inverted-arena-box", func(f *Frozen) { f.Boxes[3].Min[0] = f.Boxes[3].Max[0] + 1 }, "inverted"},
		{"arena-id-short", func(f *Frozen) { f.IDs = f.IDs[:len(f.IDs)-1] }, "arena IDs"},
		// The child counts of the tree as built run out exactly at its last
		// node; one more child anywhere has no node left to be.
		{"children-end-at-last-node", func(f *Frozen) {}, ""},
		{"children-end-one-past-last-node", func(f *Frozen) { f.Nodes[lastInner(f)].Children++ }, "consume"},
		{"sibling-gap", func(f *Frozen) { f.Nodes[lastLeaf(f)].AStart++ }, "starts at"},
		{"sibling-overlap", func(f *Frozen) { f.Nodes[lastLeaf(f)].AStart-- }, "starts at"},
		{"first-child-off-parent-start", func(f *Frozen) { f.Nodes[lastInner(f)+1].AStart++ }, "starts at"},
		{"parent-ends-before-last-child", func(f *Frozen) { f.Nodes[lastInner(f)].AEnd-- }, "children end at"},
		{"child-count-short", func(f *Frozen) { f.Nodes[lastInner(f)].Children-- }, "children end at"},
		{"root-short-of-arena", func(f *Frozen) { f.Nodes[0].AEnd-- }, "children end at"},
		{"arena-past-the-root", func(f *Frozen) {
			f.Boxes, f.IDs = append(f.Boxes, f.Boxes[0]), append(f.IDs, f.IDs[0])
		}, "does not cover"},
		{"trailing-node", func(f *Frozen) { f.Nodes = append(f.Nodes, f.Nodes[lastLeaf(f)]) }, "trailing"},
		{"root-a-leaf", func(f *Frozen) { f.Nodes[0].Children = 0 }, "trailing"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := base.Freeze()
			// Deep-copy the mutable parts so mutations don't leak across
			// subtests (the arena's columns alias the live tree).
			f.Nodes = append([]FrozenNode(nil), f.Nodes...)
			f.Boxes, f.IDs = slices.Clone(f.Boxes), slices.Clone(f.IDs)
			tc.mutate(f)
			_, err := Thaw(f)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Thaw rejected the tree as built: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Thaw accepted corruption %q", tc.name)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// lastLeaf returns the index of the last leaf node (mutating an interior
// node's range trips the child-contiguity check instead).
func lastLeaf(f *Frozen) int {
	for i := len(f.Nodes) - 1; i >= 0; i-- {
		if f.Nodes[i].Children == 0 {
			return i
		}
	}
	return 0
}

// lastInner returns the index of the last inner node; every child of it
// is a leaf, the last of them lastLeaf.
func lastInner(f *Frozen) int {
	for i := len(f.Nodes) - 1; i >= 0; i-- {
		if f.Nodes[i].Children > 0 {
			return i
		}
	}
	return 0
}

// A hostile single-child chain must be rejected by the depth bound, not
// grow a stack as long as the file says: a chain of maxThawDepth nodes over
// no objects is a (strange) tree, one node more is not.
func TestThawDepthBound(t *testing.T) {
	for _, n := range []int{maxThawDepth, maxThawDepth + 1, 500} {
		f := &Frozen{Height: n, Leaves: 1, Nodes: make([]FrozenNode, n)}
		for i := range f.Nodes {
			f.Nodes[i] = FrozenNode{MBR: geom.EmptyBox(), Children: 1}
		}
		f.Nodes[n-1].Children = 0
		tr, err := Thaw(f)
		if n <= maxThawDepth {
			if err != nil || tr.Height != n || tr.table[0].skip != int32(n) {
				t.Fatalf("chain of %d nodes: %v", n, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), "deeper") {
			t.Fatalf("chain of %d nodes not rejected: %v", n, err)
		}
	}
}
