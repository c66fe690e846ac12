package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"touch/internal/datagen"
	"touch/internal/geom"
	"touch/internal/nl"
	"touch/internal/stats"
)

// wholeBlocks returns a copy of tr whose blocks keep no z window, so a lone
// task scans its whole block: the reference a windowed join must equal.
func wholeBlocks(tr *Tree) *Tree {
	whole := *tr
	whole.windows = make([]zWindow, len(tr.windows))
	for i := range whole.windows {
		whole.windows[i].half = math.Inf(1)
	}
	return &whole
}

// windowJoin assigns b, every box grown by eps, to tr and joins it with
// the given worker count, returning the pairs, sorted, the counters and
// whether joinParallel shared a node's tasks across the workers.
func windowJoin(tr *Tree, b geom.Dataset, eps float64, workers int) ([]geom.Pair, stats.Counters, bool) {
	p := tr.NewProbe()
	p.SetWorkers(workers)
	var c stats.Counters
	sink := &stats.CollectSink{}
	p.AssignExpanded(b, eps, nil, &c)
	p.JoinPhase(nil, &c, sink)
	return sortedPairs(sink.Pairs), c, len(p.big) > 0
}

// scaledZ returns ds with every z coordinate mapped from the generators'
// [0, 1000] onto [-1.7e308, 1.7e308]: z extents of about 1e306, and
// centres that overflow to ±Inf near either end.
func scaledZ(ds geom.Dataset) geom.Dataset {
	out := slices.Clone(ds)
	for i := range out {
		b := &out[i].Box
		b.Min[2] = (b.Min[2]/500 - 1) * 1.7e308
		b.Max[2] = (b.Max[2]/500 - 1) * 1.7e308
	}
	return out
}

// TestZWindowJoins: a lone task scans only its block's z window, and the
// window never loses a pair. Over indexes of 20,000 objects in 8 buckets
// — leaves of 40 blocks, each in z-centre order after STR's last sort —
// every row's pairs must equal those of the same join scanning whole
// blocks and the nested loop's, at 1 and 4 workers with the same
// counters, and its comparisons must be those of the whole-block join
// (same) or fewer (fewer), as the row expects:
//
//   - blocks not in z-centre order (a thaw of a shuffled arena) and equal
//     centres must still answer;
//   - one tall object among flat ones widens its block's windows;
//   - coordinates near ±1e308 overflow some centres, and an A object with
//     an infinite z corner has one, which leaves those blocks without a
//     window;
//   - a lone box with a NaN z corner, or grown by ε = +Inf, scans the
//     whole block, never an empty window, and one with an infinite z
//     corner the run from its finite bound on;
//   - a block of the index is partial;
//   - a lone box over most of the index lands in the root, whose tasks the
//     4-worker join shares out in stretches (stage 1 of joinParallel).
func TestZWindowJoins(t *testing.T) {
	cfg := Config{Partitions: 8}
	uniform := datagen.UniformSet(20_000, 950).Expand(4)
	// Probe boxes thin along z: their windows are a few objects of a block,
	// so an object lost at either end of one shows.
	probes := datagen.UniformSet(128, 951).Expand(10)
	for i := range probes {
		probes[i].Box.Max[2] = probes[i].Box.Min[2] + 2
	}

	// Integer coordinates keep a leaf's extent sum independent of its
	// order, which Thaw checks bit for bit.
	integral := slices.Clone(uniform)
	for i := range integral {
		b := &integral[i].Box
		for d := 0; d < geom.Dims; d++ {
			b.Min[d], b.Max[d] = math.Floor(b.Min[d]), math.Ceil(b.Max[d])
		}
	}
	shuffled := func() *Tree {
		f := Build(integral, cfg).Freeze()
		shuffleLeaves(f, rand.New(rand.NewSource(952)))
		tr, err := Thaw(f)
		if err != nil {
			t.Fatalf("Thaw of a shuffled arena: %v", err)
		}
		return tr
	}

	sameCentre := slices.Clone(uniform)
	for i := range sameCentre {
		h := float64(i % 50)
		sameCentre[i].Box.Min[2], sameCentre[i].Box.Max[2] = 500-h, 500+h
	}
	tall := slices.Clone(uniform)
	for i := range tall {
		tall[i].Box.Max[2] = tall[i].Box.Min[2]
	}
	tall[1234].Box.Min[2], tall[1234].Box.Max[2] = 0, 1000

	infA := slices.Clone(uniform)
	for i := 0; i < len(infA); i += 97 {
		infA[i].Box.Min[2] = math.Inf(-1)
	}
	// A column over 1% of the index from z = 300 up, whose top is NaN or
	// +Inf: Box.Meets reads either as unbounded.
	column := func(top float64) geom.Dataset {
		return geom.Dataset{{ID: 3, Box: geom.Box{Min: geom.Point{400, 400, 300}, Max: geom.Point{500, 500, top}}}}
	}

	// A box around the midpoint of the root's first two children's centres
	// straddles the cut between them, so it stays at the root, with tasks
	// enough for 4 workers to share.
	base := Build(uniform, cfg)
	mid := geom.Scale(geom.Add(base.table[1].mbr.Center(), base.table[base.table[1].skip].mbr.Center()), 0.5)
	root := geom.Dataset{{ID: 7, Box: geom.NewBox(geom.Sub(mid, geom.Point{300, 300, 60}), geom.Add(mid, geom.Point{300, 300, 60}))}}

	const (
		atMost = iota // the whole-block scan's comparisons or fewer
		same
		fewer
	)
	for _, tc := range []struct {
		name    string
		tree    func() *Tree
		a, b    geom.Dataset
		eps     float64
		want    int
		half    func(float64) bool // some block's half extent must satisfy it
		partial bool               // some lone task lies in a block of fewer than leafBlock objects
		shared  bool               // the 4-worker join must share a node's tasks across workers
	}{
		{name: "z-sorted", a: uniform, b: probes, want: fewer},
		{name: "not-in-z-centre-order", tree: shuffled, a: integral, b: probes, want: atMost, half: noWindow},
		{name: "equal-centres", a: sameCentre, b: probes, want: atMost},
		{name: "tall-among-flat", a: tall, b: probes, want: fewer, half: func(h float64) bool { return h == 500 }},
		{name: "near-1e308", a: scaledZ(uniform), b: scaledZ(probes), want: fewer, half: noWindow},
		{name: "infinite-a-corner", a: infA, b: probes, want: fewer, half: noWindow},
		{name: "nan-corner", a: uniform, b: column(math.NaN()), want: same},
		{name: "infinite-corner", a: uniform, b: column(math.Inf(1)), want: fewer},
		{name: "eps-inf", a: uniform, b: probes[:1], eps: math.Inf(1), want: same},
		{name: "partial-last-block", a: uniform[:19_840], b: probes, want: fewer, partial: true},
		{name: "workers-4-stretch", a: uniform, b: root, want: fewer, shared: true},
	} {
		tr := Build(tc.a, cfg)
		if tc.tree != nil {
			tr = tc.tree()
		}
		if tc.half != nil && !slices.ContainsFunc(tr.windows, func(w zWindow) bool { return tc.half(w.half) }) {
			t.Fatalf("%s: premise: no block has the half extent the row is about", tc.name)
		}
		whole := wholeBlocks(tr)
		want := sortedPairs(mapKeys(oracle(tc.a, tc.b.Expand(tc.eps))))
		if len(want) == 0 {
			t.Fatalf("%s: premise: the nested loop found no pair", tc.name)
		}
		var first stats.Counters
		for _, workers := range []int{1, 4} {
			name := fmt.Sprintf("%s/workers=%d", tc.name, workers)
			got, c, shared := windowJoin(tr, tc.b, tc.eps, workers)
			ref, wc, _ := windowJoin(whole, tc.b, tc.eps, workers)
			if !slices.Equal(got, ref) || !slices.Equal(got, want) {
				t.Errorf("%s: %d pairs, the whole-block scan %d, the nested loop %d", name, len(got), len(ref), len(want))
			}
			switch {
			case tc.want == same && c.Comparisons != wc.Comparisons,
				tc.want == fewer && c.Comparisons >= wc.Comparisons,
				c.Comparisons > wc.Comparisons:
				t.Errorf("%s: %d comparisons, the whole-block scan %d", name, c.Comparisons, wc.Comparisons)
			}
			if workers == 1 {
				first = c
			} else {
				if c != first {
					t.Errorf("%s: counters %+v, 1 worker %+v", name, c, first)
				}
				if tc.shared && !shared {
					t.Fatalf("%s: premise: no node's tasks were shared across workers", name)
				}
			}
		}
		if tc.partial && !lonePartialBlock(tr, tc.b) {
			t.Fatalf("%s: premise: no lone task lies in a partial block", tc.name)
		}
	}
}

// noWindow reports whether a half extent is a block's without a window.
func noWindow(half float64) bool { return math.IsInf(half, 1) }

// lonePartialBlock reports whether a lone task of the join of b against
// tr lies in a block of fewer than leafBlock objects.
func lonePartialBlock(tr *Tree, b geom.Dataset) bool {
	p := tr.NewProbe()
	p.Assign(b, nil, &stats.Counters{})
	for id, ts := range nodeTasks(tr, p, &stats.Counters{}) {
		for _, task := range ts {
			if task.lone < 0 {
				continue
			}
			for leaf := id; leaf < tr.table[id].skip; leaf++ {
				e := &tr.table[leaf]
				if !e.leaf(leaf) || task.aStart < e.aStart || task.aStart >= e.aEnd {
					continue
				}
				if boxes, _ := tr.block(e, (task.aStart-e.aStart)/leafBlock); len(boxes) < leafBlock {
					return true
				}
			}
		}
	}
	return false
}

// mapKeys returns the pairs of an oracle set, in no order.
func mapKeys(m map[geom.Pair]bool) []geom.Pair {
	out := make([]geom.Pair, 0, len(m))
	for p := range m {
		out = append(out, p)
	}
	return out
}

// TestZRun checks the window of one block against the objects themselves:
// no object outside the run zRun returns meets the box along z, over
// boxes at every height of a z-sorted block, partial blocks included, and
// a box whose bounds are not ordered gets the whole block.
func TestZRun(t *testing.T) {
	tr := Build(datagen.UniformSet(3000, 960).Expand(4), Config{Partitions: 7})
	rng := rand.New(rand.NewSource(961))
	narrowed := 0
	for i := range tr.table {
		e := &tr.table[i]
		if !e.leaf(int32(i)) {
			continue
		}
		for bi := int32(0); bi < e.blocks(); bi++ {
			es, _ := tr.block(e, bi)
			blk := e.block + bi
			for q := 0; q < 50; q++ {
				z := rng.Float64()*1100 - 50
				box := geom.NewBox(geom.Point{0, 0, z}, geom.Point{1000, 1000, z + rng.Float64()*40})
				lo, hi := tr.zRun(blk, int32(len(es)), &box)
				if lo < 0 || hi < lo || int(hi) > len(es) {
					t.Fatalf("block %d of %d objects: run [%d,%d)", blk, len(es), lo, hi)
				}
				for j := range es {
					if (int32(j) < lo || int32(j) >= hi) && es[j].Meets(&box) {
						t.Fatalf("block %d: object %d meets %v outside the run [%d,%d)", blk, j, box, lo, hi)
					}
				}
				if hi-lo < int32(len(es)) {
					narrowed++
				}
			}
			for _, box := range []geom.Box{
				{Min: geom.Point{0, 0, math.NaN()}, Max: geom.Point{1000, 1000, 500}},
				{Min: geom.Point{0, 0, math.Inf(1)}, Max: geom.Point{1000, 1000, math.Inf(-1)}},
			} {
				if lo, hi := tr.zRun(blk, int32(len(es)), &box); lo != 0 || int(hi) != len(es) {
					t.Fatalf("block %d: box %v with unordered window bounds got run [%d,%d), want the whole block", blk, box, lo, hi)
				}
			}
		}
	}
	if narrowed == 0 {
		t.Fatal("premise: no run is shorter than its block")
	}
}

// TestRangeZWindowCounts counts a range query's comparisons by hand on one
// block: 64 flat objects [0,1]² × [z,z], z = 0..63, built in one bucket,
// so the tree is a single leaf of a single block whose window keys (zKey
// of objects 0, 4, …, 60 on [0, 63], scale 256/63) read 0, 16, 32, 48,
// 65, 81, … 227, 243 and whose half extent is 0. A query [0,1]² × [lo,hi]
// meets the block's MBR without covering it, so the leaf is scanned over
// zRun's run: it starts one past the last key below zKey(lo) and ends at
// the first key above zKey(hi). A query covering the block emits it
// without tests; a block not in z-centre order, a NaN corner and an
// upper tier whose IDs ascend as z descends, the order inserts arrive
// in, are read whole. Every answer is the nested loop's, and a tier is
// one node test.
func TestRangeZWindowCounts(t *testing.T) {
	column := func(firstID geom.ID, z func(i int) float64) geom.Dataset {
		ds := make(geom.Dataset, leafBlock)
		for i := range ds {
			ds[i] = geom.Object{ID: firstID + geom.ID(i), Box: geom.Box{Min: geom.Point{0, 0, z(i)}, Max: geom.Point{1, 1, z(i)}}}
		}
		return ds
	}
	up := column(0, func(i int) float64 { return float64(i) })
	down := column(0, func(i int) float64 { return float64(63 - i) })
	upperDown := column(64, func(i int) float64 { return float64(63 - i) })
	slab := func(lo, hi float64) geom.Box { return geom.Box{Min: geom.Point{0, 0, lo}, Max: geom.Point{1, 1, hi}} }
	for _, tc := range []struct {
		name        string
		base, upper geom.Dataset
		q           geom.Box
		comparisons int64 // the objects of the scanned windows
		results     int64
	}{
		// zKey 40 and 81: keys 32 < 40 <= 48 put lo at 2·4+1, 97 > 81 hi at 6·4.
		{name: "middle", base: up, q: slab(10, 20), comparisons: 24 - 9, results: 11},
		// zKey 41 and 43: objects 9..11, none of them at a z in [10.2, 10.8].
		{name: "between-objects", base: up, q: slab(10.2, 10.8), comparisons: 12 - 9, results: 0},
		// zKey 0 and 12: the run starts at the block's first object.
		{name: "bottom", base: up, q: slab(0, 3), comparisons: 4, results: 4},
		// zKey 243 and 255: the run ends at the block's last object.
		{name: "top", base: up, q: slab(60, 63), comparisons: 64 - 57, results: 4},
		{name: "covers-the-block", base: up, q: slab(-1, 64), comparisons: 0, results: 64},
		{name: "not-in-z-centre-order", base: down, q: slab(10, 20), comparisons: 64, results: 11},
		// Meets reads a NaN corner as unbounded: every z up to 20 meets.
		{name: "nan-corner", base: up, q: slab(math.NaN(), 20), comparisons: 64, results: 21},
		{name: "upper-tier", base: up, upper: upperDown, q: slab(10, 20), comparisons: 24 - 9 + 64, results: 22},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Partitions: 1}
			tr := Build(tc.base, cfg)
			if len(tr.table) != 1 || len(tr.blocks) != 1 {
				t.Fatalf("premise: %d nodes and %d blocks, want one leaf of one block", len(tr.table), len(tr.blocks))
			}
			all, tiers := tc.base, []*Tree(nil)
			if tc.upper != nil {
				all = append(slices.Clone(tc.base), tc.upper...)
				tiers = append(tiers, Build(tc.upper, cfg))
			}
			var c stats.Counters
			got := tr.NewProbe().RangeQuery(tc.q, &c, tiers...)
			if want := nl.RangeQuery(all, tc.q); !slices.Equal(got, want) {
				t.Errorf("answer %v, the nested loop %v", got, want)
			}
			want := stats.Counters{NodeTests: int64(1 + len(tiers)), Comparisons: tc.comparisons, Results: tc.results}
			if c != want {
				t.Errorf("counters %+v, want %+v", c, want)
			}
		})
	}
}
