package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"touch/internal/datagen"
	"touch/internal/geom"
	"touch/internal/nl"
	"touch/internal/stats"
)

// randomQueryBox derives a query box whose corners fall inside the
// dataset universe, with extents spanning from point-like to most of
// the space.
func randomQueryBox(rng *rand.Rand) geom.Box {
	var lo, hi geom.Point
	for d := 0; d < geom.Dims; d++ {
		lo[d] = rng.Float64() * 1000
		hi[d] = lo[d] + rng.Float64()*rng.Float64()*400
	}
	return geom.NewBox(lo, hi)
}

// TestRangeQueryMatchesOracle: the tree-accelerated range query must
// return exactly the oracle's ID set on every distribution and on a
// probe reusing its scratch across queries — in small buckets (one block
// per leaf) and in buckets of several blocks.
func TestRangeQueryMatchesOracle(t *testing.T) {
	for _, dist := range []datagen.Distribution{datagen.Uniform, datagen.Gaussian, datagen.Clustered} {
		ds := datagen.Generate(datagen.DefaultConfig(dist, 800, 211)).Expand(3)
		for _, partitions := range []int{64, 3} {
			tree := Build(ds, Config{Partitions: partitions})
			p := tree.NewProbe()
			rng := rand.New(rand.NewSource(212))
			for i := 0; i < 50; i++ {
				q := randomQueryBox(rng)
				want := nl.RangeQuery(ds, q)
				var c stats.Counters
				got := p.RangeQuery(q, &c)
				if !slices.Equal(got, want) {
					t.Fatalf("%s/%d query %d (%v): got %d ids, want %d", dist, partitions, i, q, len(got), len(want))
				}
				if c.Results != int64(len(got)) {
					t.Fatalf("%s/%d query %d: Results=%d, len=%d", dist, partitions, i, c.Results, len(got))
				}
			}
		}
	}
}

// TestPointQueryMatchesOracle: point containment through the tree vs.
// the exhaustive scan, on dataset corners and random points.
func TestPointQueryMatchesOracle(t *testing.T) {
	ds := datagen.ClusteredSet(900, 221).Expand(4)
	tree := Build(ds, Config{})
	p := tree.NewProbe()
	rng := rand.New(rand.NewSource(222))
	pts := make([]geom.Point, 0, 80)
	for i := 0; i < 40; i++ {
		pts = append(pts, geom.Point{rng.Float64() * 1000, rng.Float64() * 1000, rng.Float64() * 1000})
	}
	// Boundary points: exact MBR corners must report their object
	// (closed-interval semantics).
	for i := 0; i < 40; i++ {
		pts = append(pts, ds[rng.Intn(len(ds))].Box.Min)
	}
	for i, pt := range pts {
		want := nl.PointQuery(ds, pt)
		var c stats.Counters
		got := p.PointQuery(pt, &c)
		if !slices.Equal(got, want) {
			t.Fatalf("point %d (%v): got %v, want %v", i, pt, got, want)
		}
		if i >= 40 && len(got) == 0 {
			t.Fatalf("corner point %d (%v) found no object", i, pt)
		}
	}
}

// TestKNNMatchesOracle: best-first kNN must reproduce the oracle's
// (Distance, ID) order exactly — including distance ties — for several
// k on every distribution, in buckets of one block and of several.
func TestKNNMatchesOracle(t *testing.T) {
	for _, dist := range []datagen.Distribution{datagen.Uniform, datagen.Gaussian, datagen.Clustered} {
		ds := datagen.Generate(datagen.DefaultConfig(dist, 700, 231))
		for _, partitions := range []int{32, 2} {
			tree := Build(ds, Config{Partitions: partitions})
			p := tree.NewProbe()
			rng := rand.New(rand.NewSource(232))
			for i := 0; i < 30; i++ {
				q := geom.Point{rng.Float64() * 1000, rng.Float64() * 1000, rng.Float64() * 1000}
				for _, k := range []int{1, 3, 10, len(ds), len(ds) + 5} {
					want := nl.KNN(ds, q, k)
					var c stats.Counters
					got := p.KNN(q, k, &c)
					if !slices.Equal(got, want) {
						t.Fatalf("%s/%d: knn(%v, %d): got %v..., want %v...",
							dist, partitions, q, k, head(got, 3), head(want, 3))
					}
				}
			}
		}
	}
}

func head[T any](s []T, n int) []T { return s[:min(n, len(s))] }

// TestKNNDistanceTies: all-identical boxes force every distance to tie;
// the result must be the k smallest IDs, in order.
func TestKNNDistanceTies(t *testing.T) {
	box := geom.NewBox(geom.Point{10, 10, 10}, geom.Point{20, 20, 20})
	ds := make(geom.Dataset, 64)
	for i := range ds {
		ds[i] = geom.Object{ID: geom.ID(i), Box: box}
	}
	tree := Build(ds, Config{Partitions: 8})
	p := tree.NewProbe()
	var c stats.Counters
	got := p.KNN(geom.Point{500, 500, 500}, 5, &c)
	if len(got) != 5 {
		t.Fatalf("got %d neighbors, want 5", len(got))
	}
	for i, nb := range got {
		if nb.ID != geom.ID(i) {
			t.Fatalf("tie-break broken: neighbor %d has ID %d, want %d (stable ascending IDs)", i, nb.ID, i)
		}
		if nb.Distance != got[0].Distance {
			t.Fatalf("identical boxes must tie: %v vs %v", nb.Distance, got[0].Distance)
		}
	}
}

// TestQueriesDegenerate: empty tree and single-object tree answer all
// three query shapes without panicking and agree with the oracles.
func TestQueriesDegenerate(t *testing.T) {
	for _, ds := range []geom.Dataset{
		nil,
		{{ID: 0, Box: geom.NewBox(geom.Point{1, 2, 3}, geom.Point{4, 5, 6})}},
	} {
		tree := Build(ds, Config{})
		p := tree.NewProbe()
		var c stats.Counters
		q := geom.NewBox(geom.Point{0, 0, 0}, geom.Point{10, 10, 10})
		if got, want := p.RangeQuery(q, &c), nl.RangeQuery(ds, q); !slices.Equal(got, want) {
			t.Fatalf("|ds|=%d range: got %v, want %v", len(ds), got, want)
		}
		if got, want := p.PointQuery(geom.Point{2, 3, 4}, &c), nl.PointQuery(ds, geom.Point{2, 3, 4}); !slices.Equal(got, want) {
			t.Fatalf("|ds|=%d point: got %v, want %v", len(ds), got, want)
		}
		if got, want := p.KNN(geom.Point{0, 0, 0}, 3, &c), nl.KNN(ds, geom.Point{0, 0, 0}, 3); !slices.Equal(got, want) {
			t.Fatalf("|ds|=%d knn: got %v, want %v", len(ds), got, want)
		}
	}
}

// TestRangeQueryContainedSubtree: a query box swallowing the whole
// universe must return every ID — exercising the contained-subtree fast
// path — with zero object comparisons.
func TestRangeQueryContainedSubtree(t *testing.T) {
	ds := datagen.UniformSet(500, 241)
	tree := Build(ds, Config{})
	p := tree.NewProbe()
	var c stats.Counters
	got := p.RangeQuery(geom.NewBox(geom.Point{-1e9, -1e9, -1e9}, geom.Point{1e9, 1e9, 1e9}), &c)
	if len(got) != len(ds) {
		t.Fatalf("universe query returned %d of %d ids", len(got), len(ds))
	}
	for i, id := range got {
		if id != geom.ID(i) {
			t.Fatalf("ids not sorted: got[%d] = %d", i, id)
		}
	}
	if c.Comparisons != 0 {
		t.Fatalf("contained subtree must skip object tests, did %d", c.Comparisons)
	}
	if c.Results != int64(len(ds)) {
		t.Fatalf("Results=%d, want %d", c.Results, len(ds))
	}
}

// TestQueryScratchRecycles: after a warm-up, repeated queries on one
// probe must not grow the scratch (no per-query allocations inside the
// traversal).
func TestQueryScratchRecycles(t *testing.T) {
	ds := datagen.UniformSet(2_000, 251)
	tree := Build(ds, Config{})
	p := tree.NewProbe()
	rng := rand.New(rand.NewSource(252))
	queries := make([]geom.Box, 32)
	pts := make([]geom.Point, 32)
	for i := range queries {
		queries[i] = randomQueryBox(rng)
		pts[i] = geom.Point{rng.Float64() * 1000, rng.Float64() * 1000, rng.Float64() * 1000}
	}
	var c stats.Counters
	warm := func() {
		for i := range queries {
			p.RangeQuery(queries[i], &c)
			p.KNN(pts[i], 16, &c)
		}
	}
	warm()
	allocs := testing.AllocsPerRun(10, warm)
	if allocs > 0 {
		t.Fatalf("warmed query traversals allocated %.1f times per run, want 0", allocs)
	}
}

// TestQueryAfterJoinInterleaving: joins and queries share one probe;
// interleaving them must corrupt neither.
func TestQueryAfterJoinInterleaving(t *testing.T) {
	a := datagen.UniformSet(600, 261).Expand(5)
	b := datagen.UniformSet(900, 262)
	tree := Build(a, Config{})
	p := tree.NewProbe()
	q := randomQueryBox(rand.New(rand.NewSource(263)))

	wantIDs := nl.RangeQuery(a, q)
	var c stats.Counters
	sink := &stats.CountSink{}
	p.Assign(b, nil, &c)
	p.JoinPhase(nil, &c, sink)
	joinResults := sink.N

	for round := 0; round < 3; round++ {
		if got := p.RangeQuery(q, &c); !slices.Equal(got, wantIDs) {
			t.Fatalf("round %d: range after join diverged", round)
		}
		var c2 stats.Counters
		sink2 := &stats.CountSink{}
		p.Assign(b, nil, &c2)
		p.JoinPhase(nil, &c2, sink2)
		if sink2.N != joinResults {
			t.Fatalf("round %d: join after query found %d results, want %d", round, sink2.N, joinResults)
		}
	}
}

// TestKNNCounters: the search must charge node visits to NodeTests and
// object distance evaluations to Comparisons, and prune: on clustered
// data a small-k query should examine far fewer objects than |A| — and,
// in buckets of several blocks, fewer than the buckets it opens hold.
func TestKNNCounters(t *testing.T) {
	ds := datagen.ClusteredSet(5_000, 271)
	tree := Build(ds, Config{})
	p := tree.NewProbe()
	var c stats.Counters
	got := p.KNN(geom.Point{500, 500, 500}, 3, &c)
	if len(got) != 3 {
		t.Fatalf("got %d neighbors", len(got))
	}
	if c.NodeTests == 0 || c.Comparisons == 0 {
		t.Fatalf("counters not charged: %+v", c)
	}
	if c.Comparisons >= int64(len(ds)) {
		t.Fatalf("no pruning: %d object distance evaluations for |A|=%d", c.Comparisons, len(ds))
	}

	// Two buckets of 2,500 objects, 40 blocks each, and the query point
	// between them: the search opens both, and the bound must skip most of
	// their blocks on either side of the point.
	c = stats.Counters{}
	Build(ds, Config{Partitions: 2}).NewProbe().KNN(geom.Point{500, 500, 500}, 3, &c)
	if c.Comparisons >= int64(len(ds))/2 {
		t.Fatalf("no block pruning: %d object distance evaluations in two leaves of %d", c.Comparisons, len(ds)/2)
	}
}

// TestKNNSkipTiesAndShadows pins the skip list on hand-built cases: a
// dead and a live object at one distance, the k nearest all dead, every
// object dead, and skip IDs the tree never held. MaxID rides along.
func TestKNNSkipTiesAndShadows(t *testing.T) {
	// Object i sits at x = 10*(i/2): IDs 2j and 2j+1 tie at every
	// distance from a point on the x axis.
	ds := make(geom.Dataset, 40)
	for i := range ds {
		x := float64(10 * (i / 2))
		ds[i] = geom.Object{ID: geom.ID(i), Box: geom.NewBox(geom.Point{x, 0, 0}, geom.Point{x + 1, 1, 1})}
	}
	tree := Build(ds, Config{Partitions: 8})
	if got := tree.MaxID(); got != 39 {
		t.Fatalf("MaxID = %d, want 39", got)
	}
	if got := Build(nil, Config{}).MaxID(); got != -1 {
		t.Fatalf("MaxID of an empty tree = %d, want -1", got)
	}
	p := tree.NewProbe()
	q := geom.Point{-5, 0.5, 0.5}
	ids := func(nbrs []geom.Neighbor) []geom.ID {
		out := make([]geom.ID, len(nbrs))
		for i, nb := range nbrs {
			out[i] = nb.ID
		}
		return out
	}
	all := make([]geom.ID, len(ds))
	for i := range all {
		all[i] = geom.ID(i)
	}
	var c stats.Counters
	for _, tc := range []struct {
		name string
		k    int
		skip []geom.ID
		want []geom.ID
	}{
		{"dead and live tie", 3, []geom.ID{0, 3}, []geom.ID{1, 2, 4}},
		{"k nearest all dead", 2, []geom.ID{0, 1, 2, 3}, []geom.ID{4, 5}},
		{"absent skip IDs", 2, []geom.ID{-7, 40, 1000}, []geom.ID{0, 1}},
		{"k beyond the live count", 50, all[:38], []geom.ID{38, 39}},
		{"every object skipped", 3, all, []geom.ID{}},
	} {
		if got := ids(p.KNN(q, tc.k, &c, tc.skip...)); !slices.Equal(got, tc.want) {
			t.Errorf("%s: KNN(k=%d, skip=%v) = %v, want %v", tc.name, tc.k, tc.skip, got, tc.want)
		}
	}
	if c.Results != 3+2+2+2 {
		t.Errorf("Results = %d, want the 9 neighbors returned", c.Results)
	}
}

// queryCounts is the paper's currency for a batch of single-probe
// queries: what the kernels did, summed, not how long it took.
type queryCounts struct {
	NodeTests, Comparisons, Results int64
}

// TestQueryCountsGolden is the serving-side companion of
// TestJoinCountsGolden: the counts of 64 fixed range queries and 64 fixed
// kNN searches (k = 10), summed, against the literal table below — on
// the two datasets of that test, each in the paper's 1,024 buckets (a
// handful of objects per leaf, one block each) and in buckets of 488 and
// 478 objects, the size the benchmark's 500K index serves from, where
// the block directory does the work. A change that moves a count must move
// the table with it, so the old and the new number both show in its diff.
//
// The table last moved when the upper levels began to nest (Build, nest):
// NodeTests fell on every row, because a probe no longer meets both of
// two overlapping siblings at every level. Comparisons, Results and the
// directory did not move — the leaves and their blocks are the same
// leaves and blocks, and object tests happen only there.
func TestQueryCountsGolden(t *testing.T) {
	axons, _ := datagen.GenerateNeuro(datagen.ScaledNeuroConfig(42, 1.0/50))
	for _, tc := range []struct {
		name       string
		ds         geom.Dataset
		cfg        Config
		rangeWant  queryCounts
		knnWant    queryCounts
		wantBlocks int
	}{
		{
			name: "uniform-20K", ds: datagen.UniformSet(20_000, 42),
			rangeWant:  queryCounts{NodeTests: 3116, Comparisons: 7040, Results: 852},
			knnWant:    queryCounts{NodeTests: 3318, Comparisons: 6960, Results: 640},
			wantBlocks: 1000,
		},
		{
			name: "uniform-20K/big-buckets", ds: datagen.UniformSet(20_000, 42), cfg: Config{Partitions: 41},
			rangeWant:  queryCounts{NodeTests: 1956, Comparisons: 16744, Results: 852},
			knnWant:    queryCounts{NodeTests: 1959, Comparisons: 17768, Results: 640},
			wantBlocks: 336,
		},
		{
			name: "neuro-1/50", ds: axons.Objects(),
			rangeWant:  queryCounts{NodeTests: 2148, Comparisons: 2386, Results: 533},
			knnWant:    queryCounts{NodeTests: 4306, Comparisons: 4181, Results: 640},
			wantBlocks: 1000,
		},
		{
			name: "neuro-1/50/big-buckets", ds: axons.Objects(), cfg: Config{Partitions: 27},
			rangeWant:  queryCounts{NodeTests: 1286, Comparisons: 9512, Results: 533},
			knnWant:    queryCounts{NodeTests: 2238, Comparisons: 19866, Results: 640},
			wantBlocks: 216,
		},
	} {
		tr := Build(tc.ds, tc.cfg)
		p := tr.NewProbe()
		// Query shapes in the dataset's own universe: boxes from point-like
		// to a third of its extent per side, points anywhere inside it.
		mbr, rng := tr.table[0].mbr, rand.New(rand.NewSource(4242))
		var rc, kc stats.Counters
		for i := 0; i < 64; i++ {
			var lo, hi, pt geom.Point
			for d := range lo {
				lo[d] = mbr.Min[d] + rng.Float64()*mbr.Extent(d)
				hi[d] = lo[d] + rng.Float64()*rng.Float64()*mbr.Extent(d)/3
				pt[d] = mbr.Min[d] + rng.Float64()*mbr.Extent(d)
			}
			p.RangeQuery(geom.NewBox(lo, hi), &rc)
			p.KNN(pt, 10, &kc)
		}
		gotRange := queryCounts{rc.NodeTests, rc.Comparisons, rc.Results}
		gotKNN := queryCounts{kc.NodeTests, kc.Comparisons, kc.Results}
		if gotRange != tc.rangeWant || gotKNN != tc.knnWant || len(tr.blocks) != tc.wantBlocks {
			t.Errorf("%s (%d objects, %d leaves):\n got range %+v knn %+v blocks %d\nwant range %+v knn %+v blocks %d",
				tc.name, len(tc.ds), tr.Leaves, gotRange, gotKNN, len(tr.blocks), tc.rangeWant, tc.knnWant, tc.wantBlocks)
		}
	}
}

// tieredFixture cuts one ID-ordered dataset into consecutive stretches
// and builds a tree over each: a tiered index as the layers above hold
// it, the first tree the probe's own and the rest its upper tiers.
func tieredFixture(ds geom.Dataset, cuts ...int) (p *Probe, upper []*Tree) {
	from := 0
	for _, to := range append(cuts, len(ds)) {
		tree := Build(ds[from:to], Config{Partitions: 4})
		if from = to; p == nil {
			p = tree.NewProbe()
		} else {
			upper = append(upper, tree)
		}
	}
	return p, upper
}

// TestTieredQueriesMatchOracle: one probe walked over three tiers
// answers the range query and the kNN search of the whole dataset — in
// ID order and in (Distance, ID) order, ties across tiers included
// (every box is present in every tier) — with a skip list and a tail of
// unindexed objects offered to the same heap, and the probe is none the
// worse for its next single-tree query.
func TestTieredQueriesMatchOracle(t *testing.T) {
	base := datagen.ClusteredSet(300, 251).Expand(3)
	var ds geom.Dataset
	for copy := 0; copy < 4; copy++ { // three tiers and the tail hold the same boxes
		for _, o := range base {
			ds = append(ds, geom.Object{ID: geom.ID(len(ds)), Box: o.Box})
		}
	}
	tail := ds[900:]
	p, upper := tieredFixture(ds[:900], 300, 600)
	var skip []geom.ID
	live := ds[:0:0]
	for _, o := range ds {
		if o.ID%7 == 3 {
			skip = append(skip, o.ID)
		} else {
			live = append(live, o)
		}
	}
	rng := rand.New(rand.NewSource(252))
	for i := 0; i < 60; i++ {
		q := randomQueryBox(rng)
		var c stats.Counters
		if got, want := p.RangeQuery(q, &c, upper...), nl.RangeQuery(ds[:900], q); !slices.Equal(got, want) {
			t.Fatalf("tiered RangeQuery(%v): %d ids, want %d", q, len(got), len(want))
		} else if c.Results != int64(len(got)) {
			t.Fatalf("tiered RangeQuery: Results=%d for %d ids", c.Results, len(got))
		}
		pt, k := base[rng.Intn(len(base))].Box.Center(), 1+rng.Intn(40)
		c = stats.Counters{}
		p.Nearest(pt, k, &c, skip, upper...)
		p.Offer(tail, pt, k, skip)
		if got, want := p.Neighbors(&c), nl.KNN(live, pt, k); !slices.Equal(got, want) {
			t.Fatalf("tiered KNN(%v, %d):\n got %v\nwant %v", pt, k, got, want)
		} else if c.Results != int64(len(got)) {
			t.Fatalf("tiered KNN: Results=%d for %d neighbors", c.Results, len(got))
		}
		if got, want := p.KNN(pt, k, &c), nl.KNN(ds[:300], pt, k); !slices.Equal(got, want) {
			t.Fatalf("KNN on the probe's own tree after a tiered search:\n got %v\nwant %v", got, want)
		}
	}
}

// TestSeededKNNPrunesFarTier: the k-slot heap is one across the tiers,
// so a tier that lies wholly beyond the k-th distance found below it is
// dismissed by the test of its root and nothing else — exactly one node
// test more than the search of the lower tier alone, no comparison more
// — while the same tier searched on its own opens nodes and objects.
func TestSeededKNNPrunesFarTier(t *testing.T) {
	near := datagen.UniformSet(2000, 261) // the generator's 1000³ universe
	far := make(geom.Dataset, 500)
	for i, o := range datagen.UniformSet(500, 262) {
		o.Box.Min[0], o.Box.Max[0] = o.Box.Min[0]+5000, o.Box.Max[0]+5000
		far[i] = geom.Object{ID: geom.ID(2000 + i), Box: o.Box}
	}
	p := Build(near, Config{Partitions: 16}).NewProbe()
	farTree := Build(far, Config{Partitions: 16})
	rng := rand.New(rand.NewSource(263))
	for i := 0; i < 40; i++ {
		q := geom.Point{rng.Float64() * 1000, rng.Float64() * 1000, rng.Float64() * 1000}
		const k = 10
		var alone, tiered, own stats.Counters
		want := slices.Clone(p.KNN(q, k, &alone))
		p.Nearest(q, k, &tiered, nil, farTree)
		if got := p.Neighbors(&tiered); !slices.Equal(got, want) {
			t.Fatalf("a tier out of reach changed the answer: %v, want %v", got, want)
		}
		if tiered.NodeTests != alone.NodeTests+1 || tiered.Comparisons != alone.Comparisons {
			t.Fatalf("the far tier cost %d node tests and %d comparisons, want 1 and 0",
				tiered.NodeTests-alone.NodeTests, tiered.Comparisons-alone.Comparisons)
		}
		farTree.NewProbe().KNN(q, k, &own)
		if own.NodeTests < 2 || own.Comparisons == 0 {
			t.Fatalf("the far tier searched on its own cost %d node tests and %d comparisons: the fixture prunes nothing", own.NodeTests, own.Comparisons)
		}
	}
}

// TestFartherBoundsTheRoot: the squared-distance bound offer prunes by is
// safe wherever it is used — a sum above farther(d) has a root strictly
// above d, across magnitudes from subnormal to near overflow, at the
// nearest representable sums above the bound — and it is not so wide that
// it stops pruning: a sum a millionth above d² is past it.
func TestFartherBoundsTheRoot(t *testing.T) {
	rng := rand.New(rand.NewSource(271))
	ds := []float64{0, math.SmallestNonzeroFloat64, 1e-170, 1.5e-162, 1e-154, 1e-20, 1, math.Pi, 1e20, 1e153, 1e154, math.MaxFloat64, math.Inf(1)}
	for i := 0; i < 2000; i++ {
		ds = append(ds, math.Ldexp(rng.Float64()+0.5, rng.Intn(1000)-500))
	}
	for _, d := range ds {
		limit := farther(d)
		for s, n := limit, 0; n < 64 && !math.IsInf(s, 1); n++ {
			s = math.Nextafter(s, math.Inf(1))
			if !(math.Sqrt(s) > d) {
				t.Fatalf("sum %g is above farther(%g) = %g but its root %g is not above %g", s, d, limit, math.Sqrt(s), d)
			}
		}
		if d > 1e-100 && d < 1e100 && !(d*d*(1+1e-6) > limit) {
			t.Fatalf("farther(%g) = %g leaves a sum a millionth above d² unpruned", d, limit)
		}
	}
}
