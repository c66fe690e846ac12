package core

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"touch/internal/datagen"
	"touch/internal/geom"
	"touch/internal/nl"
	"touch/internal/stats"
)

func oracle(a, b geom.Dataset) map[geom.Pair]bool {
	var c stats.Counters
	sink := &stats.CollectSink{}
	nl.Join(a, b, nil, &c, sink)
	m := make(map[geom.Pair]bool, len(sink.Pairs))
	for _, p := range sink.Pairs {
		m[p] = true
	}
	return m
}

func run(t *testing.T, a, b geom.Dataset, cfg Config) ([]geom.Pair, stats.Counters) {
	t.Helper()
	var c stats.Counters
	sink := &stats.CollectSink{}
	Join(a, b, cfg, nil, &c, sink)
	return sink.Pairs, c
}

// verifyLemmas checks Theorem 1 (completeness + soundness) and Lemma 3
// (no duplication) against the oracle result set.
func verifyLemmas(t *testing.T, name string, got []geom.Pair, want map[geom.Pair]bool) {
	t.Helper()
	seen := make(map[geom.Pair]bool, len(got))
	for _, p := range got {
		if seen[p] {
			t.Fatalf("%s: Lemma 3 violated: duplicate pair %v", name, p)
		}
		seen[p] = true
		if !want[p] {
			t.Fatalf("%s: soundness violated: spurious pair %v", name, p)
		}
	}
	if len(seen) != len(want) {
		t.Fatalf("%s: completeness violated: got %d pairs, want %d", name, len(seen), len(want))
	}
}

func TestJoinMatchesOracleAllDistributions(t *testing.T) {
	for _, dist := range []datagen.Distribution{datagen.Uniform, datagen.Gaussian, datagen.Clustered} {
		a := datagen.Generate(datagen.DefaultConfig(dist, 500, 131)).Expand(7)
		b := datagen.Generate(datagen.DefaultConfig(dist, 1100, 132))
		want := oracle(a, b)
		got, c := run(t, a, b, Config{})
		verifyLemmas(t, dist.String(), got, want)
		if c.Results != int64(len(got)) {
			t.Fatalf("%s: Results=%d pairs=%d", dist, c.Results, len(got))
		}
	}
}

func TestConfigVariantsAgree(t *testing.T) {
	a := datagen.ClusteredSet(400, 141).Expand(8)
	b := datagen.ClusteredSet(800, 142)
	want := oracle(a, b)
	for _, cfg := range []Config{
		{},
		{Partitions: 4},
		{Partitions: 1},
		{Partitions: 4096},
		{Fanout: 3},
		{Fanout: 20},
		{LocalCells: 1},
		{LocalCells: 5},
		{CellFactor: 10},
		{Partitions: 16, Fanout: 8, LocalCells: 50, CellFactor: 1},
	} {
		got, _ := run(t, a, b, cfg)
		verifyLemmas(t, "cfg", got, want)
	}
}

func TestEmptyAndTinyInputs(t *testing.T) {
	ds := datagen.UniformSet(5, 1)
	for _, pair := range [][2]geom.Dataset{{nil, ds}, {ds, nil}, {nil, nil}} {
		got, c := run(t, pair[0], pair[1], Config{})
		if len(got) != 0 || c.Comparisons != 0 {
			t.Fatal("empty join must do nothing")
		}
	}
	// Single-object datasets.
	one := geom.Dataset{{ID: 0, Box: geom.NewBox(geom.Point{0, 0, 0}, geom.Point{1, 1, 1})}}
	other := geom.Dataset{{ID: 0, Box: geom.NewBox(geom.Point{0.5, 0.5, 0.5}, geom.Point{2, 2, 2})}}
	got, _ := run(t, one, other, Config{})
	if len(got) != 1 {
		t.Fatalf("1×1 overlapping join: got %d pairs", len(got))
	}
}

func TestBuildTreeShape(t *testing.T) {
	a := datagen.UniformSet(1000, 151)
	tr := Build(a, Config{Partitions: 64, Fanout: 2})
	if tr.Leaves < 64 {
		t.Fatalf("expected >= 64 leaves, got %d", tr.Leaves)
	}
	if tr.Height < 7 {
		t.Fatalf("binary tree over %d leaves should be at least 7 high, got %d", tr.Leaves, tr.Height)
	}
	// MBR containment invariant, and every object lands in exactly one
	// leaf.
	count := 0
	for i := range tr.table {
		id, e := int32(i), &tr.table[i]
		for _, ch := range tr.children(id) {
			if c := &tr.table[ch]; !e.mbr.Contains(c.mbr) {
				t.Fatalf("child MBR %v not inside parent %v", c.mbr, e.mbr)
			}
		}
		if !e.leaf(id) {
			continue
		}
		for _, o := range tr.subtreeA(id) {
			if !e.mbr.Contains(o.Box) {
				t.Fatalf("entry box %v not inside leaf %v", o.Box, e.mbr)
			}
		}
		count += e.aCount()
	}
	if count != 1000 {
		t.Fatalf("tree holds %d entries, want 1000", count)
	}
}

// TestBuildDeterministic: STR breaks ties by position, so two builds
// over one dataset give the same tree — node for node the same MBR and
// the same arena order — even when most centers tie.
func TestBuildDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(152))
	a := make(geom.Dataset, 2000)
	for i := range a {
		p := geom.Point{float64(rng.Intn(8)), float64(rng.Intn(8)), float64(rng.Intn(8))}
		a[i] = geom.Object{ID: geom.ID(i), Box: geom.NewBox(p, geom.Add(p, geom.Point{1, 1, 1}))}
	}
	cfg := Config{Partitions: 64, Fanout: 3}
	t1, t2 := Build(a, cfg), Build(a, cfg)
	if len(t1.table) != len(t2.table) {
		t.Fatalf("%d nodes, then %d", len(t1.table), len(t2.table))
	}
	for id := range t1.table {
		if t1.table[id].mbr != t2.table[id].mbr {
			t.Fatalf("node %d: MBR %v, then %v", id, t1.table[id].mbr, t2.table[id].mbr)
		}
	}
	if !slices.Equal(t1.arena, t2.arena) {
		t.Fatal("the two builds order the arena differently")
	}
}

func TestBuildFanoutOnePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("fanout 1 must panic")
		}
	}()
	Build(datagen.UniformSet(10, 1), Config{Fanout: 1})
}

func TestAssignmentInvariants(t *testing.T) {
	a := datagen.GaussianSet(800, 161).Expand(5)
	b := datagen.GaussianSet(1500, 162)
	tr := Build(a, Config{})
	var c stats.Counters
	for _, o := range b {
		id := tr.AssignOne(&o.Box, &c)
		if id < 0 {
			// Filtered: must not intersect any leaf MBR.
			for i := range tr.table {
				if m := &tr.table[i]; m.leaf(int32(i)) && m.mbr.Intersects(o.Box) {
					t.Fatalf("filtered object %d overlaps leaf MBR %v", o.ID, m.mbr)
				}
			}
			continue
		}
		// Assigned: the node's MBR must overlap the object.
		n := &tr.table[id]
		if !n.mbr.Intersects(o.Box) {
			t.Fatalf("object %d assigned to non-overlapping node", o.ID)
		}
		// If assigned to an inner node, at least two children overlap
		// (otherwise the algorithm should have descended).
		if !n.leaf(id) {
			hits := 0
			for _, ch := range tr.children(id) {
				if tr.table[ch].mbr.Intersects(o.Box) {
					hits++
				}
			}
			if hits < 2 {
				t.Fatalf("object %d stopped at inner node with %d overlapping children", o.ID, hits)
			}
		}
	}
}

func TestFilteredObjectsHaveNoPartners(t *testing.T) {
	// Clustered data leaves dead space → filtering happens; filtered
	// objects must have no overlapping partner in A (Lemma 1 intact).
	a := datagen.ClusteredSet(600, 171).Expand(2)
	b := datagen.ClusteredSet(2000, 172)
	tr := Build(a, Config{})
	var c stats.Counters
	filtered := make([]geom.Object, 0)
	for _, o := range b {
		if tr.AssignOne(&o.Box, &c) < 0 {
			filtered = append(filtered, o)
		}
	}
	if len(filtered) == 0 {
		t.Skip("no filtering on this workload; premise not met")
	}
	for _, o := range filtered {
		for i := range a {
			if a[i].Box.Intersects(o.Box) {
				t.Fatalf("filtered object %d overlaps A object %d", o.ID, a[i].ID)
			}
		}
	}
}

func TestFilteringStrongerOnClusteredThanUniform(t *testing.T) {
	// Paper §6.6: the less uniform the data, the more filtering.
	n := 4000
	aU := datagen.UniformSet(n, 181).Expand(5)
	bU := datagen.UniformSet(3*n, 182)
	aC := datagen.ClusteredSet(n, 183).Expand(5)
	bC := datagen.ClusteredSet(3*n, 184)
	_, cu := run(t, aU, bU, Config{})
	_, cc := run(t, aC, bC, Config{})
	if cc.Filtered <= cu.Filtered {
		t.Fatalf("clustered should filter more than uniform: clustered=%d uniform=%d",
			cc.Filtered, cu.Filtered)
	}
}

func TestFanoutInsensitivityOfComparisons(t *testing.T) {
	// Paper Figure 14(b) reports ~1.5× fewer comparisons at fanout 2
	// than at fanout 20. Our local join deduplicates candidate tests
	// with the canonical-cell rule *before* comparing, which removes the
	// duplicate tests that made the paper's grid sensitive to how high
	// up B objects are assigned; comparisons therefore stay flat across
	// fanouts (`go run ./cmd/touchbench -exp ablation` prints both grid
	// kinds' comparisons at fanouts 2, 8 and 20). Assert that flatness —
	// and that every fanout still yields the correct result.
	a := datagen.GaussianSet(3000, 191).Expand(5)
	b := datagen.GaussianSet(9000, 192)
	want := oracle(a, b)
	var lo, hi int64
	for _, fo := range []int{2, 6, 12, 20} {
		got, c := run(t, a, b, Config{Fanout: fo})
		verifyLemmas(t, "fanout", got, want)
		if lo == 0 || c.Comparisons < lo {
			lo = c.Comparisons
		}
		if c.Comparisons > hi {
			hi = c.Comparisons
		}
	}
	if hi > 2*lo {
		t.Fatalf("comparisons should be fanout-insensitive with pre-test dedup: min=%d max=%d", lo, hi)
	}
}

func TestProbeReuseAcrossJoins(t *testing.T) {
	// One probe, many probe datasets, no reset step: every Assign must
	// fully overwrite the previous query's state.
	a := datagen.UniformSet(300, 201).Expand(6)
	b1 := datagen.UniformSet(500, 202)
	b2 := datagen.UniformSet(700, 203)
	tr := Build(a, Config{})
	p := tr.NewProbe()

	runOnce := func(b geom.Dataset) []geom.Pair {
		var c stats.Counters
		sink := &stats.CollectSink{}
		p.Assign(b, nil, &c)
		p.JoinPhase(nil, &c, sink)
		return sink.Pairs
	}
	got1 := runOnce(b1)
	got2 := runOnce(b2)
	got1Again := runOnce(b1)
	verifyLemmas(t, "b1", got1, oracle(a, b1))
	verifyLemmas(t, "b2", got2, oracle(a, b2))
	if len(got1Again) != len(got1) {
		t.Fatalf("reuse changed the result: %d vs %d", len(got1Again), len(got1))
	}
}

func TestProbeAccountsMemoryLikeOneShot(t *testing.T) {
	// Build + probe must reproduce the one-shot Join's MemoryBytes:
	// static tree bytes plus assigned refs plus the peak transient grid.
	a := datagen.UniformSet(600, 221).Expand(5)
	b := datagen.UniformSet(1800, 222)
	_, ref := run(t, a, b, Config{})

	tr := Build(a, Config{})
	p := tr.NewProbe()
	var c stats.Counters
	p.Assign(b, nil, &c)
	p.JoinPhase(nil, &c, &stats.CountSink{})
	if got := tr.StaticBytes() + p.MemoryBytes(); got != ref.MemoryBytes {
		t.Fatalf("probe memory accounting %d, one-shot %d", got, ref.MemoryBytes)
	}
	if p.Assigned() != len(b)-int(c.Filtered) {
		t.Fatalf("Assigned=%d, want %d", p.Assigned(), len(b)-int(c.Filtered))
	}
}

func TestMemoryAccounted(t *testing.T) {
	a := datagen.UniformSet(1000, 211).Expand(5)
	b := datagen.UniformSet(2000, 212)
	_, c := run(t, a, b, Config{})
	// At least: tree nodes + one ref per A object + refs for assigned B.
	min := int64(1000) * stats.BytesPerRef
	if c.MemoryBytes <= min {
		t.Fatalf("memory %d implausibly low", c.MemoryBytes)
	}
}

func TestDegeneratePointObjects(t *testing.T) {
	// Zero-extent boxes everywhere: exercises the degenerate cell-size
	// fallback in the local join.
	rng := rand.New(rand.NewSource(13))
	var a, b geom.Dataset
	for i := 0; i < 300; i++ {
		p := geom.Point{rng.Float64() * 10, rng.Float64() * 10, rng.Float64() * 10}
		a = append(a, geom.Object{ID: geom.ID(i), Box: geom.BoxAt(p)})
		q := geom.Point{rng.Float64() * 10, rng.Float64() * 10, rng.Float64() * 10}
		b = append(b, geom.Object{ID: geom.ID(i), Box: geom.BoxAt(q)})
	}
	want := oracle(a.Expand(1), b)
	got, _ := run(t, a.Expand(1), b, Config{})
	verifyLemmas(t, "points", got, want)
}

func TestAllIdenticalObjects(t *testing.T) {
	box := geom.NewBox(geom.Point{5, 5, 5}, geom.Point{6, 6, 6})
	var a, b geom.Dataset
	for i := 0; i < 40; i++ {
		a = append(a, geom.Object{ID: geom.ID(i), Box: box})
		b = append(b, geom.Object{ID: geom.ID(i), Box: box})
	}
	got, _ := run(t, a, b, Config{Partitions: 8})
	if len(got) != 1600 {
		t.Fatalf("got %d pairs, want 1600", len(got))
	}
}

func TestPropTouchLemmas(t *testing.T) {
	f := func(seed int64, rawPart, rawFanout uint8) bool {
		r := rand.New(rand.NewSource(seed))
		cfg := Config{
			Partitions: int(rawPart%64) + 1,
			Fanout:     int(rawFanout%9) + 2,
		}
		a := datagen.Generate(datagen.Config{
			N: r.Intn(150) + 1, Seed: seed, Distribution: datagen.Clustered,
			Space: 100, MaxSide: 20, Clusters: 4, ClusterSigma: 25,
		})
		b := datagen.Generate(datagen.Config{
			N: r.Intn(150) + 1, Seed: seed + 1, Distribution: datagen.Clustered,
			Space: 100, MaxSide: 20, Clusters: 4, ClusterSigma: 25,
		})
		want := oracle(a, b)
		var c stats.Counters
		sink := &stats.CollectSink{}
		Join(a, b, cfg, nil, &c, sink)
		if len(sink.Pairs) != len(want) {
			return false
		}
		seen := make(map[geom.Pair]bool)
		for _, p := range sink.Pairs {
			if seen[p] || !want[p] {
				return false
			}
			seen[p] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
