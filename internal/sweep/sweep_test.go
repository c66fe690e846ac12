package sweep

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

// nlPairs computes the oracle result set.
func nlPairs(a, b geom.Dataset) map[geom.Pair]bool {
	var c stats.Counters
	sink := &stats.CollectSink{}
	nl.Join(a, b, nil, &c, sink)
	m := make(map[geom.Pair]bool, len(sink.Pairs))
	for _, p := range sink.Pairs {
		m[p] = true
	}
	return m
}

func sweepPairs(a, b geom.Dataset, c *stats.Counters) []geom.Pair {
	sink := &stats.CollectSink{}
	Join(a, b, nil, c, sink)
	return sink.Pairs
}

func TestJoinMatchesNestedLoop(t *testing.T) {
	for _, dist := range []datagen.Distribution{datagen.Uniform, datagen.Gaussian, datagen.Clustered} {
		a := datagen.Generate(datagen.DefaultConfig(dist, 300, 1)).Expand(8)
		b := datagen.Generate(datagen.DefaultConfig(dist, 700, 2))
		want := nlPairs(a, b)
		var c stats.Counters
		got := sweepPairs(a, b, &c)
		if len(got) != len(want) {
			t.Fatalf("%s: got %d pairs, want %d", dist, len(got), len(want))
		}
		for _, p := range got {
			if !want[p] {
				t.Fatalf("%s: spurious pair %v", dist, p)
			}
		}
		if c.Results != int64(len(got)) {
			t.Fatalf("%s: Results=%d, pairs=%d", dist, c.Results, len(got))
		}
	}
}

func TestJoinEmptyInputs(t *testing.T) {
	ds := datagen.UniformSet(10, 1)
	var c stats.Counters
	if got := sweepPairs(nil, ds, &c); len(got) != 0 {
		t.Fatal("join with empty A must be empty")
	}
	if got := sweepPairs(ds, nil, &c); len(got) != 0 {
		t.Fatal("join with empty B must be empty")
	}
	if got := sweepPairs(nil, nil, &c); len(got) != 0 {
		t.Fatal("join of empty sets must be empty")
	}
}

func TestJoinIdenticalDatasets(t *testing.T) {
	ds := datagen.UniformSet(50, 3)
	var c stats.Counters
	got := sweepPairs(ds, ds, &c)
	// Every object matches at least itself.
	if len(got) < len(ds) {
		t.Fatalf("self join found %d pairs, want >= %d", len(got), len(ds))
	}
	want := nlPairs(ds, ds)
	if len(got) != len(want) {
		t.Fatalf("self join: got %d, oracle %d", len(got), len(want))
	}
}

func TestJoinAllCoincident(t *testing.T) {
	// n identical boxes in both datasets: n·m pairs, the worst case.
	box := geom.NewBox(geom.Point{1, 1, 1}, geom.Point{2, 2, 2})
	var a, b geom.Dataset
	for i := 0; i < 20; i++ {
		a = append(a, geom.Object{ID: geom.ID(i), Box: box})
	}
	for i := 0; i < 30; i++ {
		b = append(b, geom.Object{ID: geom.ID(i), Box: box})
	}
	var c stats.Counters
	got := sweepPairs(a, b, &c)
	if len(got) != 600 {
		t.Fatalf("got %d pairs, want 600", len(got))
	}
	if c.Comparisons != 600 {
		t.Fatalf("comparisons = %d, want exactly 600", c.Comparisons)
	}
}

func TestTouchingBoundariesCount(t *testing.T) {
	a := geom.Dataset{{ID: 0, Box: geom.NewBox(geom.Point{0, 0, 0}, geom.Point{1, 1, 1})}}
	b := geom.Dataset{{ID: 0, Box: geom.NewBox(geom.Point{1, 1, 1}, geom.Point{2, 2, 2})}}
	var c stats.Counters
	if got := sweepPairs(a, b, &c); len(got) != 1 {
		t.Fatalf("touching boxes must join; got %d pairs", len(got))
	}
}

func TestSortByXMin(t *testing.T) {
	ds := datagen.UniformSet(200, 5)
	sorted := SortByXMin(ds)
	if !slices.IsSortedFunc(sorted, byXMin) {
		t.Fatal("SortByXMin output not sorted")
	}
	if len(sorted) != len(ds) {
		t.Fatal("SortByXMin changed length")
	}
	if slices.IsSortedFunc(ds, byXMin) {
		t.Fatal("test premise broken: input accidentally sorted")
	}
	// Original untouched.
	if &ds[0] == &sorted[0] {
		t.Fatal("SortByXMin must copy")
	}
}

func TestJoinSortedEmitsOrientation(t *testing.T) {
	// Regardless of which side drives the sweep step, emit must receive
	// the A-side object first.
	a := SortByXMin(geom.Dataset{
		{ID: 7, Box: geom.NewBox(geom.Point{5, 0, 0}, geom.Point{6, 1, 1})},
	})
	b := SortByXMin(geom.Dataset{
		{ID: 9, Box: geom.NewBox(geom.Point{4.5, 0, 0}, geom.Point{5.5, 1, 1})},
		{ID: 11, Box: geom.NewBox(geom.Point{5.5, 0, 0}, geom.Point{7, 1, 1})},
	})
	var c stats.Counters
	var pairs []geom.Pair
	JoinSorted(a, b, nil, &c, func(x, y *geom.Object) {
		pairs = append(pairs, geom.Pair{A: x.ID, B: y.ID})
	})
	if len(pairs) != 2 {
		t.Fatalf("got %d pairs", len(pairs))
	}
	for _, p := range pairs {
		if p.A != 7 {
			t.Fatalf("A-side must be first: %v", p)
		}
	}
}

func TestComparisonsOnlyCountXOverlaps(t *testing.T) {
	// Two objects far apart in x: zero comparisons. Far apart only in y:
	// one comparison (the plane-sweep's redundant-comparison weakness).
	mk := func(x, y float64) geom.Dataset {
		return geom.Dataset{{ID: 0, Box: geom.NewBox(geom.Point{x, y, 0}, geom.Point{x + 1, y + 1, 1})}}
	}
	var c stats.Counters
	sweepPairs(mk(0, 0), mk(100, 0), &c)
	if c.Comparisons != 0 {
		t.Fatalf("x-disjoint: %d comparisons, want 0", c.Comparisons)
	}
	c = stats.Counters{}
	sweepPairs(mk(0, 0), mk(0, 100), &c)
	if c.Comparisons != 1 {
		t.Fatalf("y-disjoint: %d comparisons, want 1", c.Comparisons)
	}
}

func TestJoinMemoryAccounted(t *testing.T) {
	a := datagen.UniformSet(100, 1)
	b := datagen.UniformSet(50, 2)
	var c stats.Counters
	sweepPairs(a, b, &c)
	want := int64(150) * stats.BytesPerObject
	if c.MemoryBytes != want {
		t.Fatalf("MemoryBytes = %d, want %d (two sorted copies)", c.MemoryBytes, want)
	}
}

func TestPropSweepEqualsNL(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := datagen.Generate(datagen.Config{
			N: r.Intn(100), Seed: seed, Distribution: datagen.Uniform,
			Space: 50, MaxSide: 10,
		})
		b := datagen.Generate(datagen.Config{
			N: r.Intn(200), Seed: seed + 1, Distribution: datagen.Uniform,
			Space: 50, MaxSide: 10,
		})
		want := nlPairs(a, b)
		var c stats.Counters
		got := sweepPairs(a, b, &c)
		if len(got) != len(want) {
			return false
		}
		for _, p := range got {
			if !want[p] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
