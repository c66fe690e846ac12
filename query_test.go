package touch

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"touch/internal/nl"
)

// queryBox derives a random query box inside the generator universe.
func queryBox(rng *rand.Rand) Box {
	var lo, hi Point
	for d := 0; d < 3; d++ {
		lo[d] = rng.Float64() * 1000
		hi[d] = lo[d] + rng.Float64()*rng.Float64()*300
	}
	return NewBox(lo, hi)
}

func queryPoint(rng *rand.Rand) Point {
	return Point{rng.Float64() * 1000, rng.Float64() * 1000, rng.Float64() * 1000}
}

// TestIndexQueriesMatchOracle is the acceptance bar of this PR's query
// engine: RangeQuery, PointQuery and KNN must be bit-identical to the
// brute-force oracles on 24 seeded random datasets spanning all three
// generators — including kNN distance ties, which the all-identical
// degenerate dataset of the differential harness covers separately.
func TestIndexQueriesMatchOracle(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		var ds Dataset
		switch seed % 3 {
		case 0:
			ds = GenerateUniform(400+int(seed)*37, seed)
		case 1:
			ds = GenerateGaussian(400+int(seed)*37, seed)
		default:
			ds = GenerateClustered(400+int(seed)*37, seed)
		}
		ix := BuildIndex(ds, TOUCHConfig{})
		rng := rand.New(rand.NewSource(seed * 7919))
		for i := 0; i < 10; i++ {
			q := queryBox(rng)
			got, err := ix.RangeQuery(q)
			if err != nil {
				t.Fatal(err)
			}
			if want := nl.RangeQuery(ds, q); !slices.Equal(got, want) {
				t.Fatalf("seed %d: RangeQuery(%v): got %d ids, want %d", seed, q, len(got), len(want))
			}

			pt := queryPoint(rng)
			gotPt, err := ix.PointQuery(pt[0], pt[1], pt[2])
			if err != nil {
				t.Fatal(err)
			}
			if want := nl.PointQuery(ds, pt); !slices.Equal(gotPt, want) {
				t.Fatalf("seed %d: PointQuery(%v): got %v, want %v", seed, pt, gotPt, want)
			}

			k := 1 + rng.Intn(20)
			gotNbrs, err := ix.KNN(pt, k)
			if err != nil {
				t.Fatal(err)
			}
			if want := nl.KNN(ds, pt, k); !slices.Equal(gotNbrs, want) {
				t.Fatalf("seed %d: KNN(%v, %d) diverged from oracle", seed, pt, k)
			}
		}
	}
}

// TestQueriesOnDegenerateIndexes: a tree with nothing under it has a
// probe table like any other — one entry, built with the tree, not on the
// first query — so the empty index, the index of one object and a
// generation with an empty tier (above or below the objects) take the
// walk every query takes and agree with the oracles.
func TestQueriesOnDegenerateIndexes(t *testing.T) {
	one := Dataset{{ID: 0, Box: NewBox(Point{1, 2, 3}, Point{4, 5, 6})}}
	some := GenerateUniform(300, 77)
	tierOf := func(ds Dataset) tier { return BuildIndex(ds, TOUCHConfig{Partitions: 4}).tier(ds) }
	everything := NewBox(Point{-1e9, -1e9, -1e9}, Point{1e9, 1e9, 1e9})
	for _, tc := range []struct {
		name  string
		tiers []tier
		ds    Dataset
	}{
		{"empty index", []tier{tierOf(nil)}, nil},
		{"one object", []tier{tierOf(one)}, one},
		{"empty upper tier", []tier{tierOf(some), tierOf(nil)}, some},
		{"empty base tier", []tier{tierOf(nil), tierOf(some)}, some},
	} {
		r := newReader(tc.tiers)
		for _, q := range []Box{everything, NewBox(Point{0, 0, 0}, Point{10, 10, 10}), NewBox(Point{-9, -9, -9}, Point{-8, -8, -8}), some[7].Box} {
			if got, err := r.RangeQuery(q); err != nil || !slices.Equal(got, nl.RangeQuery(tc.ds, q)) {
				t.Errorf("%s: RangeQuery(%v) = %v, %v; the nested loop finds %v", tc.name, q, got, err, nl.RangeQuery(tc.ds, q))
			}
		}
		for _, pt := range []Point{{2, 3, 4}, {-5, 0, 0}, some[7].Box.Min} {
			if got, err := r.PointQuery(pt[0], pt[1], pt[2]); err != nil || !slices.Equal(got, nl.PointQuery(tc.ds, pt)) {
				t.Errorf("%s: PointQuery(%v) = %v, %v; the nested loop finds %v", tc.name, pt, got, err, nl.PointQuery(tc.ds, pt))
			}
			for _, k := range []int{1, 3, 400} {
				if got, err := r.KNN(pt, k); err != nil || !slices.Equal(got, nl.KNN(tc.ds, pt, k)) {
					t.Errorf("%s: KNN(%v, %d) returned %d neighbors, %v; the nested loop %d", tc.name, pt, k, len(got), err, len(nl.KNN(tc.ds, pt, k)))
				}
			}
		}
	}
}

// TestQueryArgumentErrors: malformed boxes, NaN points and k < 1 must be
// rejected with the matching sentinel errors, before any traversal.
func TestQueryArgumentErrors(t *testing.T) {
	ix := BuildIndex(GenerateUniform(50, 1), TOUCHConfig{})
	nan := math.NaN()

	if _, err := ix.RangeQuery(Box{Min: Point{1, 1, 1}, Max: Point{0, 2, 2}}); !errors.Is(err, ErrInvalidBox) {
		t.Fatalf("inverted box: got %v, want ErrInvalidBox", err)
	}
	if _, err := ix.RangeQuery(Box{Min: Point{nan, 0, 0}, Max: Point{1, 1, 1}}); !errors.Is(err, ErrInvalidBox) {
		t.Fatalf("NaN box: got %v, want ErrInvalidBox", err)
	}
	if _, err := ix.PointQuery(nan, 0, 0); !errors.Is(err, ErrInvalidPoint) {
		t.Fatalf("NaN point: got %v, want ErrInvalidPoint", err)
	}
	if _, err := ix.KNN(Point{0, nan, 0}, 3); !errors.Is(err, ErrInvalidPoint) {
		t.Fatalf("NaN kNN point: got %v, want ErrInvalidPoint", err)
	}
	for _, k := range []int{0, -1} {
		if _, err := ix.KNN(Point{1, 2, 3}, k); !errors.Is(err, ErrInvalidK) {
			t.Fatalf("k=%d: got %v, want ErrInvalidK", k, err)
		}
	}

	// Valid calls still work on the same index afterwards.
	if _, err := ix.RangeQuery(NewBox(Point{0, 0, 0}, Point{1000, 1000, 1000})); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentQueries: 8 goroutines fire a mixed range/point/kNN
// workload at one shared Index under -race; every answer must equal the
// precomputed sequential reference.
func TestConcurrentQueries(t *testing.T) {
	const goroutines = 8
	const queriesPer = 40

	ds := GenerateClustered(2_000, 991)
	ix := BuildIndex(ds, TOUCHConfig{})

	type want struct {
		box  Box
		pt   Point
		k    int
		ids  []ID
		pts  []ID
		nbrs []Neighbor
	}
	refs := make([][]want, goroutines)
	for g := range refs {
		rng := rand.New(rand.NewSource(int64(1000 + g)))
		refs[g] = make([]want, queriesPer)
		for i := range refs[g] {
			w := want{box: queryBox(rng), pt: queryPoint(rng), k: 1 + rng.Intn(16)}
			w.ids = nl.RangeQuery(ds, w.box)
			w.pts = nl.PointQuery(ds, w.pt)
			w.nbrs = nl.KNN(ds, w.pt, w.k)
			refs[g][i] = w
		}
	}

	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, w := range refs[g] {
				ids, err := ix.RangeQuery(w.box)
				if err != nil {
					errs <- err
					return
				}
				if !slices.Equal(ids, w.ids) {
					errs <- errors.New("concurrent RangeQuery diverged from sequential reference")
					return
				}
				pts, err := ix.PointQuery(w.pt[0], w.pt[1], w.pt[2])
				if err != nil {
					errs <- err
					return
				}
				if !slices.Equal(pts, w.pts) {
					errs <- errors.New("concurrent PointQuery diverged from sequential reference")
					return
				}
				nbrs, err := ix.KNN(w.pt, w.k)
				if err != nil {
					errs <- err
					return
				}
				if !slices.Equal(nbrs, w.nbrs) {
					errs <- errors.New("concurrent KNN diverged from sequential reference")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestConcurrentQueriesAndJoins: queries and joins interleave on one
// shared Index — the mixed workload of the serving scenario — without
// interference.
func TestConcurrentQueriesAndJoins(t *testing.T) {
	a := GenerateUniform(800, 551).Expand(5)
	b := GenerateUniform(1_200, 552)
	ix := BuildIndex(a, TOUCHConfig{})

	q := NewBox(Point{100, 100, 100}, Point{400, 400, 400})
	wantIDs := nl.RangeQuery(a, q)
	wantJoin := ix.Join(b, nil).Stats.Results

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				ids, err := ix.RangeQuery(q)
				if err != nil {
					errs <- err
					return
				}
				if !slices.Equal(ids, wantIDs) {
					errs <- errors.New("RangeQuery diverged while joins ran")
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				res := ix.Join(b, &Options{NoPairs: true})
				if res.Stats.Results != wantJoin {
					errs <- errors.New("Join diverged while queries ran")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
