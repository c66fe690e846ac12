package touch

import (
	"bytes"
	"context"
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"touch/internal/geom"
)

// mustJoin is r.Join under a background context; an error fails t.
func mustJoin(t testing.TB, r *Overlay, b Dataset, opt *Options) *Result {
	t.Helper()
	res, err := r.Join(context.Background(), b, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestUnknownAlgorithm(t *testing.T) {
	_, err := SpatialJoin(context.Background(), "quantum", GenerateUniform(5, 1), GenerateUniform(5, 2), nil)
	if err == nil || !strings.Contains(err.Error(), "unknown algorithm") {
		t.Fatalf("err = %v", err)
	}
}

func TestAlgorithmsListComplete(t *testing.T) {
	algs := Algorithms()
	if len(algs) != 8 {
		t.Fatalf("expected the paper's 8 algorithms, got %d", len(algs))
	}
	a := GenerateUniform(50, 1)
	b := GenerateUniform(80, 2)
	for _, alg := range algs {
		if _, err := SpatialJoin(context.Background(), alg, a, b, nil); err != nil {
			t.Errorf("%s: %v", alg, err)
		}
	}
}

func TestJoinOrderHeuristicPreservesOrientation(t *testing.T) {
	// A bigger than B triggers the internal swap; pairs must still be
	// (A, B) oriented.
	a := GenerateUniform(400, 11)
	b := GenerateUniform(100, 12)
	res, err := SpatialJoin(context.Background(), AlgTOUCH, a, b, &Options{Eps: 60})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) == 0 {
		t.Fatal("premise: expected matches")
	}
	for _, p := range res.Pairs {
		if int(p.A) >= len(a) || int(p.B) >= len(b) {
			t.Fatalf("pair %v outside (A,B) ID ranges %d/%d", p, len(a), len(b))
		}
	}
	// KeepOrder must give the identical result set.
	keep, err := SpatialJoin(context.Background(), AlgTOUCH, a, b, &Options{KeepOrder: true, Eps: 60})
	if err != nil {
		t.Fatal(err)
	}
	if len(keep.Pairs) != len(res.Pairs) {
		t.Fatalf("KeepOrder changed the result: %d vs %d", len(keep.Pairs), len(res.Pairs))
	}
	got := pairsKey(res.Pairs)
	for _, p := range keep.Pairs {
		if got[p] == 0 {
			t.Fatalf("pair %v missing under heuristic order", p)
		}
	}
}

func TestNoPairsOption(t *testing.T) {
	a := GenerateUniform(100, 21)
	b := GenerateUniform(200, 22)
	res, err := SpatialJoin(context.Background(), AlgTOUCH, a, b, &Options{NoPairs: true, Eps: 60})
	if err != nil {
		t.Fatal(err)
	}
	if res.Pairs != nil {
		t.Fatal("NoPairs must suppress materialization")
	}
	if res.Stats.Results == 0 {
		t.Fatal("results must still be counted")
	}
}

func TestCustomSinkReceivesOrientedPairs(t *testing.T) {
	a := GenerateUniform(300, 31) // bigger: swap will happen
	b := GenerateUniform(100, 32)
	var got []Pair
	sink := funcSink(func(x, y geom.ID) { got = append(got, Pair{A: x, B: y}) })
	res, err := SpatialJoin(context.Background(), AlgTOUCH, a, b, &Options{Sink: sink, Eps: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Pairs != nil {
		t.Fatal("custom sink must suppress Result.Pairs")
	}
	if int64(len(got)) != res.Stats.Results {
		t.Fatalf("sink received %d pairs, stats say %d", len(got), res.Stats.Results)
	}
	for _, p := range got {
		if int(p.A) >= len(a) || int(p.B) >= len(b) {
			t.Fatalf("sink pair %v not (A,B)-oriented", p)
		}
	}
}

type funcSink func(a, b geom.ID)

func (f funcSink) Emit(a, b geom.ID) { f(a, b) }

func TestWorkersOptionMatchesSequential(t *testing.T) {
	a := GenerateClustered(300, 41)
	b := GenerateClustered(600, 42)
	seq, err := SpatialJoin(context.Background(), AlgTOUCH, a, b, &Options{Eps: 8})
	if err != nil {
		t.Fatal(err)
	}
	par, err := SpatialJoin(context.Background(), AlgTOUCH, a, b, &Options{Workers: 4, Eps: 8})
	if err != nil {
		t.Fatal(err)
	}
	want := pairsKey(seq.Pairs)
	got := pairsKey(par.Pairs)
	if len(want) != len(got) {
		t.Fatalf("parallel %d pairs, sequential %d", len(got), len(want))
	}
	for p := range want {
		if got[p] == 0 {
			t.Fatalf("parallel missing %v", p)
		}
	}
}

func TestPBSMCustomResolution(t *testing.T) {
	a := GenerateUniform(200, 51)
	b := GenerateUniform(300, 52)
	opt := &Options{Eps: 10}
	opt.PBSM.Resolution = 37
	res, err := SpatialJoin(context.Background(), AlgPBSM, a, b, opt)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := SpatialJoin(context.Background(), AlgNL, a, b, &Options{Eps: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != len(ref.Pairs) {
		t.Fatalf("custom resolution wrong: %d vs %d", len(res.Pairs), len(ref.Pairs))
	}
}

func TestIndexReuse(t *testing.T) {
	a := GenerateUniform(200, 61)
	idx := BuildIndex(a.Expand(10), TOUCHConfig{Partitions: 32})
	for seed := int64(70); seed < 73; seed++ {
		b := GenerateUniform(400, seed)
		res := mustJoin(t, idx, b, nil)
		ref, err := SpatialJoin(context.Background(), AlgNL, a, b, &Options{KeepOrder: true, Eps: 10})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Pairs) != len(ref.Pairs) {
			t.Fatalf("seed %d: index join %d pairs, oracle %d", seed, len(res.Pairs), len(ref.Pairs))
		}
	}
}

func TestIndexDistanceJoin(t *testing.T) {
	a := GenerateUniform(150, 81)
	b := GenerateUniform(250, 82)
	idx := BuildIndex(a, TOUCHConfig{})
	res, err := idx.Join(context.Background(), b, &Options{NoPairs: true, Eps: 12})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := SpatialJoin(context.Background(), AlgNL, a, b, &Options{Eps: 12})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Results != ref.Stats.Results {
		t.Fatalf("index distance join %d, oracle %d", res.Stats.Results, ref.Stats.Results)
	}
}

// epsJoins returns the five joins the ε tests hold to the same rule —
// on an index, on an overlay with pending inserts and one-shot for TOUCH
// and two baselines — and the number of pairs each makes at ε = +Inf.
func epsJoins() (map[string]func(context.Context, *Options) (*Result, error), map[string]int64) {
	a, b := GenerateUniform(200, 85), GenerateUniform(300, 86)
	idx := BuildIndex(a, TOUCHConfig{})
	ins := GenerateUniform(10, 87)
	for i := range ins {
		ins[i].ID = ID(len(a) + i)
	}
	withInserts := NewOverlay(idx, ins, nil)
	joins := map[string]func(context.Context, *Options) (*Result, error){
		"index":   func(ctx context.Context, o *Options) (*Result, error) { return idx.Join(ctx, b, o) },
		"overlay": func(ctx context.Context, o *Options) (*Result, error) { return withInserts.Join(ctx, b, o) },
	}
	all := map[string]int64{
		"index":   int64(len(a) * len(b)),
		"overlay": int64((len(a) + len(ins)) * len(b)),
	}
	for _, alg := range []Algorithm{AlgTOUCH, AlgNL, AlgPBSM100} {
		joins[string(alg)] = func(ctx context.Context, o *Options) (*Result, error) { return SpatialJoin(ctx, alg, a, b, o) }
		all[string(alg)] = int64(len(a) * len(b))
	}
	return joins, all
}

// rejectsEps checks that every join fails eps with ErrNegativeDistance
// before the sink sees a pair, even under a context canceled already:
// ε is checked first.
func rejectsEps(t *testing.T, eps float64) {
	t.Helper()
	joins, _ := epsJoins()
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for name, join := range joins {
		for _, ctx := range []context.Context{context.Background(), canceled} {
			emitted := 0
			_, err := join(ctx, &Options{Eps: eps, Sink: countingSink(func() { emitted++ })})
			if !errors.Is(err, ErrNegativeDistance) || emitted > 0 {
				t.Errorf("%s: eps %g under a context erring %v gave %v after %d pairs, want ErrNegativeDistance before any",
					name, eps, ctx.Err(), err, emitted)
			}
		}
	}
}

// TestNegativeEps: a negative Options.Eps fails with ErrNegativeDistance
// on every join form instead of silently joining shrunk boxes.
func TestNegativeEps(t *testing.T) {
	rejectsEps(t, -1)
	rejectsEps(t, -0.5)
}

// TestIndexDistanceJoinRejectsNegativeEps: the index and one-shot TOUCH
// agree on rejecting a negative ε, through the DistanceJoin wrappers as
// through Options.Eps.
func TestIndexDistanceJoinRejectsNegativeEps(t *testing.T) {
	a, b := GenerateUniform(20, 83), GenerateUniform(20, 84)
	idx := BuildIndex(a, TOUCHConfig{})
	if _, err := idx.DistanceJoin(b, -0.5, nil); !errors.Is(err, ErrNegativeDistance) {
		t.Fatalf("index DistanceJoin must reject negative eps like the one-shot path, got %v", err)
	}
	if _, err := DistanceJoin(AlgTOUCH, a, b, -0.5, nil); !errors.Is(err, ErrNegativeDistance) {
		t.Fatalf("one-shot DistanceJoin must reject negative eps, got %v", err)
	}
	if _, err := idx.Join(context.Background(), b, &Options{Eps: -0.5}); !errors.Is(err, ErrNegativeDistance) {
		t.Fatalf("index Join must reject negative Options.Eps, got %v", err)
	}
	if _, err := SpatialJoin(context.Background(), AlgTOUCH, a, b, &Options{Eps: -0.5}); !errors.Is(err, ErrNegativeDistance) {
		t.Fatalf("one-shot SpatialJoin must reject negative Options.Eps, got %v", err)
	}
}

// TestNaNEpsRejected: a box grown by NaN meets every box, so a NaN ε
// fails like a negative one on every join form before a pair is
// emitted. +Inf stays legal: it joins every pair, the inserts' included.
func TestNaNEpsRejected(t *testing.T) {
	rejectsEps(t, math.NaN())
	joins, all := epsJoins()
	for name, join := range joins {
		res, err := join(context.Background(), &Options{Eps: math.Inf(1), NoPairs: true})
		if err != nil {
			t.Fatalf("%s: +Inf eps: %v", name, err)
		}
		if res.Stats.Results != all[name] {
			t.Errorf("%s: +Inf eps joined %d pairs, want all %d", name, res.Stats.Results, all[name])
		}
	}
}

// TestDistanceJoinWrappers: each DistanceJoin wrapper is its receiver's
// one join form with Options.Eps set — the same pairs, the same counters
// — and leaves the caller's Options as they were.
func TestDistanceJoinWrappers(t *testing.T) {
	a, b := GenerateUniform(300, 88), GenerateClustered(500, 89)
	idx := BuildIndex(a, TOUCHConfig{})
	opt := &Options{Workers: 2}
	same := func(name string, got, want *Result, gotErr, wantErr error) {
		t.Helper()
		if gotErr != nil || wantErr != nil {
			t.Fatalf("%s: %v; the one form: %v", name, gotErr, wantErr)
		}
		if !slices.Equal(sortPairSet(got.Pairs), sortPairSet(want.Pairs)) || statsKey(&got.Stats) != statsKey(&want.Stats) {
			t.Errorf("%s: %d pairs, counters %v; the one form %d, %v",
				name, len(got.Pairs), statsKey(&got.Stats), len(want.Pairs), statsKey(&want.Stats))
		}
	}
	for _, alg := range []Algorithm{AlgTOUCH, AlgPBSM100} {
		got, gotErr := DistanceJoin(alg, a, b, 7, opt)
		want, wantErr := SpatialJoin(context.Background(), alg, a, b, &Options{Workers: 2, Eps: 7})
		same(string(alg), got, want, gotErr, wantErr)
	}
	got, gotErr := idx.DistanceJoin(b, 7, opt)
	want, wantErr := idx.Join(context.Background(), b, &Options{Workers: 2, Eps: 7})
	same("index", got, want, gotErr, wantErr)
	if *opt != (Options{Workers: 2}) {
		t.Errorf("the wrappers changed the caller's Options to %+v", *opt)
	}
}

func TestResultHelpers(t *testing.T) {
	r := &Result{Pairs: []Pair{{A: 2, B: 1}, {A: 1, B: 2}, {A: 1, B: 1}}}
	r.Stats.Results = 3
	r.SortPairs()
	want := []Pair{{A: 1, B: 1}, {A: 1, B: 2}, {A: 2, B: 1}}
	for i := range want {
		if r.Pairs[i] != want[i] {
			t.Fatalf("SortPairs = %v", r.Pairs)
		}
	}
	if sel := r.Selectivity(10, 10); sel != 0.03 {
		t.Fatalf("Selectivity = %g", sel)
	}
	if sel := r.Selectivity(0, 10); sel != 0 {
		t.Fatal("empty input selectivity must be 0")
	}
	if !strings.Contains(r.String(), "results=3") {
		t.Fatalf("String = %q", r.String())
	}
}

func TestReadWriteDatasetRoundTrip(t *testing.T) {
	ds := GenerateGaussian(137, 3)
	var buf bytes.Buffer
	if err := WriteDataset(&buf, ds); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDataset(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ds) {
		t.Fatalf("round trip length %d, want %d", len(got), len(ds))
	}
	for i := range ds {
		if got[i].Box != ds[i].Box {
			t.Fatalf("object %d: %v != %v", i, got[i].Box, ds[i].Box)
		}
		if got[i].ID != geom.ID(i) {
			t.Fatalf("object %d has ID %d", i, got[i].ID)
		}
	}
}

func TestReadDatasetFormats(t *testing.T) {
	in := "# comment\n\n1 2 3 4 5 6\n7,8,9,10,11,12\n"
	ds, err := ReadDataset(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 2 {
		t.Fatalf("parsed %d objects", len(ds))
	}
	if ds[1].Box.Min != (Point{7, 8, 9}) {
		t.Fatalf("comma form parsed as %v", ds[1].Box)
	}
	// Corners in any order normalize.
	ds, err = ReadDataset(strings.NewReader("4 5 6 1 2 3\n"))
	if err != nil || ds[0].Box.Min != (Point{1, 2, 3}) {
		t.Fatalf("normalization failed: %v %v", ds, err)
	}
}

func TestReadDatasetErrors(t *testing.T) {
	if _, err := ReadDataset(strings.NewReader("1 2 3\n")); err == nil {
		t.Fatal("short line must error")
	}
	if _, err := ReadDataset(strings.NewReader("a b c d e f\n")); err == nil {
		t.Fatal("non-numeric must error")
	}
	if ds, err := ReadDataset(strings.NewReader("")); err != nil || len(ds) != 0 {
		t.Fatal("empty input must parse to empty dataset")
	}
}

func TestDistanceJoinEquivalenceAcrossEps(t *testing.T) {
	// Growing eps must grow the result monotonically.
	a := GenerateUniform(150, 91)
	b := GenerateUniform(300, 92)
	prev := int64(-1)
	for _, eps := range []float64{0, 2, 5, 10, 20} {
		res, err := SpatialJoin(context.Background(), AlgTOUCH, a, b, &Options{NoPairs: true, Eps: eps})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Results < prev {
			t.Fatalf("eps=%g: results %d below previous %d", eps, res.Stats.Results, prev)
		}
		prev = res.Stats.Results
	}
}

func TestEmptyDatasetsAllAlgorithms(t *testing.T) {
	ds := GenerateUniform(10, 1)
	for _, alg := range Algorithms() {
		for _, pair := range [][2]Dataset{{nil, ds}, {ds, nil}, {nil, nil}} {
			res, err := SpatialJoin(context.Background(), alg, pair[0], pair[1], nil)
			if err != nil {
				t.Fatalf("%s: %v", alg, err)
			}
			if len(res.Pairs) != 0 {
				t.Fatalf("%s: empty join returned pairs", alg)
			}
		}
	}
}

func TestSeededJoinViaAPI(t *testing.T) {
	// The related-work seeded tree join (not part of the paper's
	// evaluated set) must agree with the oracle through the public API.
	a := GenerateClustered(300, 93)
	b := GenerateClustered(700, 94)
	res, err := SpatialJoin(context.Background(), AlgSeeded, a, b, &Options{Eps: 8})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := SpatialJoin(context.Background(), AlgNL, a, b, &Options{Eps: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != len(ref.Pairs) {
		t.Fatalf("seeded %d pairs, oracle %d", len(res.Pairs), len(ref.Pairs))
	}
	want := pairsKey(ref.Pairs)
	for _, p := range res.Pairs {
		if want[p] == 0 {
			t.Fatalf("seeded produced spurious pair %v", p)
		}
	}
}
