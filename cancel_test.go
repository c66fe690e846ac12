package touch

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"touch/internal/stats"
)

// cancelFixture builds a workload dense enough that every algorithm has
// plenty of comparisons left after the first result: |A|·|B| identical
// boxes all pairwise overlap.
func cancelFixture(n int) (a, b Dataset) {
	box := NewBox(Point{0, 0, 0}, Point{10, 10, 10})
	a = make(Dataset, n)
	b = make(Dataset, n)
	for i := 0; i < n; i++ {
		a[i] = Object{ID: ID(i), Box: box}
		b[i] = Object{ID: ID(i), Box: box}
	}
	return a, b
}

// TestCancelMidJoinBounded: cancelling the context from inside the sink
// — i.e. mid-join, deterministically — must return ErrJoinCanceled, and
// the engine must stop within a bounded number of further emissions
// (the checkpoint interval plus one indivisible work unit), not run the
// join to completion. Besides every algorithm's one-shot join, it prices
// a TOUCH index join whose every pair comes from a range scan: one B box
// over a dense index, reaching each task alone.
func TestCancelMidJoinBounded(t *testing.T) {
	a, b := cancelFixture(400) // 160000 pairs if run to completion
	algs := append(Algorithms(), AlgSeeded)
	for _, alg := range algs {
		t.Run(string(alg), func(t *testing.T) {
			checkCancelBound(t, func(ctx context.Context, opt *Options) error {
				_, err := SpatialJoin(ctx, alg, a, b, opt)
				return err
			})
		})
	}
	t.Run("index-lone-scan", func(t *testing.T) {
		dense, one := cancelFixture(20_000) // 20000 pairs, all of one B box
		ix := BuildIndex(dense, TOUCHConfig{})
		checkCancelBound(t, func(ctx context.Context, opt *Options) error {
			_, err := ix.Join(ctx, one[:1], opt)
			return err
		})
	})
}

// checkCancelBound runs join with a sink that cancels its context at the
// 100th pair and checks the error and the pairs emitted after it.
func checkCancelBound(t *testing.T, join func(context.Context, *Options) error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var after atomic.Int64
	canceledAt := int64(100)
	var n int64
	sink := countingSink(func() {
		if n++; n == canceledAt {
			cancel()
		} else if n > canceledAt {
			after.Add(1)
		}
	})
	err := join(ctx, &Options{Sink: sink})
	if !errors.Is(err, ErrJoinCanceled) {
		t.Fatalf("cancelled join returned %v, want ErrJoinCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v must wrap context.Canceled", err)
	}
	// The abort is cooperative: every worker may run up to one
	// checkpoint interval past the cancel, plus one indivisible unit (a
	// grid-cell run, a leaf block, a sweep prefix). 2× the interval is a
	// safe, meaningful bound — far below the join run to completion.
	if got := after.Load(); got > 2*stats.CheckEvery {
		t.Fatalf("emitted %d pairs after cancellation (bound %d)", got, 2*stats.CheckEvery)
	}
}

// countingSink adapts a func to Sink for the cancellation tests.
type countingSink func()

func (f countingSink) Emit(a, b ID) { f() }

// TestCancelPreCanceledContext: a context that is already dead fails
// fast on every entry point, before any work — a sink receives nothing.
func TestCancelPreCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a := GenerateUniform(50, 1)
	b := GenerateUniform(50, 2)
	if _, err := SpatialJoin(ctx, AlgTOUCH, a, b, nil); !errors.Is(err, ErrJoinCanceled) {
		t.Fatalf("SpatialJoin: %v", err)
	}
	if _, err := SpatialJoin(ctx, AlgNL, a, b, &Options{Eps: 1}); !errors.Is(err, ErrJoinCanceled) {
		t.Fatalf("SpatialJoin with Eps: %v", err)
	}
	ix := BuildIndex(a, TOUCHConfig{})
	if _, err := ix.Join(ctx, b, nil); !errors.Is(err, ErrJoinCanceled) {
		t.Fatalf("Index.Join: %v", err)
	}
	if _, err := ix.Join(ctx, b, &Options{Eps: 1}); !errors.Is(err, ErrJoinCanceled) {
		t.Fatalf("Index.Join with Eps: %v", err)
	}
	emitted := 0
	opt := &Options{Sink: countingSink(func() { emitted++ })}
	if _, err := SpatialJoin(ctx, AlgTOUCH, a, b, opt); !errors.Is(err, ErrJoinCanceled) {
		t.Fatalf("SpatialJoin with a sink: %v", err)
	}
	if _, err := ix.Join(ctx, b, opt); !errors.Is(err, ErrJoinCanceled) {
		t.Fatalf("Index.Join with a sink: %v", err)
	}
	if emitted != 0 {
		t.Fatalf("a dead context delivered %d pairs to the sink", emitted)
	}
}

// TestIndexJoinCtxCancelKeepsProbeClean: a cancelled Join (aborted
// mid-assignment or mid-join) must leave nothing behind in the probe it
// returns to the pool — the next, uncancelled join on the same index
// answers exactly like a fresh one.
func TestIndexJoinCtxCancelKeepsProbeClean(t *testing.T) {
	a := GenerateUniform(800, 31).Expand(100)
	b := GenerateUniform(2000, 32)
	ix := BuildIndex(a, TOUCHConfig{Partitions: 64})
	want := mustJoin(t, ix, b, nil)
	want.SortPairs()
	// The cancellation below lands within the first ~134 pairs; the join
	// must have far more than a checkpoint interval of work left there,
	// or a fast completion could legitimately beat the abort.
	if want.Stats.Comparisons < 8*stats.CheckEvery {
		t.Fatalf("premise: workload too sparse (%d comparisons)", want.Stats.Comparisons)
	}

	for i := 0; i < 20; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		n, stopAt := 0, i*7+1
		sink := countingSink(func() {
			if n++; n == stopAt {
				cancel()
			}
		})
		if _, err := ix.Join(ctx, b, &Options{Sink: sink}); !errors.Is(err, ErrJoinCanceled) {
			cancel()
			t.Fatalf("round %d: %v", i, err)
		}
		cancel()

		got := mustJoin(t, ix, b, nil)
		got.SortPairs()
		if !slices.Equal(got.Pairs, want.Pairs) {
			t.Fatalf("round %d: join after cancelled join diverged (%d vs %d pairs)",
				i, len(got.Pairs), len(want.Pairs))
		}
	}
}

// TestLimitExact: Options.Limit delivers exactly N pairs — to the
// result, to a sink, and under parallelism — with Stats.Results pinned
// to the delivered count, and leaves shorter results untouched.
func TestLimitExact(t *testing.T) {
	a := GenerateUniform(500, 41).Expand(60)
	b := GenerateUniform(900, 42)
	full, err := SpatialJoin(context.Background(), AlgTOUCH, a, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	total := full.Stats.Results
	if total < 50 {
		t.Fatalf("premise: workload too sparse (%d pairs)", total)
	}

	for _, workers := range []int{1, 4} {
		for _, limit := range []int64{1, 7, total / 2, total, total + 1000} {
			res, err := SpatialJoin(context.Background(), AlgTOUCH, a, b, &Options{Limit: limit, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			want := min(limit, total)
			if int64(len(res.Pairs)) != want || res.Stats.Results != want {
				t.Fatalf("workers=%d limit=%d: %d pairs, Results=%d, want %d",
					workers, limit, len(res.Pairs), res.Stats.Results, want)
			}
		}
	}

	// Sink delivery is capped identically.
	var delivered int64
	sink := countingSink(func() { delivered++ })
	if _, err := SpatialJoin(context.Background(), AlgTOUCH, a, b, &Options{Limit: 13, Sink: sink}); err != nil {
		t.Fatal(err)
	}
	if delivered != 13 {
		t.Fatalf("sink got %d pairs, want 13", delivered)
	}

	// NoPairs + Limit: the count stops at the limit too.
	res, err := SpatialJoin(context.Background(), AlgTOUCH, a, b, &Options{Limit: 5, NoPairs: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Results != 5 {
		t.Fatalf("NoPairs limited count = %d, want 5", res.Stats.Results)
	}
}

// TestLimitRespectsSwap: with the join-order heuristic swapping the
// datasets, limited pairs still arrive in (A, B) orientation.
func TestLimitRespectsSwap(t *testing.T) {
	a := GenerateUniform(900, 51).Expand(60) // larger: heuristic swaps
	b := GenerateUniform(300, 52)
	res, err := SpatialJoin(context.Background(), AlgTOUCH, a, b, &Options{Limit: 25})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != 25 {
		t.Fatalf("limited swapped join delivered %d pairs", len(res.Pairs))
	}
	full, err := SpatialJoin(context.Background(), AlgTOUCH, a, b, &Options{KeepOrder: true})
	if err != nil {
		t.Fatal(err)
	}
	valid := make(map[Pair]bool, len(full.Pairs))
	for _, p := range full.Pairs {
		valid[p] = true
	}
	for _, p := range res.Pairs {
		if !valid[p] {
			t.Fatalf("limited join emitted pair %v not in the full (A,B)-oriented result", p)
		}
	}
}

// sinkSet runs one join with opt's Sink collecting the pairs into a set,
// failing on an error or a pair delivered twice.
func sinkSet(t *testing.T, opt Options, join func(*Options) (*Result, error)) map[Pair]bool {
	t.Helper()
	m := make(map[Pair]bool)
	dups := 0
	opt.Sink = stats.FuncSink(func(a, b ID) {
		p := Pair{A: a, B: b}
		if m[p] {
			dups++
		}
		m[p] = true
	})
	if _, err := join(&opt); err != nil {
		t.Fatalf("sink join: %v", err)
	}
	if dups > 0 {
		t.Fatalf("sink join delivered %d pairs twice", dups)
	}
	return m
}

// TestStreamingMaterializedDifferential: the sink, materialized and
// effectively-unlimited (Limit far past the result size) paths must
// deliver identical pair sets, one-shot and on a prebuilt index,
// sequential and parallel.
func TestStreamingMaterializedDifferential(t *testing.T) {
	a := GenerateUniform(600, 61).Expand(8)
	b := GenerateUniform(1100, 62)

	ref, err := SpatialJoin(context.Background(), AlgTOUCH, a, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[Pair]bool, len(ref.Pairs))
	for _, p := range ref.Pairs {
		want[p] = true
	}

	check := func(name string, got map[Pair]bool) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d pairs, want %d", name, len(got), len(want))
		}
		for p := range got {
			if !want[p] {
				t.Fatalf("%s: spurious pair %v", name, p)
			}
		}
	}

	ix := BuildIndex(a, TOUCHConfig{})
	ctx := context.Background()
	oneShot := func(alg Algorithm) func(*Options) (*Result, error) {
		return func(o *Options) (*Result, error) { return SpatialJoin(ctx, alg, a, b, o) }
	}
	onIndex := func(o *Options) (*Result, error) { return ix.Join(ctx, b, o) }
	check("one-shot sink", sinkSet(t, Options{}, oneShot(AlgTOUCH)))
	check("one-shot sink w4", sinkSet(t, Options{Workers: 4}, oneShot(AlgTOUCH)))
	check("one-shot sink nl", sinkSet(t, Options{}, oneShot(AlgNL)))
	check("index sink", sinkSet(t, Options{}, onIndex))
	check("index sink w4", sinkSet(t, Options{Workers: 4}, onIndex))
	check("limit beyond total", sinkSet(t, Options{Limit: int64(len(want)) + 10_000}, onIndex))

	mat, err := ix.Join(ctx, b, &Options{Limit: int64(len(want)) + 10_000})
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[Pair]bool, len(mat.Pairs))
	for _, p := range mat.Pairs {
		got[p] = true
	}
	check("materialized with headroom limit", got)
}

// TestSinkCancelAndLimit: a sink that cancels its context after n pairs
// stops the join with ErrJoinCanceled within the checkpoint bound, and
// Options.Limit stops it after exactly that many pairs, normally.
func TestSinkCancelAndLimit(t *testing.T) {
	a, b := cancelFixture(200) // 40000 pairs
	ix := BuildIndex(a, TOUCHConfig{})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	n := 0
	_, err := ix.Join(ctx, b, &Options{Sink: countingSink(func() {
		if n++; n == 37 {
			cancel()
		}
	})})
	if !errors.Is(err, ErrJoinCanceled) {
		t.Fatalf("a sink that cancelled after 37 pairs got %v, want ErrJoinCanceled", err)
	}
	if n < 37 || n > 37+2*stats.CheckEvery {
		t.Fatalf("the sink got %d pairs, want 37 plus at most %d", n, 2*stats.CheckEvery)
	}

	n = 0
	if _, err := ix.Join(context.Background(), b, &Options{Limit: 123, Sink: countingSink(func() { n++ })}); err != nil {
		t.Fatal(err)
	}
	if n != 123 {
		t.Fatalf("a limited join delivered %d pairs to its sink, want 123", n)
	}
}

// TestDistanceJoinCtxSink: a distance join into a sink shares the
// buffered path's probe-side expansion (same pair set). Its validation,
// a bad eps failing before any Emit, is TestNegativeEps's and
// TestNaNEpsRejected's.
func TestDistanceJoinCtxSink(t *testing.T) {
	a := GenerateUniform(300, 81)
	b := GenerateUniform(500, 82)
	ix := BuildIndex(a, TOUCHConfig{})
	ctx := context.Background()

	ref, err := ix.Join(ctx, b, &Options{Eps: 40})
	if err != nil {
		t.Fatal(err)
	}
	got := sinkSet(t, Options{Eps: 40}, func(o *Options) (*Result, error) { return ix.Join(ctx, b, o) })
	if len(got) != len(ref.Pairs) {
		t.Fatalf("distance join into a sink: %d pairs, want %d", len(got), len(ref.Pairs))
	}
	for _, p := range ref.Pairs {
		if !got[p] {
			t.Fatalf("distance join into a sink: missing pair %v", p)
		}
	}
}

// TestSinkUnknownAlgorithm: a bad algorithm name fails the one-shot join
// before the sink sees a pair.
func TestSinkUnknownAlgorithm(t *testing.T) {
	a, b := cancelFixture(10)
	emitted := 0
	_, err := SpatialJoin(context.Background(), Algorithm("bogus"), a, b, &Options{Sink: countingSink(func() { emitted++ })})
	if !errors.Is(err, ErrUnknownAlgorithm) || emitted != 0 {
		t.Fatalf("got %v after %d pairs, want ErrUnknownAlgorithm before any", err, emitted)
	}
}

// TestSinkConcurrentCancelRace is the -race centerpiece of incremental
// delivery: 8 goroutines join into their own sinks on one shared Index
// and cancel from inside the sink at random points, concurrently, in
// several rounds. Probes must recycle cleanly through the pool — the
// final full joins must stay bit-identical to the sequential oracle.
func TestSinkConcurrentCancelRace(t *testing.T) {
	a := GenerateUniform(700, 71).Expand(8)
	b := GenerateUniform(1500, 72)
	ix := BuildIndex(a, TOUCHConfig{Partitions: 64})

	oracle := mustJoin(t, ix, b, nil)
	oracle.SortPairs()

	const consumers = 8
	const rounds = 6
	var wg sync.WaitGroup
	for g := 0; g < consumers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) * 977))
			for r := 0; r < rounds; r++ {
				workers := 1 + rng.Intn(3)
				stopAt := 1 + rng.Intn(2*len(oracle.Pairs))
				ctx, cancel := context.WithCancel(context.Background())
				n := 0
				_, err := ix.Join(ctx, b, &Options{Workers: workers, Sink: countingSink(func() {
					if n++; n == stopAt {
						cancel()
					}
				})})
				cancel()
				if err != nil && !errors.Is(err, ErrJoinCanceled) {
					t.Errorf("consumer %d round %d: %v", g, r, err)
				}
			}
		}(g)
	}
	wg.Wait()

	// After all that churn, full joins drawing recycled probes answer
	// exactly like the pristine oracle.
	for i := 0; i < 4; i++ {
		got := mustJoin(t, ix, b, nil)
		got.SortPairs()
		if !slices.Equal(got.Pairs, oracle.Pairs) {
			t.Fatalf("post-race join %d diverged from oracle (%d vs %d pairs)",
				i, len(got.Pairs), len(oracle.Pairs))
		}
	}
}

// TestSinkContract holds every join entry point to what Options.Sink
// promises: Emit never runs concurrently with itself and never after the
// join call returns, pairs arrive in (A, B) orientation — the KeepOrder
// answer, though A is the larger side and the join-order heuristic swaps
// — Limit caps the calls, and a cancel from inside Emit ends the call
// with ErrJoinCanceled or, if the join finished first, none
// (TestCancelMidJoinBounded prices the stop on a join large enough to
// outrun a checkpoint). Every algorithm runs one-shot; the Index and a
// Mutable's View with inserts and tombstones pending run TOUCH.
func TestSinkContract(t *testing.T) {
	a := GenerateUniform(900, 91).Expand(60) // larger: the heuristic swaps
	b := GenerateUniform(500, 92)
	m, err := NewMutable(a, TOUCHConfig{})
	if err != nil {
		t.Fatal(err)
	}
	m.SetCompactThreshold(-1)
	ins, err := m.Insert([]Box{a[3].Box, a[400].Box.Expand(30), b[7].Box})
	if err != nil {
		t.Fatal(err)
	}
	m.Delete([]ID{0, 17, 512, ins[1]})

	type row struct {
		name string
		want Dataset // the A side the KeepOrder answer is taken over
		join func(context.Context, *Options) (*Result, error)
	}
	var rows []row
	for _, alg := range append(Algorithms(), AlgSeeded) {
		rows = append(rows, row{string(alg), a, func(ctx context.Context, o *Options) (*Result, error) {
			return SpatialJoin(ctx, alg, a, b, o)
		}})
	}
	ix, view := BuildIndex(a, TOUCHConfig{}), m.View()
	rows = append(rows,
		row{"Index", a, func(ctx context.Context, o *Options) (*Result, error) { return ix.Join(ctx, b, o) }},
		row{"Mutable.View", m.Dataset(), func(ctx context.Context, o *Options) (*Result, error) { return view.Join(ctx, b, o) }})

	// late reports, once every row has run, whether any sink was called
	// after its join returned.
	var late []*atomic.Bool
	defer func() {
		for i, l := range late {
			if l.Load() {
				t.Errorf("sink %d called after its join returned", i)
			}
		}
	}()
	for _, r := range rows {
		ref, err := SpatialJoin(context.Background(), AlgNL, r.want, b, &Options{KeepOrder: true})
		if err != nil {
			t.Fatal(err)
		}
		valid := make(map[Pair]bool, len(ref.Pairs))
		for _, p := range ref.Pairs {
			valid[p] = true
		}
		total := len(valid)
		if total < 200 {
			t.Fatalf("premise: %s answers only %d pairs", r.name, total)
		}
		for _, workers := range []int{1, 4} {
			for _, mode := range []string{"full", "limit", "cancel"} {
				ctx, cancel := context.WithCancel(context.Background())
				var inFlight, overlap, returned atomic.Bool
				lateCall := new(atomic.Bool)
				late = append(late, lateCall)
				got := make(map[Pair]int)
				opt := &Options{Workers: workers}
				if mode == "limit" {
					opt.Limit = 100
				}
				opt.Sink = stats.FuncSink(func(x, y ID) {
					if !inFlight.CompareAndSwap(false, true) {
						overlap.Store(true)
					}
					if returned.Load() {
						lateCall.Store(true)
					}
					got[Pair{A: x, B: y}]++
					if mode == "cancel" && len(got) == 50 {
						cancel()
					}
					inFlight.Store(false)
				})
				_, err := r.join(ctx, opt)
				returned.Store(true)
				cancel()
				name := fmt.Sprintf("%s/w%d/%s", r.name, workers, mode)
				if overlap.Load() {
					t.Errorf("%s: Emit ran concurrently with itself", name)
				}
				n := 0
				for p, c := range got {
					if !valid[p] {
						t.Fatalf("%s: pair %v is not in the (A, B) KeepOrder answer", name, p)
					}
					n += c
				}
				switch mode {
				case "full":
					if err != nil || n != total || len(got) != total {
						t.Errorf("%s: %v, %d calls for %d distinct pairs, want %d", name, err, n, len(got), total)
					}
				case "limit":
					if err != nil || n != 100 {
						t.Errorf("%s: %v, %d calls, want exactly the limit's 100", name, err, n)
					}
				case "cancel":
					if err != nil && !errors.Is(err, ErrJoinCanceled) {
						t.Errorf("%s: %v", name, err)
					}
				}
			}
		}
	}
}
