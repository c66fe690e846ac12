package touch

import (
	"bytes"
	"context"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"touch/internal/stats"
)

func sortPairSet(ps []Pair) []Pair {
	out := slices.Clone(ps)
	r := Result{Pairs: out}
	r.SortPairs()
	return r.Pairs
}

// TestTOUCHWorkersBitIdentical: AlgTOUCH must emit the identical sorted
// pair set for Workers ∈ {1, 2, 8} and match the AlgNL oracle, on the
// same fixtures api_test.go uses. Run with -race to exercise the
// concurrent assignment and join phases.
func TestTOUCHWorkersBitIdentical(t *testing.T) {
	fixtures := []struct {
		name string
		a, b Dataset
		eps  float64
	}{
		{"clustered", GenerateClustered(300, 41), GenerateClustered(600, 42), 8},
		{"uniform", GenerateUniform(400, 11), GenerateUniform(100, 12), 60},
		{"gaussian", GenerateGaussian(350, 91), GenerateGaussian(700, 92), 10},
	}
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			nl, err := SpatialJoin(context.Background(), AlgNL, fx.a, fx.b, &Options{Eps: fx.eps})
			if err != nil {
				t.Fatal(err)
			}
			want := sortPairSet(nl.Pairs)
			if len(want) == 0 {
				t.Fatal("premise: oracle found no pairs")
			}
			for _, workers := range []int{1, 2, 8} {
				opt := &Options{Workers: workers, Eps: fx.eps}
				res, err := SpatialJoin(context.Background(), AlgTOUCH, fx.a, fx.b, opt)
				if err != nil {
					t.Fatal(err)
				}
				if got := sortPairSet(res.Pairs); !slices.Equal(got, want) {
					t.Fatalf("workers=%d: %d pairs, oracle %d — sets differ",
						workers, len(got), len(want))
				}
				if res.Stats.Results != int64(len(res.Pairs)) {
					t.Fatalf("workers=%d: Results=%d, pairs=%d",
						workers, res.Stats.Results, len(res.Pairs))
				}
			}
		})
	}
}

// TestWorkersOptionRoutesTOUCHInternally: Options.Workers > 1 on
// AlgTOUCH must use the internal parallel phases (not the slab driver)
// and still produce the oracle pair set.
func TestWorkersOptionRoutesTOUCHInternally(t *testing.T) {
	a := GenerateClustered(300, 141)
	b := GenerateClustered(900, 142)
	seq, err := SpatialJoin(context.Background(), AlgTOUCH, a, b, &Options{Eps: 8})
	if err != nil {
		t.Fatal(err)
	}
	par, err := SpatialJoin(context.Background(), AlgTOUCH, a, b, &Options{Workers: 4, Eps: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(sortPairSet(par.Pairs), sortPairSet(seq.Pairs)) {
		t.Fatal("Options.Workers changed the TOUCH result set")
	}
	// The internal path assigns every B object exactly once — no slab
	// replication — so comparisons must match the sequential run (the
	// slab driver would inflate them with boundary duplicates).
	if par.Stats.Comparisons != seq.Stats.Comparisons {
		t.Fatalf("parallel comparisons %d != sequential %d (slab-driver replication?)",
			par.Stats.Comparisons, seq.Stats.Comparisons)
	}
}

// TestIndexParallelJoin: per-call Options.Workers on one index joins
// repeatedly and matches the index's sequential joins, its pooled probes
// going back and forth between the two counts.
func TestIndexParallelJoin(t *testing.T) {
	a := GenerateUniform(250, 61)
	idx := BuildIndex(a.Expand(10), TOUCHConfig{Partitions: 32})
	for seed := int64(70); seed < 73; seed++ {
		b := GenerateUniform(500, seed)
		want := sortPairSet(mustJoin(t, idx, b, nil).Pairs)
		for _, workers := range []int{4, 8} {
			got := sortPairSet(mustJoin(t, idx, b, &Options{Workers: workers}).Pairs)
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d: %d-worker index join differs from sequential", seed, workers)
			}
		}
	}
}

// goroutineID returns the calling goroutine's ID, the number on the
// first line of its stack ("goroutine 42 [running]:").
func goroutineID() string {
	buf := make([]byte, 64)
	return string(bytes.Fields(buf[:runtime.Stack(buf, false)])[1])
}

// TestOptionsWorkersOverridesConfig: Options.Workers alone decides
// where a join runs — the TOUCH configuration holds no worker count. With
// 4 pairs arrive off the caller's goroutine; with 0 or 1 every pair
// reaches the sink on it. Held on a prebuilt Index, on Mutable.View()
// and on the one-shot join, in the order 4, 0, 1 on the same index, so a
// probe recycled from the 4-worker call must run the next call
// single-threaded.
func TestOptionsWorkersOverridesConfig(t *testing.T) {
	a := GenerateUniform(3000, 151)
	b := GenerateUniform(3000, 152)
	m, err := NewMutable(a, TOUCHConfig{})
	if err != nil {
		t.Fatal(err)
	}
	idx := BuildIndex(a, TOUCHConfig{})
	joins := []struct {
		name string
		join func(*Options) (*Result, error)
	}{
		{"index", func(o *Options) (*Result, error) { return idx.Join(context.Background(), b, o) }},
		{"view", func(o *Options) (*Result, error) { return m.View().Join(context.Background(), b, o) }},
		{"one-shot", func(o *Options) (*Result, error) { return SpatialJoin(context.Background(), AlgTOUCH, a, b, o) }},
	}
	for _, j := range joins {
		for _, workers := range []int{4, 0, 1} {
			caller := goroutineID()
			var on, off atomic.Int64
			opt := &Options{Eps: 20, Workers: workers, Sink: stats.FuncSink(func(ID, ID) {
				if goroutineID() == caller {
					on.Add(1)
				} else {
					off.Add(1)
				}
			})}
			res, err := j.join(opt)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.Results < 100 {
				t.Fatalf("%s: premise: the join found only %d pairs", j.name, res.Stats.Results)
			}
			if workers <= 1 && off.Load() != 0 {
				t.Errorf("%s, Workers %d: %d of %d pairs arrived off the caller's goroutine",
					j.name, workers, off.Load(), on.Load()+off.Load())
			}
			if workers == 4 && off.Load() == 0 {
				t.Errorf("%s, Workers 4: all %d pairs on the caller's goroutine; the call's workers did not run",
					j.name, on.Load())
			}
		}
	}
}
