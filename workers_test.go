package touch

import (
	"bytes"
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
			nl, err := DistanceJoin(AlgNL, fx.a, fx.b, fx.eps, nil)
			if err != nil {
				t.Fatal(err)
			}
			want := sortPairSet(nl.Pairs)
			if len(want) == 0 {
				t.Fatal("premise: oracle found no pairs")
			}
			for _, workers := range []int{1, 2, 8} {
				opt := &Options{}
				opt.TOUCH.Workers = workers
				res, err := DistanceJoin(AlgTOUCH, fx.a, fx.b, fx.eps, opt)
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
	seq, err := DistanceJoin(AlgTOUCH, a, b, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	par, err := DistanceJoin(AlgTOUCH, a, b, 8, &Options{Workers: 4})
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

// TestIndexParallelJoin: a prebuilt index configured with workers joins
// repeatedly and matches the sequential index result; Options.Workers
// on a sequential index must be honored per call and then dropped.
func TestIndexParallelJoin(t *testing.T) {
	a := GenerateUniform(250, 61)
	seqIdx := BuildIndex(a.Expand(10), TOUCHConfig{Partitions: 32})
	parIdx := BuildIndex(a.Expand(10), TOUCHConfig{Partitions: 32, Workers: 4})
	for seed := int64(70); seed < 73; seed++ {
		b := GenerateUniform(500, seed)
		want := sortPairSet(seqIdx.Join(b, nil).Pairs)
		got := sortPairSet(parIdx.Join(b, nil).Pairs)
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: parallel index join differs from sequential", seed)
		}
		// Per-call Options.Workers on the sequential index.
		optGot := sortPairSet(seqIdx.Join(b, &Options{Workers: 8}).Pairs)
		if !slices.Equal(optGot, want) {
			t.Fatalf("seed %d: Options.Workers index join differs from sequential", seed)
		}
	}
}

// goroutineID returns the calling goroutine's ID, the number on the
// first line of its stack ("goroutine 42 [running]:").
func goroutineID() string {
	buf := make([]byte, 64)
	return string(bytes.Fields(buf[:runtime.Stack(buf, false)])[1])
}

// TestOptionsWorkersOverridesConfig: a positive Options.Workers is the
// call's worker count even when the config says more — with 1 every pair
// reaches the sink on the caller's goroutine — while 0 leaves the
// config's four workers in charge. Held on a prebuilt Index, on
// Mutable.View() and on the one-shot join.
func TestOptionsWorkersOverridesConfig(t *testing.T) {
	a := GenerateUniform(3000, 151)
	b := GenerateUniform(3000, 152)
	cfg := TOUCHConfig{Workers: 4}
	m, err := NewMutable(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	idx := BuildIndex(a, cfg)
	joins := []struct {
		name string
		join func(*Options) (*Result, error)
	}{
		{"index", func(o *Options) (*Result, error) { return idx.DistanceJoin(b, 20, o) }},
		{"view", func(o *Options) (*Result, error) { return m.View().DistanceJoin(b, 20, o) }},
		{"one-shot", func(o *Options) (*Result, error) {
			o.TOUCH = cfg
			return DistanceJoin(AlgTOUCH, a, b, 20, o)
		}},
	}
	for _, j := range joins {
		for _, workers := range []int{1, 0} {
			caller := goroutineID()
			var on, off atomic.Int64
			opt := &Options{Workers: workers, Sink: stats.FuncSink(func(ID, ID) {
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
			if workers == 1 && off.Load() != 0 {
				t.Errorf("%s, Workers 1: %d of %d pairs arrived off the caller's goroutine",
					j.name, off.Load(), on.Load()+off.Load())
			}
			if workers == 0 && off.Load() == 0 {
				t.Errorf("%s, Workers 0: all %d pairs on the caller's goroutine; the config's 4 workers did not run",
					j.name, on.Load())
			}
		}
	}
}
