package touch

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"
)

// statsKey extracts the deterministic counters of a join (everything but
// the wall-clock timings) for equality checks between sequential and
// concurrent executions.
func statsKey(s *Stats) [6]int64 {
	return [6]int64{s.Comparisons, s.NodeTests, s.Filtered, s.Results, s.Replicas, s.MemoryBytes}
}

// TestConcurrentIndexServing: one shared Index, 8 goroutines × 3
// distinct probe datasets each, under -race. Every concurrent join must
// reproduce the pair set and counters of its sequential reference run.
func TestConcurrentIndexServing(t *testing.T) {
	const goroutines = 8
	const probesPer = 3

	a := GenerateClustered(500, 901).Expand(8)
	idx := BuildIndex(a, TOUCHConfig{Partitions: 64})

	type ref struct {
		pairs []Pair
		stats [6]int64
	}
	probes := make([][]Dataset, goroutines)
	refs := make([][]ref, goroutines)
	for g := 0; g < goroutines; g++ {
		probes[g] = make([]Dataset, probesPer)
		refs[g] = make([]ref, probesPer)
		for m := 0; m < probesPer; m++ {
			b := GenerateUniform(900, int64(910+g*probesPer+m))
			probes[g][m] = b
			res := mustJoin(t, idx, b, nil)
			refs[g][m] = ref{pairs: sortPairSet(res.Pairs), stats: statsKey(&res.Stats)}
		}
	}

	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for m := 0; m < probesPer; m++ {
				var opt *Options
				if g%2 == 1 {
					opt = &Options{Workers: 2} // mix per-call parallelism across callers
				}
				res, err := idx.Join(context.Background(), probes[g][m], opt)
				if err != nil {
					errs <- err
					return
				}
				want := refs[g][m]
				if !slices.Equal(sortPairSet(res.Pairs), want.pairs) {
					errs <- fmt.Errorf("goroutine %d probe %d: pair set differs from sequential", g, m)
					return
				}
				if got := statsKey(&res.Stats); got != want.stats {
					errs <- fmt.Errorf("goroutine %d probe %d: counters diverge: %v vs %v", g, m, got, want.stats)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestIndexRepeatedJoinsNoReset: repeated joins on one Index — including
// re-joining an earlier probe dataset — must be stable with no reset
// step in between; pooled probe state may not leak across queries.
func TestIndexRepeatedJoinsNoReset(t *testing.T) {
	a := GenerateUniform(300, 931).Expand(10)
	idx := BuildIndex(a, TOUCHConfig{Partitions: 32})

	b1 := GenerateUniform(700, 932)
	b2 := GenerateGaussian(400, 933)

	first := mustJoin(t, idx, b1, nil)
	ref, err := SpatialJoin(context.Background(), AlgNL, a, b1, &Options{KeepOrder: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Pairs) != len(ref.Pairs) {
		t.Fatalf("index join %d pairs, oracle %d", len(first.Pairs), len(ref.Pairs))
	}

	wantFirst := sortPairSet(first.Pairs)
	wantStats := statsKey(&first.Stats)
	for i := 0; i < 5; i++ {
		// Interleave a different workload (different size, distribution
		// and filtering profile) to dirty any recycled buffers…
		mustJoin(t, idx, b2, &Options{NoPairs: true})
		// …then the original query must still be bit-identical.
		again := mustJoin(t, idx, b1, nil)
		if !slices.Equal(sortPairSet(again.Pairs), wantFirst) {
			t.Fatalf("iteration %d: repeated join changed the pair set", i)
		}
		if got := statsKey(&again.Stats); got != wantStats {
			t.Fatalf("iteration %d: repeated join changed counters: %v vs %v", i, got, wantStats)
		}
	}
}
