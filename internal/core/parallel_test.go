package core

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"touch/internal/datagen"
	"touch/internal/geom"
	"touch/internal/stats"
)

func sortedPairs(ps []geom.Pair) []geom.Pair {
	out := slices.Clone(ps)
	slices.SortFunc(out, func(x, y geom.Pair) int {
		if x.A != y.A {
			if x.A < y.A {
				return -1
			}
			return 1
		}
		switch {
		case x.B < y.B:
			return -1
		case x.B > y.B:
			return 1
		default:
			return 0
		}
	})
	return out
}

// TestWorkersEquivalence: the parallel core must produce the identical
// sorted pair set AND identical work counters (comparisons, node tests,
// filtered, replicas) as the single-threaded execution, for every local
// join kind.
func TestWorkersEquivalence(t *testing.T) {
	for _, dist := range []datagen.Distribution{datagen.Uniform, datagen.Clustered} {
		a := datagen.Generate(datagen.DefaultConfig(dist, 600, 401)).Expand(7)
		b := datagen.Generate(datagen.DefaultConfig(dist, 1500, 402))
		want := oracle(a, b)
		for _, kind := range []LocalJoinKind{
			LocalJoinGrid, LocalJoinGridPostDedup, LocalJoinSweep, LocalJoinNested,
		} {
			ref, refC := run(t, a, b, Config{LocalJoin: kind, Workers: 1})
			verifyLemmas(t, kind.String(), ref, want)
			refSorted := sortedPairs(ref)
			for _, workers := range []int{2, 8} {
				got, c := run(t, a, b, Config{LocalJoin: kind, Workers: workers})
				if !slices.Equal(sortedPairs(got), refSorted) {
					t.Fatalf("%s/%s workers=%d: pair set differs from sequential",
						dist, kind, workers)
				}
				if c.Comparisons != refC.Comparisons || c.NodeTests != refC.NodeTests ||
					c.Filtered != refC.Filtered || c.Replicas != refC.Replicas ||
					c.Results != refC.Results {
					t.Fatalf("%s/%s workers=%d: counters diverge: %+v vs %+v",
						dist, kind, workers, c, refC)
				}
			}
		}
	}
}

// TestParallelAssignMatchesSequential: the sharded assignment must leave
// the probe's CSR bit-identical (same per-node segments, same order) to
// the sequential assignment.
func TestParallelAssignMatchesSequential(t *testing.T) {
	a := datagen.GaussianSet(800, 411).Expand(5)
	b := datagen.GaussianSet(5000, 412)

	tr := Build(a, Config{})
	seq := tr.NewProbe()
	var cs stats.Counters
	seq.Assign(b, nil, &cs)

	par := tr.NewProbe()
	par.SetWorkers(4)
	var cp stats.Counters
	par.Assign(b, nil, &cp)

	if cs.NodeTests != cp.NodeTests || cs.Filtered != cp.Filtered {
		t.Fatalf("assignment counters diverge: %+v vs %+v", cs, cp)
	}
	if !slices.Equal(seq.active, par.active) {
		t.Fatalf("active node ids differ:\nseq %v\npar %v", seq.active, par.active)
	}
	if !slices.Equal(seq.nodeOff, par.nodeOff) {
		t.Fatal("per-node CSR offsets differ")
	}
	if !slices.EqualFunc(seq.bObjs, par.bObjs, func(x, y geom.Object) bool { return x == y }) {
		t.Fatal("assigned B objects differ in content or order")
	}
}

// TestParallelReuseAcrossProbes: a parallel probe must stay reusable
// across probe datasets with no reset step — each Assign overwrites the
// previous query's state.
func TestParallelReuseAcrossProbes(t *testing.T) {
	a := datagen.UniformSet(400, 421).Expand(6)
	tr := Build(a, Config{Workers: 4})
	p := tr.NewProbe()
	for seed := int64(430); seed < 433; seed++ {
		b := datagen.UniformSet(3000, seed)
		var c stats.Counters
		sink := &stats.CollectSink{}
		p.Assign(b, nil, &c)
		p.JoinPhase(nil, &c, sink)
		verifyLemmas(t, "reuse", sink.Pairs, oracle(a, b))
	}
}

// TestConcurrentProbesOneTree: many goroutines, each with a private
// probe over one shared immutable tree, must independently reproduce the
// sequential pair sets and counters (run under -race).
func TestConcurrentProbesOneTree(t *testing.T) {
	a := datagen.ClusteredSet(600, 461).Expand(6)
	tr := Build(a, Config{})

	const goroutines = 8
	const probesPer = 3
	type want struct {
		pairs []geom.Pair
		c     stats.Counters
	}
	// Sequential reference for every (goroutine, probe) dataset.
	refs := make([][]want, goroutines)
	datasets := make([][]geom.Dataset, goroutines)
	for g := 0; g < goroutines; g++ {
		refs[g] = make([]want, probesPer)
		datasets[g] = make([]geom.Dataset, probesPer)
		for m := 0; m < probesPer; m++ {
			b := datagen.UniformSet(1200, int64(470+g*probesPer+m))
			datasets[g][m] = b
			p := tr.NewProbe()
			var c stats.Counters
			sink := &stats.CollectSink{}
			p.Assign(b, nil, &c)
			p.JoinPhase(nil, &c, sink)
			refs[g][m] = want{pairs: sortedPairs(sink.Pairs), c: c}
		}
	}

	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := tr.NewProbe()
			if g%2 == 1 {
				p.SetWorkers(2) // mixed parallelism across concurrent probes
			}
			for m := 0; m < probesPer; m++ {
				var c stats.Counters
				sink := &stats.CollectSink{}
				p.Assign(datasets[g][m], nil, &c)
				p.JoinPhase(nil, &c, sink)
				ref := refs[g][m]
				if !slices.Equal(sortedPairs(sink.Pairs), ref.pairs) {
					errs <- fmt.Errorf("goroutine %d probe %d: pair set differs", g, m)
					return
				}
				if c.Comparisons != ref.c.Comparisons || c.NodeTests != ref.c.NodeTests ||
					c.Filtered != ref.c.Filtered || c.Replicas != ref.c.Replicas ||
					c.Results != ref.c.Results {
					errs <- fmt.Errorf("goroutine %d probe %d: counters diverge: %+v vs %+v",
						g, m, c, ref.c)
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

// TestParallelLargeRace is the -race exercise of the concurrent assign
// and join phases: enough objects to engage the parallel assignment
// threshold and enough result pairs to force batched sink flushes from
// several workers.
func TestParallelLargeRace(t *testing.T) {
	if testing.Short() {
		t.Skip("large workload")
	}
	a := datagen.UniformSet(3000, 441).Expand(40)
	b := datagen.UniformSet(9000, 442)
	ref, refC := run(t, a, b, Config{})
	refSorted := sortedPairs(ref)
	got, c := run(t, a, b, Config{Workers: 8})
	if !slices.Equal(sortedPairs(got), refSorted) {
		t.Fatal("workers=8: pair set differs from sequential")
	}
	if c.Comparisons != refC.Comparisons || c.Results != refC.Results {
		t.Fatalf("workers=8: counters diverge: %+v vs %+v", c, refC)
	}
	if len(ref) < sinkBatchSize {
		t.Fatalf("premise: want > %d pairs to exercise batching, got %d", sinkBatchSize, len(ref))
	}
}

// TestArenaInvariant checks the flat layout invariant: every node's
// [aStart, aEnd) covers exactly its descendant leaves' entries, in leaf
// order, and the leaves tile the arena.
func TestArenaInvariant(t *testing.T) {
	a := datagen.ClusteredSet(900, 451)
	tr := Build(a, Config{Partitions: 64, Fanout: 3})
	if len(tr.arena) != len(a) {
		t.Fatalf("arena holds %d objects, want %d", len(tr.arena), len(a))
	}
	next := int32(0)
	for i := range tr.table {
		id, n := int32(i), &tr.table[i]
		if n.leaf(id) {
			if n.aStart != next {
				t.Fatalf("leaf range starts at %d, want %d", n.aStart, next)
			}
			if es := tr.subtreeA(id); len(es) != n.aCount() || (len(es) > 0 && &es[0] != &tr.arena[n.aStart]) {
				t.Fatal("a leaf's objects are not its arena segment")
			}
			next = n.aEnd
			continue
		}
		chs := tr.children(id)
		if n.aStart != tr.table[chs[0]].aStart || n.aEnd != tr.table[chs[len(chs)-1]].aEnd {
			t.Fatalf("inner range [%d,%d) does not span its children", n.aStart, n.aEnd)
		}
	}
	if next != int32(len(tr.arena)) {
		t.Fatalf("leaves tile %d of %d arena slots", next, len(tr.arena))
	}
}
