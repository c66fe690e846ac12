package touch

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"

	"touch/internal/core"
)

// allocBytes returns the bytes the second of two calls of f allocates,
// with the collector off so that no collection empties a pool the first
// call filled, and on one P, as testing.AllocsPerRun measures: a
// sync.Pool keeps what an empty P's pool is given in that P's private
// slot, which no other P can take, so a goroutine that moved between the
// two calls would miss the warm probe and pair chunks the first one left.
func allocBytes(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDistanceJoinAllocBudget: a distance join allocates its answer and
// little else. An index applies ε as its probe gathers each node's B
// objects into buffers a warm probe reuses, so a count-only distance join
// of an N-object probe allocates less than one Object per probe object —
// an enlarged copy of the probe alone would be one each; what it does
// allocate is the call's own few hundred bytes. A materializing join
// on a warm pool of pair chunks allocates that, its Result.Pairs and a
// few kilobytes more, where gathering the pairs in fresh chunks would
// allocate them twice.
func TestDistanceJoinAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops a random share of what a sync.Pool is given")
	}
	const n = 40_000
	idx := BuildIndex(GenerateUniform(20_000, 61), TOUCHConfig{})
	b := GenerateUniform(n, 62)
	join := func(opt *Options) *Result {
		res, err := idx.Join(context.Background(), b, opt)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	counted := join(&Options{NoPairs: true, Eps: 40}).Stats.Results
	engine := allocBytes(func() { join(&Options{NoPairs: true, Eps: 40}) })
	if perObject, limit := float64(engine)/n, unsafe.Sizeof(Object{}); perObject >= float64(limit) {
		t.Errorf("count-only distance join allocated %.1f bytes a probe object, want under %d", perObject, limit)
	}

	pairs := len(join(&Options{Eps: 40}).Pairs)
	if int64(pairs) != counted || pairs < 4*maxPairChunk {
		t.Fatalf("%d pairs materialized, %d counted: want equal and several chunks' worth", pairs, counted)
	}
	const slack = 16 << 10
	answer := uint64(pairs) * uint64(unsafe.Sizeof(Pair{}))
	if got := allocBytes(func() { join(&Options{Eps: 40}) }); got > engine+answer+slack {
		t.Errorf("materializing distance join allocated %d bytes, the count-only one %d, for a %d-byte answer: want at most %d more than both",
			got, engine, answer, slack)
	}
}

// TestOneShotDistanceJoinAllocBudget: a one-shot TOUCH join copies A
// into its tree and nothing of B. Beyond what building the tree
// allocates, a count-only distance join allocates less than half an
// Object per probe object: the probe's index CSR and the per-node
// scratch its local joins gather into, where a copy of B alone would be
// one Object each.
func TestOneShotDistanceJoinAllocBudget(t *testing.T) {
	const n = 60_000
	a, b := GenerateUniform(20_000, 63), GenerateUniform(n, 64)
	build := allocBytes(func() { core.BuildExpanded(a, 5, core.Config{}) })
	join := allocBytes(func() {
		if _, err := SpatialJoin(context.Background(), AlgTOUCH, a, b, &Options{NoPairs: true, Eps: 5}); err != nil {
			t.Fatal(err)
		}
	})
	perObject := (float64(join) - float64(build)) / n
	t.Logf("%.1f bytes a probe object beyond the tree", perObject)
	if limit := unsafe.Sizeof(Object{}) / 2; perObject >= float64(limit) {
		t.Errorf("count-only one-shot distance join allocated %.1f bytes a probe object beyond its tree, want under %d", perObject, limit)
	}
}
