// Benchmarks regenerating every table and figure of the TOUCH paper at
// reduced scale, plus per-algorithm microbenchmarks. Each BenchmarkFigN
// / BenchmarkTable1 target runs the same harness code as
// `touchbench -exp figN`, writing to io.Discard; run the command-line
// tool for full-scale, human-readable output.
//
//	go test -bench=. -benchmem
package touch_test

import (
	"fmt"
	"io"
	"testing"

	"touch"
	"touch/internal/bench"
)

// benchScale keeps every experiment in testing.B territory (fractions of
// a second to seconds per iteration on one core).
const benchScale = 0.005

func runExperiment(b *testing.B, id string, scale float64) {
	b.Helper()
	exp, ok := bench.Get(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	rc := bench.RunConfig{Scale: scale, Seed: 42}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := exp.Run(rc, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1Selectivity regenerates Table 1 (dataset selectivities).
func BenchmarkTable1Selectivity(b *testing.B) { runExperiment(b, "table1", benchScale) }

// BenchmarkLoading regenerates §6.3 (load time vs join time).
func BenchmarkLoading(b *testing.B) { runExperiment(b, "loading", benchScale) }

// BenchmarkFig8 regenerates Figure 8 (small uniform datasets, all eight
// algorithms, ε=10).
func BenchmarkFig8(b *testing.B) { runExperiment(b, "fig8", 0.05) }

// BenchmarkFig9 regenerates Figure 9 (large uniform datasets, ε=5).
func BenchmarkFig9(b *testing.B) { runExperiment(b, "fig9", benchScale) }

// BenchmarkFig10 regenerates Figure 10 (large Gaussian datasets, ε=5).
func BenchmarkFig10(b *testing.B) { runExperiment(b, "fig10", benchScale) }

// BenchmarkFig11 regenerates Figure 11 (large clustered datasets, ε=5).
func BenchmarkFig11(b *testing.B) { runExperiment(b, "fig11", benchScale) }

// BenchmarkFig12 regenerates Figure 12 (ε 5 vs 10 across datasets).
func BenchmarkFig12(b *testing.B) { runExperiment(b, "fig12", benchScale) }

// BenchmarkFig13 regenerates Figure 13 (TOUCH filtering capability).
func BenchmarkFig13(b *testing.B) { runExperiment(b, "fig13", benchScale) }

// BenchmarkFig14 regenerates Figure 14 (fanout impact).
func BenchmarkFig14(b *testing.B) { runExperiment(b, "fig14", benchScale) }

// BenchmarkFig15 regenerates Figure 15 (neuroscience density scaling).
func BenchmarkFig15(b *testing.B) { runExperiment(b, "fig15", benchScale) }

// BenchmarkFig16 regenerates Figure 16 (neuroscience datasets, ε∈{5,10}).
func BenchmarkFig16(b *testing.B) { runExperiment(b, "fig16", benchScale) }

// BenchmarkAblation runs the local-join strategy ablation (a study this
// repository adds beyond the paper's figures).
func BenchmarkAblation(b *testing.B) { runExperiment(b, "ablation", benchScale) }

// BenchmarkQueries runs the query-serving experiment (range/point/kNN
// latency on the index vs. brute force, a workload this repository adds
// beyond the paper's batch joins).
func BenchmarkQueries(b *testing.B) { runExperiment(b, "queries", benchScale) }

// Per-algorithm microbenchmarks on a fixed 8K × 24K uniform workload
// with ε=5, reporting comparisons and result counts alongside ns/op.
func benchmarkAlgorithm(b *testing.B, alg touch.Algorithm) {
	b.Helper()
	a := touch.GenerateUniform(8_000, 1)
	bb := touch.GenerateUniform(24_000, 2)
	b.ResetTimer()
	var cmp, results int64
	for i := 0; i < b.N; i++ {
		res, err := touch.DistanceJoin(alg, a, bb, 5, &touch.Options{NoPairs: true})
		if err != nil {
			b.Fatal(err)
		}
		cmp = res.Stats.Comparisons
		results = res.Stats.Results
	}
	b.ReportMetric(float64(cmp), "comparisons")
	b.ReportMetric(float64(results), "results")
}

func BenchmarkJoinTOUCH(b *testing.B)   { benchmarkAlgorithm(b, touch.AlgTOUCH) }
func BenchmarkJoinNL(b *testing.B)      { benchmarkAlgorithm(b, touch.AlgNL) }
func BenchmarkJoinPS(b *testing.B)      { benchmarkAlgorithm(b, touch.AlgPS) }
func BenchmarkJoinPBSM500(b *testing.B) { benchmarkAlgorithm(b, touch.AlgPBSM500) }
func BenchmarkJoinPBSM100(b *testing.B) { benchmarkAlgorithm(b, touch.AlgPBSM100) }
func BenchmarkJoinS3(b *testing.B)      { benchmarkAlgorithm(b, touch.AlgS3) }
func BenchmarkJoinINL(b *testing.B)     { benchmarkAlgorithm(b, touch.AlgINL) }
func BenchmarkJoinRTree(b *testing.B)   { benchmarkAlgorithm(b, touch.AlgRTree) }

// BenchmarkJoinTOUCHTraced is BenchmarkJoinTOUCH with a live span
// attached. The pair feeds the CI bench-guard: the nil-span (disabled)
// path must not run measurably slower than this traced one — tracing
// has to cost nothing when nobody asks for it.
func BenchmarkJoinTOUCHTraced(b *testing.B) {
	a := touch.GenerateUniform(8_000, 1)
	bb := touch.GenerateUniform(24_000, 2)
	b.ReportAllocs()
	b.ResetTimer()
	var sp touch.Span
	for i := 0; i < b.N; i++ {
		sp = touch.Span{}
		_, err := touch.DistanceJoin(touch.AlgTOUCH, a, bb, 5,
			&touch.Options{NoPairs: true, Trace: &sp})
		if err != nil {
			b.Fatal(err)
		}
	}
	if sp.Comparisons == 0 {
		b.Fatal("armed span recorded no comparisons")
	}
}

// BenchmarkTOUCHPhases isolates the three TOUCH phases by reusing a
// prebuilt index: the loop measures assignment + join only, the way the
// neuroscientists' build-once pipeline would see it.
func BenchmarkTOUCHPhases(b *testing.B) {
	a := touch.GenerateUniform(8_000, 1).Expand(5)
	probe := touch.GenerateUniform(24_000, 2)
	idx := touch.BuildIndex(a, touch.TOUCHConfig{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.Join(probe, &touch.Options{NoPairs: true})
	}
}

// BenchmarkParallelTOUCH measures the parallel TOUCH core at 4 workers
// on the microbenchmark workload (Options.Workers routes AlgTOUCH to
// the internal assign/join parallelism, not the slab driver).
func BenchmarkParallelTOUCH(b *testing.B) {
	a := touch.GenerateUniform(8_000, 1)
	bb := touch.GenerateUniform(24_000, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := touch.DistanceJoin(touch.AlgTOUCH, a, bb, 5,
			&touch.Options{NoPairs: true, Workers: 4})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIndexServe is the serving-throughput benchmark: GOMAXPROCS
// goroutines share one immutable index, each drawing pooled probe state
// per query. Allocations per operation must stay near zero — the probe
// pool recycles the assignment CSR and local-join scratch — so run with
// -benchmem to watch the steady state.
func BenchmarkIndexServe(b *testing.B) {
	a := touch.GenerateUniform(8_000, 1).Expand(5)
	probe := touch.GenerateUniform(24_000, 2)
	idx := touch.BuildIndex(a, touch.TOUCHConfig{})
	idx.Join(probe, &touch.Options{NoPairs: true}) // warm the pool
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			idx.Join(probe, &touch.Options{NoPairs: true})
		}
	})
}

// BenchmarkTOUCHWorkers isolates the scaling of the parallel assign and
// join phases: the tree is prebuilt once per worker count and the loop
// measures assignment + join only. Run on a multi-core machine to see
// the scaling (a single-CPU container serializes the goroutines).
func BenchmarkTOUCHWorkers(b *testing.B) {
	a := touch.GenerateUniform(8_000, 1).Expand(5)
	probe := touch.GenerateUniform(24_000, 2)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			idx := touch.BuildIndex(a, touch.TOUCHConfig{Workers: workers})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				idx.Join(probe, &touch.Options{NoPairs: true})
			}
		})
	}
}

// BenchmarkIndexRangeQuery measures single-probe range queries on a
// shared 100K-object index with GOMAXPROCS concurrent clients. The
// pooled probe scratch must leave only the result slice: watch
// allocs/op.
func BenchmarkIndexRangeQuery(b *testing.B) {
	idx := touch.BuildIndex(touch.GenerateUniform(100_000, 1), touch.TOUCHConfig{})
	boxes := make([]touch.Box, 256)
	for i := range boxes {
		lo := touch.Point{float64(i%16) * 60, float64((i/16)%16) * 60, float64(i%8) * 120}
		boxes[i] = touch.NewBox(lo, touch.Point{lo[0] + 50, lo[1] + 50, lo[2] + 50})
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := idx.RangeQuery(boxes[i%len(boxes)]); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}

// BenchmarkIndexKNN measures single-probe k-nearest-neighbor queries on
// a shared 100K-object index with GOMAXPROCS concurrent clients.
func BenchmarkIndexKNN(b *testing.B) {
	idx := touch.BuildIndex(touch.GenerateUniform(100_000, 1), touch.TOUCHConfig{})
	points := make([]touch.Point, 256)
	for i := range points {
		points[i] = touch.Point{float64(i*31%1000) + 0.5, float64(i*67%1000) + 0.5, float64(i*131%1000) + 0.5}
	}
	for _, k := range []int{1, 10, 100} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					if _, err := idx.KNN(points[i%len(points)], k); err != nil {
						b.Fatal(err)
					}
					i++
				}
			})
		})
	}
}

// overlayBenchSizes are the pending-delta sizes (inserts + tombstones)
// the overlay benchmarks run at: none, a quarter of the default
// compaction threshold, the threshold, and a delta a stalled compaction
// let grow to four times it.
var overlayBenchSizes = []int{0, 1024, 4096, 16384}

// loadedMutable returns a Mutable over base, auto-compaction off, with
// a pending delta of n entries: two thirds inserts, one third
// tombstones split evenly between base objects and those inserts.
func loadedMutable(b *testing.B, base touch.Dataset, n int) *touch.Mutable {
	b.Helper()
	m, err := touch.NewMutable(base, touch.TOUCHConfig{})
	if err != nil {
		b.Fatal(err)
	}
	m.SetCompactThreshold(0)
	if n == 0 {
		return m
	}
	boxes := make([]touch.Box, n-n/3)
	for i, o := range touch.GenerateUniform(len(boxes), 7) {
		boxes[i] = o.Box
	}
	ids, err := m.Insert(boxes)
	if err != nil {
		b.Fatal(err)
	}
	dead := make([]touch.ID, 0, n/3)
	for i := 0; i < n/6; i++ {
		dead = append(dead, base[i*(len(base)/(n/6))].ID, ids[i*4])
	}
	if got := m.Delete(dead); got != len(dead) {
		b.Fatalf("deleted %d of %d", got, len(dead))
	}
	return m
}

// BenchmarkOverlayKNN prices k=10 nearest-neighbor queries through a
// Mutable at each pending-delta size; delta=0 is the frozen path.
func BenchmarkOverlayKNN(b *testing.B) {
	base := touch.GenerateUniform(100_000, 1)
	for _, n := range overlayBenchSizes {
		b.Run(fmt.Sprintf("delta=%d", n), func(b *testing.B) {
			m := loadedMutable(b, base, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := touch.Point{float64(i*31%1000) + 0.5, float64(i*67%1000) + 0.5, float64(i*131%1000) + 0.5}
				if _, err := m.View().KNN(p, 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOverlayRange prices 50-unit cube range queries through a
// Mutable at each pending-delta size.
func BenchmarkOverlayRange(b *testing.B) {
	base := touch.GenerateUniform(100_000, 1)
	for _, n := range overlayBenchSizes {
		b.Run(fmt.Sprintf("delta=%d", n), func(b *testing.B) {
			m := loadedMutable(b, base, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lo := touch.Point{float64(i%16) * 60, float64((i/16)%16) * 60, float64(i%8) * 120}
				if _, err := m.View().RangeQuery(touch.NewBox(lo, touch.Point{lo[0] + 50, lo[1] + 50, lo[2] + 50})); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMutableUpdate prices one update — 16 inserts and 8 deletes of
// earlier inserts, the committed benchmark's batch — published on top of
// each pending-delta size. The Mutable is rebuilt off the clock every 64
// updates so the delta stays within 1536 entries of the nominal size.
func BenchmarkMutableUpdate(b *testing.B) {
	base := touch.GenerateUniform(20_000, 1)
	boxes := make([]touch.Box, 16)
	for i, o := range touch.GenerateUniform(len(boxes), 8) {
		boxes[i] = o.Box
	}
	for _, n := range overlayBenchSizes {
		b.Run(fmt.Sprintf("delta=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			var m *touch.Mutable
			var prev []touch.ID
			for i := 0; i < b.N; i++ {
				if i%64 == 0 {
					b.StopTimer()
					m, prev = loadedMutable(b, base, n), nil
					b.StartTimer()
				}
				ids, err := m.Insert(boxes)
				if err != nil {
					b.Fatal(err)
				}
				if len(prev) > 0 {
					m.Delete(prev[:8])
				}
				prev = ids
			}
		})
	}
}
