// Tuning: explore TOUCH's design parameters on a workload (§5.2).
//
// Sweeps the fanout and the number of partitions on a clustered
// workload — the same study as the paper's Figure 14 — and demonstrates
// the reusable Index for build-once / join-many scenarios, the two
// parallelism modes (TOUCH's own workers, and the slab driver every
// other algorithm runs under), and the R-tree baseline on the workload
// MBR indexes find hardest: long, thin boxes (a road grid) against small
// clustered ones.
//
// Run with:
//
//	go run ./examples/tuning [-n 50000] [-eps 5]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"time"

	"touch"
)

func main() {
	var (
		n   = flag.Int("n", 50_000, "objects in dataset A (B is 3×)")
		eps = flag.Float64("eps", 5, "distance predicate")
	)
	flag.Parse()

	a := touch.GenerateClustered(*n, 1)
	b := touch.GenerateClustered(3**n, 2)
	fmt.Printf("clustered workload: %d × %d, ε=%g\n", len(a), len(b), *eps)

	fmt.Println("\nfanout sweep (paper §5.2.1: smaller fanout → taller tree → more filtering):")
	fmt.Println("fanout   time        comparisons   filtered")
	for _, fo := range []int{2, 4, 8, 16, 32} {
		opt := &touch.Options{Eps: *eps, NoPairs: true, KeepOrder: true}
		opt.TOUCH.Fanout = fo
		res, err := touch.SpatialJoin(context.Background(), touch.AlgTOUCH, a, b, opt)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8d %-11v %-13d %d\n",
			fo, res.Stats.Total().Round(time.Millisecond), res.Stats.Comparisons, res.Stats.Filtered)
	}

	fmt.Println("\npartition sweep (bucket granularity of the tree leaves):")
	fmt.Println("parts    time        comparisons   memory")
	for _, p := range []int{64, 256, 1024, 4096} {
		opt := &touch.Options{Eps: *eps, NoPairs: true, KeepOrder: true}
		opt.TOUCH.Partitions = p
		res, err := touch.SpatialJoin(context.Background(), touch.AlgTOUCH, a, b, opt)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8d %-11v %-13d %s\n",
			p, res.Stats.Total().Round(time.Millisecond), res.Stats.Comparisons,
			touch.FormatBytes(res.Stats.MemoryBytes))
	}

	// Build once, join many: the tree on A is reused across probe sets
	// (§4.3: a pre-existing data-oriented index can be converted, so the
	// build phase is paid once).
	fmt.Println("\nreusable index (build once, join three probe sets):")
	start := time.Now()
	idx := touch.BuildIndex(a, touch.TOUCHConfig{})
	fmt.Printf("build: %v\n", time.Since(start).Round(time.Millisecond))
	for season := 0; season < 3; season++ {
		probe := touch.GenerateClustered(*n, int64(100+season))
		start = time.Now()
		res, err := idx.Join(context.Background(), probe, &touch.Options{Eps: *eps, NoPairs: true})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("probe %d: %d pairs in %v\n",
			season, res.Stats.Results, time.Since(start).Round(time.Millisecond))
	}

	// Options.Workers means two things (README "Parallelism modes"): TOUCH
	// shards its own assignment and join phases, every other algorithm
	// runs under the slab driver — the paper's per-core decomposition of
	// §3, with boundary objects replicated and deduplicated.
	for _, mode := range []struct {
		alg   touch.Algorithm
		title string
	}{
		{touch.AlgTOUCH, "intra-TOUCH workers (no replication)"},
		{touch.AlgPBSM100, "slab driver over PBSM-100 (the paper's per-core decomposition)"},
	} {
		fmt.Printf("\n%s:\n", mode.title)
		for _, workers := range []int{1, 4} {
			opt := &touch.Options{Eps: *eps, NoPairs: true, Workers: workers}
			start := time.Now()
			res, err := touch.SpatialJoin(context.Background(), mode.alg, a, b, opt)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("workers=%d: %d pairs in %v\n",
				workers, res.Stats.Results, time.Since(start).Round(time.Millisecond))
		}
	}

	// The paper's introduction motivates spatial joins with geographic
	// data — facilities near roads. Road segments are long and thin, so
	// their MBRs overlap many tree nodes; TOUCH's data-oriented
	// assignment filters what the synchronous R-tree traversal must test.
	rng := rand.New(rand.NewSource(7))
	roads := make([]touch.Box, *n/10)
	for i := range roads {
		at, from, length := rng.Float64()*1000, rng.Float64()*1000, 10+rng.Float64()*40
		if i%2 == 0 { // east-west
			roads[i] = touch.Box{Min: touch.Point{from, at, 0}, Max: touch.Point{from + length, at + 0.5, 1}}
		} else { // north-south
			roads[i] = touch.Box{Min: touch.Point{at, from, 0}, Max: touch.Point{at + 0.5, from + length, 1}}
		}
	}
	roadSet, err := touch.DatasetFromBoxes(roads)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%d road segments × %d clustered facilities, ε=%g:\n", len(roadSet), len(a), *eps)
	for _, alg := range []touch.Algorithm{touch.AlgTOUCH, touch.AlgRTree} {
		res, err := touch.SpatialJoin(context.Background(), alg, roadSet, a, &touch.Options{NoPairs: true, Eps: *eps})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-6s %-8v %12d comparisons  %8d pairs  %s\n", alg, res.Stats.Total().Round(time.Millisecond),
			res.Stats.Comparisons, res.Stats.Results, touch.FormatBytes(res.Stats.MemoryBytes))
	}
}
