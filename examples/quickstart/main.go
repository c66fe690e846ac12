// Quickstart: the smallest possible TOUCH distance join.
//
// Two synthetic 3-D datasets are generated, joined with TOUCH under the
// distance predicate ε = 5, and the result set plus the execution
// metrics (the paper's comparisons / filtered / memory numbers) are
// printed. Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"touch"
)

func main() {
	// Two unsorted, unindexed datasets: 10K and 40K random boxes in a
	// 1000³ universe (the paper's synthetic data shape).
	a := touch.GenerateUniform(10_000, 1)
	b := touch.GenerateUniform(40_000, 2)

	// All pairs within distance 5 of each other. The zero Options use
	// the paper's defaults: 1024 partitions, fanout 2, and the smaller
	// dataset builds the tree.
	res, err := touch.SpatialJoin(context.Background(), touch.AlgTOUCH, a, b, &touch.Options{Eps: 5})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("joined %d × %d objects\n", len(a), len(b))
	fmt.Printf("result pairs:  %d\n", len(res.Pairs))
	fmt.Printf("comparisons:   %d (of %d possible)\n",
		res.Stats.Comparisons, int64(len(a))*int64(len(b)))
	fmt.Printf("filtered:      %d objects never considered\n", res.Stats.Filtered)
	fmt.Printf("memory:        %s of support structures\n",
		touch.FormatBytes(res.Stats.MemoryBytes))
	fmt.Printf("time:          %v (build %v, assign %v, join %v)\n",
		res.Stats.Total().Round(1e6), res.Stats.BuildTime.Round(1e6),
		res.Stats.AssignTime.Round(1e6), res.Stats.JoinTime.Round(1e6))

	// The same join through the textbook nested loop, to show what the
	// hierarchy saves.
	ref, err := touch.SpatialJoin(context.Background(), touch.AlgNL, a, b, &touch.Options{NoPairs: true, Eps: 5})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nnested loop needs %d comparisons — TOUCH did %.2f%% of that\n",
		ref.Stats.Comparisons,
		100*float64(res.Stats.Comparisons)/float64(ref.Stats.Comparisons))
	if int64(len(res.Pairs)) != ref.Stats.Results {
		log.Fatalf("result mismatch: touch=%d nl=%d", len(res.Pairs), ref.Stats.Results)
	}
	fmt.Println("result verified against the nested loop oracle ✓")
}
