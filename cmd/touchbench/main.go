// Command touchbench regenerates the tables and figures of the TOUCH
// paper's evaluation (SIGMOD 2013, §6). The repository's own performance
// trajectory is the committed benchmark: `go run ./benchmark`.
//
// Usage:
//
//	touchbench -list
//	touchbench -exp fig9 [-scale 0.02] [-seed 42] [-algs touch,pbsm-500]
//	touchbench -exp all
//
// The -scale flag multiplies the paper's dataset sizes (1.0 = the full
// 1.6M × 9.6M workloads); the default keeps every experiment within
// minutes on a single core. Results print as aligned text tables with
// one row per workload point and one column per algorithm.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"touch"
	"touch/internal/bench"
)

func main() {
	var (
		list  = flag.Bool("list", false, "list available experiments and exit")
		exp   = flag.String("exp", "", "experiment id (see -list), or 'all'")
		scale = flag.Float64("scale", 0.02, "dataset scale relative to the paper (0 < scale <= 1)")
		seed  = flag.Int64("seed", 42, "random seed for the dataset generators")
		algs  = flag.String("algs", "", "comma-separated algorithm filter (default: the experiment's set)")
	)
	flag.Parse()

	if *list || *exp == "" {
		fmt.Println("Available experiments:")
		for _, e := range bench.Experiments() {
			fmt.Printf("  %-8s %s\n", e.ID, e.Title)
		}
		if *exp == "" && !*list {
			fmt.Fprintln(os.Stderr, "\nselect one with -exp <id> (or -exp all)")
			os.Exit(2)
		}
		return
	}

	rc := bench.RunConfig{Scale: *scale, Seed: *seed}
	if *algs != "" {
		for _, name := range strings.Split(*algs, ",") {
			rc.Algorithms = append(rc.Algorithms, touch.Algorithm(strings.TrimSpace(name)))
		}
	}

	var selected []bench.Experiment
	if *exp == "all" {
		selected = bench.Experiments()
	} else {
		for _, id := range strings.Split(*exp, ",") {
			e, ok := bench.Get(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "touchbench: unknown experiment %q (use -list)\n", id)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	for _, e := range selected {
		fmt.Printf("=== %s: %s\n", e.ID, e.Title)
		fmt.Printf("    %s\n    scale=%g seed=%d\n", e.Description, *scale, *seed)
		start := time.Now()
		if err := e.Run(rc, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "touchbench: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Printf("--- %s done in %v\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
}
