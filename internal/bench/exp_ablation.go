package bench

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"touch/internal/core"
	"touch/internal/datagen"
	"touch/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "ablation",
		Title: "Ablation: TOUCH local-join strategies (beyond the paper)",
		Description: "Algorithm 4 variants on the fig9 workload: grid with pre-test " +
			"dedup (this repo's default), grid with post-test reference-point dedup " +
			"(the paper's), plane-sweep and nested local joins; plus the fanout " +
			"sensitivity of each grid mode.",
		Run: runAblation,
	})
}

func runAblation(rc RunConfig, w io.Writer) error {
	rc = rc.fill()
	a := generate(datagen.Uniform, rc.n(largeA), rc.Seed, 1).Expand(5)
	b := generate(datagen.Uniform, rc.n(largeBMax)/2, rc.Seed, 2)

	kinds := []core.LocalJoinKind{
		core.LocalJoinGrid, core.LocalJoinGridPostDedup,
		core.LocalJoinSweep, core.LocalJoinNested,
	}
	fmt.Fprintf(w, "\nLocal-join strategy ablation (uniform %s × %s, ε=5 pre-applied)\n",
		thousands(len(a)), thousands(len(b)))
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "strategy\tcomparisons\ttime\tresults\n")
	for _, kind := range kinds {
		var c stats.Counters
		core.Join(a, b, core.Config{LocalJoin: kind}, nil, &c, &stats.CountSink{})
		fmt.Fprintf(tw, "%s\t%d\t%v\t%d\n",
			kind, c.Comparisons, c.Total().Round(time.Millisecond), c.Results)
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	// Fanout sensitivity under both grid modes: the paper's post-test
	// dedup makes the comparison count depend on how high B objects are
	// assigned; the pre-test rule flattens it (Figure 14; the table below
	// is what `go run ./cmd/touchbench -exp ablation` prints, and
	// `-exp fig14` the paper's own sweep).
	fmt.Fprintf(w, "\nFanout sensitivity of the grid modes\n")
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "fanout\tpre-test dedup\tpost-test dedup (paper)\n")
	for _, fo := range []int{2, 8, 20} {
		fmt.Fprintf(tw, "%d", fo)
		for _, kind := range []core.LocalJoinKind{core.LocalJoinGrid, core.LocalJoinGridPostDedup} {
			var c stats.Counters
			core.Join(a, b, core.Config{Fanout: fo, LocalJoin: kind}, nil, &c, &stats.CountSink{})
			fmt.Fprintf(tw, "\t%d", c.Comparisons)
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}
