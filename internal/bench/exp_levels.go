package bench

import (
	"fmt"
	"io"
	"text/tabwriter"

	"touch/internal/core"
	"touch/internal/datagen"
	"touch/internal/geom"
	"touch/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "levels",
		Title: "Levels: where the assignment puts dataset B (beyond the paper)",
		Description: "One row per tree depth — nodes, nodes holding B objects, B objects " +
			"assigned, A objects below them — for the synthetic-uniform setting (tree on " +
			"the ε-expanded A, |B| = 3|A|) and the neuroscience setting (tree on the axons, " +
			"ε-expanded dendrites probing), ε=5.",
		Run: runLevels,
	})
}

func runLevels(rc RunConfig, w io.Writer) error {
	rc = rc.fill()
	a := generate(datagen.Uniform, rc.n(largeA), rc.Seed, 1).Expand(5)
	b := generate(datagen.Uniform, rc.n(largeBMax)/2, rc.Seed, 2)
	if err := writeLevels(w, "uniform", a, b); err != nil {
		return err
	}
	axons, dendrites := neuroDatasets(rc, 1.0)
	return writeLevels(w, "neuroscience", axons, dendrites.Expand(5))
}

// writeLevels builds the tree on a, assigns b and prints the assignment
// level by level, with the x-spans of the root's children above it: how
// much they have in common is how much of B cannot leave the root.
func writeLevels(w io.Writer, name string, a, b geom.Dataset) error {
	t := core.Build(a, core.Config{})
	p := t.NewProbe()
	var c stats.Counters
	p.Assign(b, nil, &c)
	fmt.Fprintf(w, "\n%s: A=%s, B=%s, %d B objects filtered\n", name, thousands(len(a)), thousands(len(b)), c.Filtered)
	fmt.Fprintf(w, "root x ∈ [%.4g, %.4g], children:", t.Root.MBR.Min[0], t.Root.MBR.Max[0])
	for _, ch := range t.Root.Children {
		fmt.Fprintf(w, " [%.4g, %.4g]", ch.MBR.Min[0], ch.MBR.Max[0])
	}
	fmt.Fprintln(w)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "depth\tnodes\tholding B\tB assigned\tA below them\t\n")
	for d, l := range p.Levels() {
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%d\t\n", d, l.Nodes, l.Active, l.AssignedB, l.ActiveA)
	}
	return tw.Flush()
}
