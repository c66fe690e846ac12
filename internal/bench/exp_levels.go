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
			"assigned, A objects below them, the dimensions the depth's inner nodes split " +
			"along and the share of a node's extent its neighbouring children have in " +
			"common there — for the synthetic-uniform setting (tree on the ε-expanded A, " +
			"|B| = 3|A|) and the neuroscience setting (tree on the axons, ε-expanded " +
			"dendrites probing), ε=5.",
		Run: runLevels,
	})
}

// levelsFamily is one setting of the levels experiment: the tree is built
// on a, b is assigned to it.
type levelsFamily struct {
	name string
	a, b geom.Dataset
}

func levelsFamilies(rc RunConfig) []levelsFamily {
	rc = rc.fill()
	axons, dendrites := neuroDatasets(rc, 1.0)
	return []levelsFamily{
		{"uniform", generate(datagen.Uniform, rc.n(largeA), rc.Seed, 1).Expand(5), generate(datagen.Uniform, rc.n(largeBMax)/2, rc.Seed, 2)},
		{"neuroscience", axons, dendrites.Expand(5)},
	}
}

// assignLevels builds the default tree on a, assigns b and returns the
// assignment depth by depth with the number of B objects filtered.
func assignLevels(a, b geom.Dataset) ([]core.LevelStats, int64) {
	p := core.Build(a, core.Config{}).NewProbe()
	var c stats.Counters
	p.Assign(b, nil, &c)
	return p.Levels(), c.Filtered
}

func runLevels(rc RunConfig, w io.Writer) error {
	for _, f := range levelsFamilies(rc) {
		levels, filtered := assignLevels(f.a, f.b)
		fmt.Fprintf(w, "\n%s: A=%s, B=%s, %d B objects filtered\n", f.name, thousands(len(f.a)), thousands(len(f.b)), filtered)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
		fmt.Fprintf(tw, "depth\tnodes\tholding B\tB assigned\tA below them\tsplit x/y/z\tsibling overlap\t\n")
		for d, l := range levels {
			split, overlap := "-", "-"
			if l.Split != [geom.Dims]int{} {
				split = fmt.Sprintf("%d/%d/%d", l.Split[0], l.Split[1], l.Split[2])
				overlap = fmt.Sprintf("%.1f%%", 100*l.Overlap)
			}
			fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%d\t%s\t%s\t\n", d, l.Nodes, l.Active, l.AssignedB, l.ActiveA, split, overlap)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	return nil
}
