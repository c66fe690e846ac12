package bench

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"

	"touch"
	"touch/internal/datagen"
)

func init() {
	register(Experiment{
		ID:    "fig13",
		Title: "Figure 13: Filtering capability of TOUCH, ε=5",
		Description: "Number of dataset-B objects filtered by TOUCH for A=1.6M and " +
			"B=1.6M..9.6M, per distribution.",
		Run: runFig13,
	})
	register(Experiment{
		ID:    "fig14",
		Title: "Figure 14: Impact of the fanout, ε=5",
		Description: "A=1.6M, B=9.6M; fanout 2..20; objects filtered and number of " +
			"comparisons per distribution.",
		Run: runFig14,
	})
}

func runFig13(rc RunConfig, w io.Writer) error {
	rc = rc.fill()
	dists := []datagen.Distribution{datagen.Uniform, datagen.Gaussian, datagen.Clustered}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "objects in B")
	for _, d := range dists {
		fmt.Fprintf(tw, "\t%s", d)
	}
	fmt.Fprintln(tw)
	step := rc.n(largeA)
	for nb := step; nb <= rc.n(largeBMax); nb += step {
		fmt.Fprintf(tw, "%s", thousands(nb))
		for _, dist := range dists {
			a := generate(dist, rc.n(largeA), rc.Seed, 1)
			b := generate(dist, nb, rc.Seed, 2)
			res, err := touch.SpatialJoin(context.TODO(), touch.AlgTOUCH, a, b, &touch.Options{NoPairs: true, Eps: 5})
			if err != nil {
				return err
			}
			fmt.Fprintf(tw, "\t%d", res.Stats.Filtered)
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

func runFig14(rc RunConfig, w io.Writer) error {
	rc = rc.fill()
	dists := []datagen.Distribution{datagen.Uniform, datagen.Gaussian, datagen.Clustered}
	type point struct{ filtered, comparisons int64 }
	results := make(map[datagen.Distribution]map[int]point)
	fanouts := []int{2, 4, 6, 8, 10, 12, 14, 16, 18, 20}
	for _, dist := range dists {
		results[dist] = make(map[int]point)
		a := generate(dist, rc.n(largeA), rc.Seed, 1)
		b := generate(dist, rc.n(largeBMax), rc.Seed, 2)
		for _, fo := range fanouts {
			opt := &touch.Options{Eps: 5, NoPairs: true, KeepOrder: true}
			opt.TOUCH.Fanout = fo
			res, err := touch.SpatialJoin(context.TODO(), touch.AlgTOUCH, a, b, opt)
			if err != nil {
				return err
			}
			results[dist][fo] = point{res.Stats.Filtered, res.Stats.Comparisons}
		}
	}
	for _, metricName := range []string{"filtered", "comparisons"} {
		fmt.Fprintf(w, "\nFigure 14 — %s (A=%s, B=%s, ε=5)\n",
			metricName, thousands(rc.n(largeA)), thousands(rc.n(largeBMax)))
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintf(tw, "fanout")
		for _, d := range dists {
			fmt.Fprintf(tw, "\t%s", d)
		}
		fmt.Fprintln(tw)
		for _, fo := range fanouts {
			fmt.Fprintf(tw, "%d", fo)
			for _, d := range dists {
				p := results[d][fo]
				if metricName == "filtered" {
					fmt.Fprintf(tw, "\t%d", p.filtered)
				} else {
					fmt.Fprintf(tw, "\t%d", p.comparisons)
				}
			}
			fmt.Fprintln(tw)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	return nil
}
