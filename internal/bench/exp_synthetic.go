package bench

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"touch"
	"touch/internal/datagen"
	"touch/internal/geom"
)

func init() {
	register(Experiment{
		ID:    "table1",
		Title: "Table 1: Selectivity of the datasets (×1e-6)",
		Description: "Join selectivity |results|/(|A|·|B|) for the three synthetic " +
			"distributions (160K×1600K) and the neuroscience datasets (644K×1285K), ε ∈ {5,10}.",
		Run: runTable1,
	})
	register(Experiment{
		ID:    "loading",
		Title: "§6.3: Loading the data vs joining it",
		Description: "Time to parse the datasets into memory compared to the PBSM-500 join, " +
			"A=1.6M uniform, B=1.6M..9.6M, ε=5.",
		Run: runLoading,
	})
	register(Experiment{
		ID:    "fig8",
		Title: "Figure 8: Small uniform datasets, increasing |B|, ε=10",
		Description: "A=10K uniform; B=160K..640K step 160K; all eight algorithms; " +
			"comparisons and execution time.",
		Run: runFig8,
	})
	register(Experiment{
		ID:          "fig9",
		Title:       "Figure 9: Large uniform datasets, increasing |B|, ε=5",
		Description: "A=1.6M; B=1.6M..9.6M; comparisons, time, memory.",
		Run:         largeFigure(datagen.Uniform),
	})
	register(Experiment{
		ID:          "fig10",
		Title:       "Figure 10: Large Gaussian datasets, increasing |B|, ε=5",
		Description: "A=1.6M; B=1.6M..9.6M; comparisons, time, memory.",
		Run:         largeFigure(datagen.Gaussian),
	})
	register(Experiment{
		ID:          "fig11",
		Title:       "Figure 11: Large clustered datasets, increasing |B|, ε=5",
		Description: "A=1.6M; B=1.6M..9.6M; comparisons, time, memory.",
		Run:         largeFigure(datagen.Clustered),
	})
	register(Experiment{
		ID:          "fig12",
		Title:       "Figure 12: Impact of doubling ε (5 vs 10) on all datasets",
		Description: "1.6M×1.6M per distribution; execution time per algorithm and ε.",
		Run:         runFig12,
	})
}

// paper dataset sizes.
const (
	smallA    = 10_000
	smallBMax = 640_000
	largeA    = 1_600_000
	largeBMax = 9_600_000
	table1A   = 160_000
	table1B   = 1_600_000
)

func runTable1(rc RunConfig, w io.Writer) error {
	rc = rc.fill()
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "Datasets\tSize (objects)\tε=5\tε=10\n")
	for _, dist := range []datagen.Distribution{datagen.Uniform, datagen.Gaussian, datagen.Clustered} {
		na, nb := rc.n(table1A), rc.n(table1B)
		a := generate(dist, na, rc.Seed, 1)
		b := generate(dist, nb, rc.Seed, 2)
		sel := make([]float64, 0, 2)
		for _, eps := range []float64{5, 10} {
			res, err := touch.SpatialJoin(context.TODO(), touch.AlgTOUCH, a, b, &touch.Options{NoPairs: true, Eps: eps})
			if err != nil {
				return err
			}
			sel = append(sel, res.Selectivity(na, nb)*1e6)
		}
		fmt.Fprintf(tw, "%s\t%s × %s\t%.1f\t%.1f\n",
			title(dist.String()), thousands(na), thousands(nb), sel[0], sel[1])
	}
	// Neuroscience datasets.
	axons, dendrites := neuroDatasets(rc, 1.0)
	na, nb := len(axons), len(dendrites)
	sel := make([]float64, 0, 2)
	for _, eps := range []float64{5, 10} {
		res, err := touch.SpatialJoin(context.TODO(), touch.AlgTOUCH, axons, dendrites, &touch.Options{NoPairs: true, Eps: eps})
		if err != nil {
			return err
		}
		sel = append(sel, res.Selectivity(na, nb)*1e6)
	}
	fmt.Fprintf(tw, "Neuroscience\t%s × %s\t%.1f\t%.1f\n",
		thousands(na), thousands(nb), sel[0], sel[1])
	return tw.Flush()
}

func runLoading(rc RunConfig, w io.Writer) error {
	rc = rc.fill()
	na := rc.n(largeA)
	a := generate(datagen.Uniform, na, rc.Seed, 1)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "objects in B\tload time\tPBSM-500 join time\n")
	for nb := rc.n(largeA); nb <= rc.n(largeBMax); nb += rc.n(largeA) {
		b := generate(datagen.Uniform, nb, rc.Seed, 2)
		// "Loading" = parsing the serialized datasets back into memory,
		// the in-memory stand-in for the paper's disk read.
		var buf bytes.Buffer
		if err := touch.WriteDataset(&buf, a); err != nil {
			return err
		}
		if err := touch.WriteDataset(&buf, b); err != nil {
			return err
		}
		start := time.Now()
		loaded, err := touch.ReadDataset(&buf)
		if err != nil {
			return err
		}
		if len(loaded) != na+nb {
			return fmt.Errorf("bench: loaded %d objects, want %d", len(loaded), na+nb)
		}
		loadTime := time.Since(start)

		res, err := touch.SpatialJoin(context.TODO(), touch.AlgPBSM500, a, b, &touch.Options{NoPairs: true, Eps: 5})
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%s\t%v\t%v\n", thousands(nb),
			loadTime.Round(time.Millisecond), res.Stats.Total().Round(time.Millisecond))
	}
	return tw.Flush()
}

func runFig8(rc RunConfig, w io.Writer) error {
	rc = rc.fill()
	algs := rc.algorithms(touch.Algorithms())
	a := generate(datagen.Uniform, rc.n(smallA), rc.Seed, 1)
	step := rc.n(smallBMax) / 4
	var rows []seriesRow
	for nb := step; nb <= rc.n(smallBMax); nb += step {
		b := generate(datagen.Uniform, nb, rc.Seed, 2)
		ms, err := runPoint(algs, a, b, 10)
		if err != nil {
			return err
		}
		rows = append(rows, seriesRow{Label: thousands(nb), Measurements: ms})
	}
	return writeSeries(w, "Figure 8 (A=10K uniform, ε=10)", "objects in B", algs, rows,
		comparisonsMetric(), timeMetric())
}

// largeFigure builds the Run function shared by Figures 9, 10 and 11.
func largeFigure(dist datagen.Distribution) func(RunConfig, io.Writer) error {
	return func(rc RunConfig, w io.Writer) error {
		rc = rc.fill()
		algs := rc.algorithms(largeSet())
		a := generate(dist, rc.n(largeA), rc.Seed, 1)
		step := rc.n(largeA)
		var rows []seriesRow
		for nb := step; nb <= rc.n(largeBMax); nb += step {
			b := generate(dist, nb, rc.Seed, 2)
			ms, err := runPoint(algs, a, b, 5)
			if err != nil {
				return err
			}
			rows = append(rows, seriesRow{Label: thousands(nb), Measurements: ms})
		}
		title := fmt.Sprintf("Large %s datasets (A=%s, ε=5)", dist, thousands(rc.n(largeA)))
		return writeSeries(w, title, "objects in B", algs, rows,
			comparisonsMetric(), timeMetric(), memoryMetric())
	}
}

func runFig12(rc RunConfig, w io.Writer) error {
	rc = rc.fill()
	algs := rc.algorithms(largeSet())
	for _, dist := range []datagen.Distribution{datagen.Clustered, datagen.Gaussian, datagen.Uniform} {
		n := rc.n(largeA)
		a := generate(dist, n, rc.Seed, 1)
		b := generate(dist, n, rc.Seed, 2)
		var rows []seriesRow
		for _, eps := range []float64{5, 10} {
			ms, err := runPoint(algs, a, b, eps)
			if err != nil {
				return err
			}
			rows = append(rows, seriesRow{Label: fmt.Sprintf("ε=%g", eps), Measurements: ms})
		}
		title := fmt.Sprintf("Figure 12 — %s (%s × %s)", dist, thousands(n), thousands(n))
		if err := writeSeries(w, title, "predicate", algs, rows, timeMetric()); err != nil {
			return err
		}
	}
	return nil
}

// title capitalizes the first letter of a distribution name.
func title(s string) string {
	if s == "" {
		return s
	}
	return string(s[0]-'a'+'A') + s[1:]
}

// neuroDatasets generates the neuroscience MBR datasets at the given
// fraction of the (scaled) paper sizes.
func neuroDatasets(rc RunConfig, fraction float64) (axons, dendrites geom.Dataset) {
	cfg := datagen.ScaledNeuroConfig(rc.Seed, rc.Scale*fraction)
	ca, cd := datagen.GenerateNeuro(cfg)
	return ca.Objects(), cd.Objects()
}
