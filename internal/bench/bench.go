// Package bench is the experiment harness that regenerates every table
// and figure of the TOUCH paper's evaluation (§6). Each experiment is
// registered under the paper's artefact id (table1, fig8 … fig16,
// loading) and prints the same rows/series the paper reports.
//
// Dataset sizes scale with RunConfig.Scale relative to the paper's
// (Scale=1 reproduces the full 1.6M×9.6M workloads; the default, 0.02 —
// what `go run ./cmd/touchbench -exp all` prints — is smaller so every
// experiment completes on one core in minutes). The *shape* of the
// results — which algorithm wins, by what factor, where crossovers fall —
// is preserved across scales because all algorithms see the same
// workload.
package bench

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"text/tabwriter"
	"time"

	"touch"
	"touch/internal/datagen"
	"touch/internal/geom"
)

// RunConfig parameterizes an experiment run.
type RunConfig struct {
	// Scale multiplies every dataset size of the paper (0 < Scale <= 1;
	// default 0.02).
	Scale float64
	// Seed feeds the deterministic dataset generators.
	Seed int64
	// Algorithms optionally restricts which algorithms run (empty = the
	// experiment's own set).
	Algorithms []touch.Algorithm
}

// fill normalizes the configuration.
func (rc RunConfig) fill() RunConfig {
	if rc.Scale <= 0 {
		rc.Scale = 0.02
	}
	if rc.Scale > 1 {
		rc.Scale = 1
	}
	if rc.Seed == 0 {
		rc.Seed = 42
	}
	return rc
}

// n scales one of the paper's dataset sizes.
func (rc RunConfig) n(paperSize int) int {
	n := int(float64(paperSize) * rc.Scale)
	if n < 1 {
		n = 1
	}
	return n
}

// Experiment regenerates one artefact of the paper.
type Experiment struct {
	ID          string
	Title       string
	Description string
	Run         func(rc RunConfig, w io.Writer) error
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// Experiments lists all registered experiments sorted by id.
func Experiments() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	slices.SortFunc(out, func(a, b Experiment) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// Get returns the experiment registered under id.
func Get(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// largeSet is the algorithm set of the large-dataset figures (9–12, 15,
// 16): NL and PS are excluded "due to the long execution time" (§6.4).
func largeSet() []touch.Algorithm {
	return []touch.Algorithm{
		touch.AlgPBSM500, touch.AlgPBSM100, touch.AlgS3,
		touch.AlgINL, touch.AlgRTree, touch.AlgTOUCH,
	}
}

// algorithms resolves the algorithm set for an experiment.
func (rc RunConfig) algorithms(def []touch.Algorithm) []touch.Algorithm {
	if len(rc.Algorithms) > 0 {
		return rc.Algorithms
	}
	return def
}

// measurement is one algorithm's outcome on one workload point.
type measurement struct {
	Alg   touch.Algorithm
	Stats touch.Stats
}

// runPoint executes the distance join for every algorithm on one
// (A, B, ε) workload point, counting results without materializing them.
func runPoint(algs []touch.Algorithm, a, b geom.Dataset, eps float64) ([]measurement, error) {
	out := make([]measurement, 0, len(algs))
	for _, alg := range algs {
		res, err := touch.DistanceJoin(alg, a, b, eps, &touch.Options{NoPairs: true})
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", alg, err)
		}
		out = append(out, measurement{Alg: alg, Stats: res.Stats})
	}
	return out, nil
}

// generate builds a synthetic dataset for the distribution, deriving the
// seed from the base seed and a role tag so that A and B always differ.
func generate(dist datagen.Distribution, n int, seed int64, role int64) geom.Dataset {
	return datagen.Generate(datagen.DefaultConfig(dist, n, seed*1_000_003+role))
}

// metric extracts one reported quantity from a measurement.
type metric struct {
	Name string
	Get  func(touch.Stats) string
}

func comparisonsMetric() metric {
	return metric{Name: "comparisons", Get: func(s touch.Stats) string {
		return fmt.Sprintf("%d", s.Comparisons)
	}}
}

func timeMetric() metric {
	return metric{Name: "time", Get: func(s touch.Stats) string {
		return s.Total().Round(time.Millisecond).String()
	}}
}

func memoryMetric() metric {
	return metric{Name: "memory", Get: func(s touch.Stats) string {
		return fmt.Sprintf("%.1fMB", float64(s.MemoryBytes)/(1<<20))
	}}
}

func filteredMetric() metric {
	return metric{Name: "filtered", Get: func(s touch.Stats) string {
		return fmt.Sprintf("%d", s.Filtered)
	}}
}

// series is a table with one row per workload point and one column per
// algorithm, the layout of the paper's figures.
type series struct {
	Metric  metric
	RowName string // x-axis label, e.g. "objects in B"
	Rows    []seriesRow
	Algs    []touch.Algorithm
}

type seriesRow struct {
	Label        string
	Measurements []measurement
}

// write renders the series as an aligned table.
func (s *series) write(w io.Writer, title string) error {
	if _, err := fmt.Fprintf(w, "\n%s — %s\n", title, s.Metric.Name); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "%s", s.RowName)
	for _, alg := range s.Algs {
		fmt.Fprintf(tw, "\t%s", alg)
	}
	fmt.Fprintln(tw)
	for _, row := range s.Rows {
		fmt.Fprintf(tw, "%s", row.Label)
		for _, alg := range s.Algs {
			val := "-"
			for _, m := range row.Measurements {
				if m.Alg == alg {
					val = s.Metric.Get(m.Stats)
					break
				}
			}
			fmt.Fprintf(tw, "\t%s", val)
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

// writeSeries renders the same rows under several metrics (the paper's
// (a) comparisons / (b) time / (c) memory sub-figures).
func writeSeries(w io.Writer, title, rowName string, algs []touch.Algorithm,
	rows []seriesRow, metrics ...metric) error {
	for _, m := range metrics {
		s := series{Metric: m, RowName: rowName, Rows: rows, Algs: algs}
		if err := s.write(w, title); err != nil {
			return err
		}
	}
	return nil
}

// thousands formats an object count the way the paper labels its axes.
func thousands(n int) string {
	switch {
	case n >= 1_000_000:
		return fmt.Sprintf("%.1fM", float64(n)/1e6)
	case n >= 1_000:
		return fmt.Sprintf("%dK", n/1000)
	default:
		return fmt.Sprintf("%d", n)
	}
}
