package main

import (
	"fmt"
	"io"
	"slices"
)

// side is one file's values of one metric on one workload, one per run.
type side struct {
	values []float64
	median float64
	spread float64 // (q3-q1)/median across runs; 0 with a single run
}

func newSide(values []float64) side {
	s := side{values: slices.Clone(values)}
	slices.Sort(s.values)
	q1, q2, q3 := quartiles(s.values)
	s.median = q2
	if len(s.values) > 1 && q2 != 0 {
		s.spread = (q3 - q1) / q2
	}
	return s
}

// valuesOf gathers a metric's values over the runs of one workload and
// kind; mirrored values are skipped, they restate another metric.
func valuesOf(f *runFile, workload string, traced bool, name string) []float64 {
	var out []float64
	for _, res := range f.Runs {
		if res.Workload != workload || res.Trace != traced {
			continue
		}
		if m := res.Metrics[name]; m != nil && m.Mirrors == "" && m.Note == "" {
			out = append(out, m.Value)
		}
	}
	return out
}

// compare applies the bounds of BENCHMARK.json to every (end-to-end
// metric, workload) pair the two files share, requires the exact
// per-layer counts to be equal, prints one row per pair with both
// medians and the ratio with its base, and reports whether anything
// regressed. A pair whose run-to-run quartile spread exceeds its bound
// is unresolved, not unchanged — unless every new run beats every old
// one.
func compare(w io.Writer, manifestPath, oldPath, newPath string) (regressed bool, err error) {
	man, err := readManifest(manifestPath)
	if err != nil {
		return false, err
	}
	bounds := make(map[string]float64)
	for _, m := range man.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	oldF, err := readRuns(oldPath)
	if err != nil {
		return false, err
	}
	newF, err := readRuns(newPath)
	if err != nil {
		return false, err
	}

	fmt.Fprintf(w, "%-12s %-38s %14s %14s %-6s %22s %8s  %s\n",
		"workload", "metric", "old median", "new median", "unit", "ratio (new/old base)", "bound", "verdict")
	row := func(workload string, d *metricDef, o, n side, bound, verdict string) {
		ratio := "-"
		if o.median != 0 {
			ratio = fmt.Sprintf("%.3fx of %.5g", n.median/o.median, o.median)
		}
		fmt.Fprintf(w, "%-12s %-38s %14.6g %14.6g %-6s %22s %8s  %s\n",
			workload, d.name, o.median, n.median, d.unit, ratio, bound, verdict)
	}
	pairs := 0
	for _, workload := range workloadNames {
		for i := range endToEnd {
			d := &endToEnd[i]
			ov, nv := valuesOf(oldF, workload, false, d.name), valuesOf(newF, workload, false, d.name)
			if !d.measuredOn(workload) || len(ov) == 0 || len(nv) == 0 {
				continue
			}
			pairs++
			o, n := newSide(ov), newSide(nv)
			bound := bounds[d.name]
			worse := (n.median - o.median) / o.median
			// allBetter: every new run reads better than every old run.
			allBetter := n.values[len(n.values)-1] < o.values[0]
			if d.better == "higher" {
				worse = -worse
				allBetter = n.values[0] > o.values[len(o.values)-1]
			}
			verdict := "ok"
			switch spread := max(o.spread, n.spread); {
			case spread > bound && allBetter:
				verdict = "ok (every new run better)"
			case spread > bound:
				verdict = fmt.Sprintf("unresolved (run-to-run spread %.1f%% > bound)", 100*spread)
			case worse > bound:
				verdict = fmt.Sprintf("REGRESSION (%.1f%% worse)", 100*worse)
				regressed = true
			}
			row(workload, d, o, n, fmt.Sprintf("%.0f%%", 100*bound), verdict)
		}
		for i := range perLayer {
			d := &perLayer[i]
			ov, nv := valuesOf(oldF, workload, true, d.name), valuesOf(newF, workload, true, d.name)
			if !d.measuredOn(workload) || len(ov) == 0 || len(nv) == 0 {
				continue
			}
			pairs++
			o, n := newSide(ov), newSide(nv)
			verdict, bound := "per-layer, not gated", "-"
			if d.exact {
				bound = "exact"
				verdict = "ok"
				// A count repeats exactly: every run of both sides must
				// read the same.
				if o.values[0] != o.values[len(o.values)-1] || n.values[0] != n.values[len(n.values)-1] || o.values[0] != n.values[0] {
					verdict = "MISMATCH (a count that must repeat exactly)"
					regressed = true
				}
			}
			row(workload, d, o, n, bound, verdict)
		}
	}
	if pairs == 0 {
		return false, fmt.Errorf("%s and %s share no (metric, workload) pair", oldPath, newPath)
	}
	return regressed, nil
}
