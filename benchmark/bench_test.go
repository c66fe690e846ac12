package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// Every test runs the workloads at -scale tiny and asserts structure and
// counts only. No wall-clock assertions: ROADMAP records that a
// wall-clock ratio test is what made tier-1 flaky.

type runKey struct {
	workload string
	seed     int64
	trace    bool
	again    bool // a second run of the same configuration
}

var (
	tinyMu   sync.Mutex
	tinyRuns = map[runKey]*result{}
)

// tiny runs one configuration once per test binary and caches it.
func tiny(t *testing.T, k runKey) *result {
	t.Helper()
	tinyMu.Lock()
	defer tinyMu.Unlock()
	if res, ok := tinyRuns[k]; ok {
		return res
	}
	res, err := runWorkload(config{
		workload: k.workload, seed: k.seed, seconds: refSeconds, scale: "tiny", trace: k.trace,
		outDir: t.TempDir(),
	})
	if err != nil {
		t.Fatalf("%+v: %v", k, err)
	}
	if res.Failed != 0 || !res.Correct {
		t.Fatalf("%+v: failed=%d correct=%v notes=%v", k, res.Failed, res.Correct, res.Notes)
	}
	tinyRuns[k] = res
	return res
}

func TestTablesMatchManifest(t *testing.T) {
	man, err := readManifest(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	same := func(kind string, defs []metricDef, got []manifestMetric) {
		if len(defs) != len(got) {
			t.Fatalf("%s: metrics.go declares %d metrics, BENCHMARK.json %d", kind, len(defs), len(got))
		}
		for i, d := range defs {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d]: metrics.go has %s/%s/%s, BENCHMARK.json %s/%s/%s",
					kind, i, d.name, d.unit, d.better, g.Name, g.Unit, g.Better)
			}
		}
	}
	same("end_to_end", endToEnd, man.EndToEnd)
	same("per_layer", perLayer, man.PerLayer)
	if len(man.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json names %d workloads, want %d", len(man.Workloads), len(workloadNames))
	}
	for i, w := range man.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json has %q, want %q", i, w.Name, workloadNames[i])
		}
	}
	if man.RunSeconds != refSeconds {
		t.Errorf("run_seconds = %d, but the op counts are written for %d", man.RunSeconds, refSeconds)
	}
	for _, m := range man.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

func TestEveryNameIsEmitted(t *testing.T) {
	man, err := readManifest(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			res := tiny(t, runKey{workload: w, seed: 1, trace: traced})
			var line struct {
				Correct   bool  `json:"correct"`
				Attempted int64 `json:"attempted"`
				Failed    int64 `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			dec := json.NewDecoder(strings.NewReader(lastLine(res)))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&line); err != nil {
				t.Fatalf("%s traced=%v: last line: %v", w, traced, err)
			}
			if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w, traced, line.Correct, line.Attempted, line.Failed)
			}
			want := man.EndToEnd
			if traced {
				want = man.PerLayer
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics on the last line, BENCHMARK.json lists %d", w, traced, len(line.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := line.Metrics[m.Name]
				switch {
				case !nameRE.MatchString(m.Name):
					t.Errorf("%s is not a valid metric name", m.Name)
				case !ok || got.Value == nil:
					t.Errorf("%s traced=%v: %s is not emitted", w, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s traced=%v: %s has unit %q, want %q", w, traced, m.Name, got.Unit, m.Unit)
				case !traced && *got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %g, must never be 0", w, m.Name, *got.Value)
				}
			}
			// A workload's own layers are priced, not left at the
			// placeholder 0 (the tail percentiles need more samples than
			// a tiny run takes).
			for i := range perLayer {
				d := &perLayer[i]
				if traced && d.measuredOn(w) && res.Metrics[d.name].N == 0 && res.Metrics[d.name].Note == "" {
					t.Errorf("%s: per-layer metric %s was not measured", w, d.name)
				}
			}
		}
	}
}

func TestCountsRepeatAndSeedsDiffer(t *testing.T) {
	for _, w := range workloadNames {
		a := tiny(t, runKey{workload: w, seed: 1, trace: true})
		b := tiny(t, runKey{workload: w, seed: 1, trace: true, again: true})
		c := tiny(t, runKey{workload: w, seed: 2, trace: true})
		if a.Inputs == "" || a.Inputs != b.Inputs {
			t.Errorf("%s: one seed gave inputs %s and %s", w, a.Inputs, b.Inputs)
		}
		if a.Inputs == c.Inputs {
			t.Errorf("%s: seeds 1 and 2 gave the same inputs %s", w, a.Inputs)
		}
		exact := 0
		for i := range perLayer {
			d := &perLayer[i]
			if !d.exact || !d.measuredOn(w) {
				continue
			}
			exact++
			if av, bv := a.Metrics[d.name].Value, b.Metrics[d.name].Value; av != bv {
				t.Errorf("%s: %s read %g then %g with one seed", w, d.name, av, bv)
			}
		}
		if w != wlServeMixed && exact == 0 {
			t.Errorf("%s: no exact count metric is measured", w)
		}
	}
}

func TestCorruptedAnswerCountsAsFailed(t *testing.T) {
	for _, w := range workloadNames {
		res, err := runWorkload(config{
			workload: w, seed: 1, seconds: refSeconds, scale: "tiny", outDir: t.TempDir(), corruptFirst: true,
		})
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if res.Failed < 1 || res.Correct {
			t.Errorf("%s: a corrupted answer gave failed=%d correct=%v", w, res.Failed, res.Correct)
		}
		if res.Attempted <= res.Failed {
			t.Errorf("%s: attempted=%d failed=%d: one bad answer failed everything", w, res.Attempted, res.Failed)
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if q1, q2, q3 := quartiles([]float64{1, 2, 3}); q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles = %g %g %g, want 1 2 3", q1, q2, q3)
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	// file writes runs of join_sparse whose join_s and core.comparisons
	// read as given.
	file := func(name string, joinS []float64, comparisons float64) string {
		var f runFile
		for _, v := range joinS {
			f.Runs = append(f.Runs,
				&result{Workload: wlJoinSparse, Metrics: map[string]*metric{
					"join_s":   {Value: v, Unit: "s"},
					"heap_mb":  {Value: 40, Unit: "MB"},
					"http_qps": {Value: 1 / v, Unit: "1/s", Mirrors: "join_s"},
				}},
				&result{Workload: wlJoinSparse, Trace: true, Metrics: map[string]*metric{
					"core.comparisons": {Value: comparisons, Unit: "count"},
					"core.join_ms":     {Value: 1000 * v / 2, Unit: "ms"},
				}})
		}
		path := filepath.Join(dir, name)
		if err := writeJSON(path, f); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := file("base.json", []float64{0.50, 0.51, 0.50, 0.49, 0.50}, 1000)
	manifestPath := filepath.Join("..", "BENCHMARK.json")
	for _, tc := range []struct {
		name      string
		other     string
		regressed bool
		want      string
	}{
		{"same", file("same.json", []float64{0.50, 0.50, 0.51, 0.50, 0.49}, 1000), false, "ok"},
		{"slower", file("slow.json", []float64{0.70, 0.71, 0.70, 0.69, 0.70}, 1000), true, "REGRESSION"},
		{"noisy", file("noisy.json", []float64{0.40, 0.75, 0.55, 0.90, 0.45}, 1000), false, "unresolved"},
		{"count moved", file("count.json", []float64{0.50, 0.51, 0.50, 0.49, 0.50}, 1001), true, "MISMATCH"},
	} {
		var out bytes.Buffer
		regressed, err := compare(&out, manifestPath, base, tc.other)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if regressed != tc.regressed || !strings.Contains(out.String(), tc.want) {
			t.Errorf("%s: regressed=%v (want %v), output lacks %q:\n%s", tc.name, regressed, tc.regressed, tc.want, out.String())
		}
		if strings.Contains(out.String(), "http_qps") {
			t.Errorf("%s: a mirrored metric was compared:\n%s", tc.name, out.String())
		}
	}
}
