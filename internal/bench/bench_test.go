package bench

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"touch"
)

// tinyRC keeps integration runs fast (≈tens of milliseconds per
// experiment).
func tinyRC() RunConfig { return RunConfig{Scale: 0.002, Seed: 7} }

func TestRegistryCoversEveryPaperArtefact(t *testing.T) {
	want := []string{
		"table1", "loading", "fig8", "fig9", "fig10", "fig11",
		"fig12", "fig13", "fig14", "fig15", "fig16", "ablation", "levels",
		"queries",
	}
	for _, id := range want {
		e, ok := Get(id)
		if !ok {
			t.Errorf("experiment %q not registered", id)
			continue
		}
		if e.Title == "" || e.Description == "" || e.Run == nil {
			t.Errorf("experiment %q incomplete: %+v", id, e)
		}
	}
	if len(Experiments()) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(Experiments()), len(want))
	}
}

func TestGetUnknown(t *testing.T) {
	if _, ok := Get("fig99"); ok {
		t.Fatal("unknown id must not resolve")
	}
}

func TestExperimentsSorted(t *testing.T) {
	exps := Experiments()
	for i := 1; i < len(exps); i++ {
		if exps[i-1].ID > exps[i].ID {
			t.Fatal("Experiments() must be sorted by id")
		}
	}
}

// TestEveryExperimentRunsEndToEnd executes each experiment at tiny scale
// and sanity-checks its output shape.
func TestEveryExperimentRunsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("integration run")
	}
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(tinyRC(), &buf); err != nil {
				t.Fatalf("run: %v", err)
			}
			out := buf.String()
			if len(strings.TrimSpace(out)) == 0 {
				t.Fatal("experiment produced no output")
			}
			lines := strings.Split(strings.TrimSpace(out), "\n")
			if len(lines) < 3 {
				t.Fatalf("suspiciously short output:\n%s", out)
			}
		})
	}
}

func TestFig8HasAllEightAlgorithms(t *testing.T) {
	e, _ := Get("fig8")
	var buf bytes.Buffer
	if err := e.Run(tinyRC(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, alg := range touch.Algorithms() {
		if !strings.Contains(out, string(alg)) {
			t.Errorf("fig8 output missing algorithm %s:\n%s", alg, out)
		}
	}
}

func TestLargeFigureHasThreeMetrics(t *testing.T) {
	e, _ := Get("fig9")
	var buf bytes.Buffer
	if err := e.Run(tinyRC(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, metric := range []string{"comparisons", "time", "memory"} {
		if !strings.Contains(out, metric) {
			t.Errorf("fig9 output missing %s table", metric)
		}
	}
	// NL and PS are excluded from the large-set figures.
	if strings.Contains(out, "\tnl") || strings.Contains(out, "\tps") {
		t.Error("fig9 must not run the quadratic baselines")
	}
}

func TestAlgorithmFilter(t *testing.T) {
	e, _ := Get("fig9")
	rc := tinyRC()
	rc.Algorithms = []touch.Algorithm{touch.AlgTOUCH}
	var buf bytes.Buffer
	if err := e.Run(rc, &buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "pbsm") {
		t.Fatal("algorithm filter ignored")
	}
}

func TestRunConfigFill(t *testing.T) {
	rc := RunConfig{}.fill()
	if rc.Scale != 0.02 || rc.Seed != 42 {
		t.Fatalf("defaults = %+v", rc)
	}
	rc = RunConfig{Scale: 7}.fill()
	if rc.Scale != 1 {
		t.Fatal("scale must clamp to 1")
	}
	if (RunConfig{Scale: 0.5}).n(1000) != 500 {
		t.Fatal("n scaling wrong")
	}
	if (RunConfig{Scale: 0.0001}.fill()).n(100) != 1 {
		t.Fatal("n must not hit zero")
	}
}

func TestThousands(t *testing.T) {
	cases := []struct {
		n    int
		want string
	}{
		{5, "5"}, {999, "999"}, {1000, "1K"}, {160000, "160K"},
		{1_600_000, "1.6M"}, {9_600_000, "9.6M"},
	}
	for _, tc := range cases {
		if got := thousands(tc.n); got != tc.want {
			t.Errorf("thousands(%d) = %q, want %q", tc.n, got, tc.want)
		}
	}
}

func TestTable1SelectivityOrdering(t *testing.T) {
	// The paper's Table 1: Gaussian selectivity > clustered > uniform.
	// Verify on a slightly larger sample so the ordering is stable.
	e, _ := Get("table1")
	var buf bytes.Buffer
	rc := RunConfig{Scale: 0.01, Seed: 42}
	if err := e.Run(rc, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	sel := map[string]float64{}
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) >= 5 {
			var v float64
			if _, err := fmtSscan(fields[len(fields)-2], &v); err == nil {
				sel[fields[0]] = v
			}
		}
	}
	if sel["Gaussian"] <= sel["Uniform"] {
		t.Fatalf("Gaussian selectivity %.1f should exceed uniform %.1f\n%s",
			sel["Gaussian"], sel["Uniform"], out)
	}
}

func fmtSscan(s string, v *float64) (int, error) {
	return fmt.Sscan(s, v)
}
