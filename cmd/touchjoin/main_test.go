package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"touch"
	"touch/internal/nl"
)

func TestReadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.txt")
	ds := touch.GenerateUniform(25, 1)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := touch.WriteDataset(f, ds); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := readFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ds) {
		t.Fatalf("read %d objects, want %d", len(got), len(ds))
	}
	for i := range ds {
		if got[i].Box != ds[i].Box {
			t.Fatalf("object %d: %v != %v", i, got[i].Box, ds[i].Box)
		}
	}
}

func TestReadFileMissing(t *testing.T) {
	if _, err := readFile(filepath.Join(t.TempDir(), "missing.txt")); err == nil {
		t.Fatal("missing file must error")
	}
}

// writeDataset dumps a dataset to a new file under dir.
func writeDataset(t *testing.T, dir, name string, ds touch.Dataset) string {
	t.Helper()
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := touch.WriteDataset(f, ds); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunProbes: the index-reuse mode must report, per probe file, the
// same result count as an independent one-shot distance join.
func TestRunProbes(t *testing.T) {
	dir := t.TempDir()
	a := touch.GenerateUniform(120, 1)
	const eps = 25
	var files []string
	var want []int64
	for seed := int64(2); seed < 5; seed++ {
		b := touch.GenerateUniform(200, seed)
		files = append(files, writeDataset(t, dir, fmt.Sprintf("b%d.txt", seed), b))
		ref, err := touch.SpatialJoin(context.Background(), touch.AlgTOUCH, a, b, &touch.Options{NoPairs: true, KeepOrder: true, Eps: eps})
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, ref.Stats.Results)
	}

	outPath := filepath.Join(dir, "counts.txt")
	opt := &touch.Options{Eps: eps, NoPairs: true}
	if err := runProbes(context.Background(), a, files, opt, outPath, true, false); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != len(files) {
		t.Fatalf("got %d output lines, want %d", len(lines), len(files))
	}
	for i, line := range lines {
		wantLine := fmt.Sprintf("%s %d", files[i], want[i])
		if line != wantLine {
			t.Errorf("probe %d: got %q, want %q", i, line, wantLine)
		}
	}

	// Pair mode: blocks headed by "# file", pairs matching the count.
	pairPath := filepath.Join(dir, "pairs.txt")
	if err := runProbes(context.Background(), a, files[:1], &touch.Options{Eps: eps}, pairPath, false, false); err != nil {
		t.Fatal(err)
	}
	raw, err = os.ReadFile(pairPath)
	if err != nil {
		t.Fatal(err)
	}
	out := strings.TrimSpace(string(raw))
	if !strings.HasPrefix(out, "# "+files[0]) {
		t.Fatalf("pair block must start with the probe header, got %q", out[:min(40, len(out))])
	}
	if got := int64(strings.Count(out, "\n")); got != want[0] {
		t.Fatalf("pair block has %d pairs, want %d", got, want[0])
	}
}

// TestRunProbesFailureKeepsOutFile: a failed invocation must not
// truncate a pre-existing output file — validation runs before
// os.Create.
func TestRunProbesFailureKeepsOutFile(t *testing.T) {
	dir := t.TempDir()
	outPath := filepath.Join(dir, "out.txt")
	const precious = "precious previous results\n"
	if err := os.WriteFile(outPath, []byte(precious), 0o644); err != nil {
		t.Fatal(err)
	}
	a := touch.GenerateUniform(10, 1)
	missing := []string{filepath.Join(dir, "missing.txt")}
	if err := runProbes(context.Background(), a, missing, &touch.Options{}, outPath, true, false); err == nil {
		t.Fatal("missing probe file must error")
	}
	if err := runProbes(context.Background(), a, nil, &touch.Options{Eps: -1}, outPath, true, false); err == nil {
		t.Fatal("negative eps must error in probes mode")
	}
	// A canceled sequence whose first join never finished must not touch
	// the file either — the output opens lazily after the first success.
	probe := writeDataset(t, dir, "probe.txt", touch.GenerateUniform(10, 2))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := runProbes(ctx, a, []string{probe}, &touch.Options{}, outPath, true, false); !errors.Is(err, touch.ErrJoinCanceled) {
		t.Fatalf("canceled probes run returned %v, want ErrJoinCanceled", err)
	}
	raw, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != precious {
		t.Fatalf("failed runs clobbered the output file: %q", raw)
	}
}

func TestRunProbesNegativeEpsSentinel(t *testing.T) {
	err := runProbes(context.Background(), touch.GenerateUniform(10, 1), nil, &touch.Options{Eps: -1}, "", true, false)
	if !errors.Is(err, touch.ErrNegativeDistance) {
		t.Fatalf("want ErrNegativeDistance, got %v", err)
	}
}

func TestAlgHintListsAllAlgorithms(t *testing.T) {
	hint := algHint()
	for _, alg := range touch.Algorithms() {
		if !strings.Contains(hint, string(alg)) {
			t.Errorf("algHint() misses %q: %s", alg, hint)
		}
	}
}

// TestMain doubles as the binary under test: when TOUCHJOIN_MAIN is
// set, the test executable runs the real main() so the exit-code tests
// below can assert the command-line contract end to end.
func TestMain(m *testing.M) {
	if os.Getenv("TOUCHJOIN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runTouchjoin re-executes the test binary as touchjoin with args and
// returns its exit code and stderr.
func runTouchjoin(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "TOUCHJOIN_MAIN=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	if err == nil {
		return 0, stderr.String()
	}
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatalf("running touchjoin: %v", err)
	}
	return ee.ExitCode(), stderr.String()
}

// TestFailurePaths asserts the exit-code contract of every failure
// mode — and that no output file is ever created by a failed
// invocation.
func TestFailurePaths(t *testing.T) {
	dir := t.TempDir()
	aPath := writeDataset(t, dir, "a.txt", touch.GenerateUniform(30, 1))
	missing := filepath.Join(dir, "missing.txt")

	cases := []struct {
		name     string
		args     []string
		wantCode int
		wantMsg  string
	}{
		{"no-args", nil, 2, "-a and one of"},
		{"missing-b-flag", []string{"-a", aPath}, 2, "-a and one of"},
		{"conflicting-modes", []string{"-a", aPath, "-b", aPath, "-query", "range", "-box", "0,0,0,1,1,1"}, 2, "mutually exclusive"},
		{"unreadable-a", []string{"-a", missing, "-b", aPath}, 1, "no such file"},
		{"unreadable-b", []string{"-a", aPath, "-b", missing}, 1, "no such file"},
		{"bad-alg", []string{"-a", aPath, "-b", aPath, "-alg", "bogus"}, 1, "unknown algorithm"},
		{"negative-eps", []string{"-a", aPath, "-b", aPath, "-eps", "-3"}, 1, "negative distance"},
		{"nan-eps", []string{"-a", aPath, "-b", aPath, "-eps", "NaN"}, 1, "negative distance"},
		{"probes-nan-eps", []string{"-a", aPath, "-probes", aPath, "-eps", "NaN"}, 1, "negative distance"},
		{"probes-missing-file", []string{"-a", aPath, "-probes", missing}, 1, "no such file"},
		{"probes-empty-list", []string{"-a", aPath, "-probes", ","}, 1, "lists no files"},
		{"bad-query-mode", []string{"-a", aPath, "-query", "bogus"}, 1, "unknown -query mode"},
		{"range-without-box", []string{"-a", aPath, "-query", "range"}, 1, "-box is required"},
		{"range-bad-box", []string{"-a", aPath, "-query", "range", "-box", "1,2,3"}, 1, "want 6"},
		{"range-unparsable-box", []string{"-a", aPath, "-query", "range", "-box", "1,2,3,4,5,x"}, 1, "invalid syntax"},
		{"knn-without-point", []string{"-a", aPath, "-query", "knn", "-k", "3"}, 1, "-point is required"},
		{"knn-bad-k", []string{"-a", aPath, "-query", "knn", "-point", "1,2,3", "-k", "0"}, 1, "k must be at least 1"},
		{"query-bad-alg", []string{"-a", aPath, "-query", "range", "-box", "0,0,0,1,1,1", "-alg", "nl"}, 1, "not supported"},
		{"query-negative-eps", []string{"-a", aPath, "-query", "point", "-point", "1,2,3", "-eps", "-1"}, 1, "negative distance"},
		{"query-nan-eps", []string{"-a", aPath, "-query", "range", "-box", "0,0,0,1,1,1", "-eps", "NaN"}, 1, "negative distance"},
	}
	for i, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			outPath := filepath.Join(dir, fmt.Sprintf("out-%d.txt", i))
			code, stderr := runTouchjoin(t, append(tc.args, "-out", outPath)...)
			if code != tc.wantCode {
				t.Errorf("exit code = %d, want %d (stderr: %s)", code, tc.wantCode, stderr)
			}
			if !strings.Contains(stderr, tc.wantMsg) {
				t.Errorf("stderr %q does not contain %q", stderr, tc.wantMsg)
			}
			if _, err := os.Stat(outPath); !os.IsNotExist(err) {
				t.Errorf("failed invocation created output file %s", outPath)
			}
		})
	}
}

// TestJoinLimitFlag: -limit must cap the streamed pair output at exactly
// N lines, and -count with -limit reports the truncated count.
func TestJoinLimitFlag(t *testing.T) {
	dir := t.TempDir()
	a := touch.GenerateUniform(150, 11)
	aPath := writeDataset(t, dir, "a.txt", a)
	// Self-join with a wide ε guarantees far more than 5 pairs.
	outPath := filepath.Join(dir, "limited.txt")
	code, stderr := runTouchjoin(t, "-a", aPath, "-b", aPath, "-eps", "200", "-limit", "5", "-out", outPath)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	raw, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(raw), "\n"); lines != 5 {
		t.Fatalf("limited output has %d lines, want 5", lines)
	}

	code, _ = runTouchjoin(t, "-a", aPath, "-b", aPath, "-eps", "200", "-limit", "7", "-count",
		"-out", filepath.Join(dir, "count.txt"))
	if code != 0 {
		t.Fatal("count+limit run failed")
	}
	raw, err = os.ReadFile(filepath.Join(dir, "count.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(string(raw)); got != "7" {
		t.Fatalf("limited count = %q, want 7", got)
	}
}

// TestJoinTimeoutFlag: an expired -timeout cancels the join inside the
// engine and exits 1 with the cancellation error.
func TestJoinTimeoutFlag(t *testing.T) {
	dir := t.TempDir()
	aPath := writeDataset(t, dir, "a.txt", touch.GenerateUniform(200, 12))
	code, stderr := runTouchjoin(t, "-a", aPath, "-b", aPath, "-eps", "100", "-timeout", "1ns")
	if code != 1 {
		t.Fatalf("exit %d (stderr %s), want 1", code, stderr)
	}
	if !strings.Contains(stderr, "join canceled") {
		t.Fatalf("stderr %q does not mention the cancellation", stderr)
	}
}

// TestCountTimeoutKeepsOutFile: count mode writes its one number only
// after the join succeeds, so a canceled run must not clobber an
// existing output file (the streaming pair mode is the documented
// exception).
func TestCountTimeoutKeepsOutFile(t *testing.T) {
	dir := t.TempDir()
	aPath := writeDataset(t, dir, "a.txt", touch.GenerateUniform(100, 15))
	outPath := filepath.Join(dir, "count.txt")
	const precious = "12345\n"
	if err := os.WriteFile(outPath, []byte(precious), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _ := runTouchjoin(t, "-a", aPath, "-b", aPath, "-eps", "100", "-count",
		"-timeout", "1ns", "-out", outPath)
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	raw, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != precious {
		t.Fatalf("canceled count run clobbered the output file: %q", raw)
	}

	// Pair mode opens its output lazily on the first pair, so a join
	// canceled before anything streamed must leave the file alone too.
	code, _ = runTouchjoin(t, "-a", aPath, "-b", aPath, "-eps", "100",
		"-timeout", "1ns", "-out", outPath)
	if code != 1 {
		t.Fatalf("pair-mode exit %d, want 1", code)
	}
	raw, err = os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != precious {
		t.Fatalf("canceled pair-mode run clobbered the output file: %q", raw)
	}
}

// TestJoinStreamedOutputMatchesOracle: the streamed (unsorted) pair
// lines of a single-threaded join are, as a set, exactly the oracle's.
func TestJoinStreamedOutputMatchesOracle(t *testing.T) {
	dir := t.TempDir()
	a := touch.GenerateUniform(120, 13)
	b := touch.GenerateUniform(180, 14)
	aPath := writeDataset(t, dir, "a.txt", a)
	bPath := writeDataset(t, dir, "b.txt", b)
	outPath := filepath.Join(dir, "pairs.txt")
	code, stderr := runTouchjoin(t, "-a", aPath, "-b", bPath, "-eps", "40", "-out", outPath)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	ref, err := touch.SpatialJoin(context.Background(), touch.AlgNL, a, b, &touch.Options{KeepOrder: true, Eps: 40})
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]bool, len(ref.Pairs))
	for _, p := range ref.Pairs {
		want[fmt.Sprintf("%d %d", p.A, p.B)] = true
	}
	raw, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != len(want) {
		t.Fatalf("streamed %d pairs, oracle has %d", len(lines), len(want))
	}
	for _, line := range lines {
		if !want[line] {
			t.Fatalf("streamed pair %q not in oracle", line)
		}
	}
}

// TestProbesEqualSingleJoins: -probes with -eps > 0 joins each probe
// file against one index built on A as it is, ε applied on the probe
// side, and writes for each file the pairs the single-join mode writes
// for it.
func TestProbesEqualSingleJoins(t *testing.T) {
	dir := t.TempDir()
	aPath := writeDataset(t, dir, "a.txt", touch.GenerateClustered(400, 21))
	var probes []string
	for seed := int64(22); seed < 25; seed++ {
		probes = append(probes, writeDataset(t, dir, fmt.Sprintf("p%d.txt", seed), touch.GenerateUniform(300, seed)))
	}
	blocksPath := filepath.Join(dir, "blocks.txt")
	if code, stderr := runTouchjoin(t, "-a", aPath, "-probes", strings.Join(probes, ","), "-eps", "40", "-out", blocksPath); code != 0 {
		t.Fatalf("-probes exit %d: %s", code, stderr)
	}
	raw, err := os.ReadFile(blocksPath)
	if err != nil {
		t.Fatal(err)
	}
	blocks := make(map[string][]string) // probe file → its pair lines
	var file string
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if name, ok := strings.CutPrefix(line, "# "); ok {
			file = name
			continue
		}
		blocks[file] = append(blocks[file], line)
	}
	for i, probe := range probes {
		single := filepath.Join(dir, fmt.Sprintf("single-%d.txt", i))
		if code, stderr := runTouchjoin(t, "-a", aPath, "-b", probe, "-eps", "40", "-out", single); code != 0 {
			t.Fatalf("single join of %s: exit %d: %s", probe, code, stderr)
		}
		raw, err := os.ReadFile(single)
		if err != nil {
			t.Fatal(err)
		}
		want := strings.Split(strings.TrimSpace(string(raw)), "\n")
		if len(want) < 10 {
			t.Fatalf("premise: %s meets A in only %d pairs", probe, len(want))
		}
		got := blocks[probe]
		slices.Sort(want)
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Errorf("%s: -probes wrote %d pairs, the single join %d, or different ones", probe, len(got), len(want))
		}
	}
}

// TestQueryModes runs each query mode end to end through the binary and
// checks the output against the brute-force oracles.
func TestQueryModes(t *testing.T) {
	dir := t.TempDir()
	ds := touch.GenerateUniform(150, 9)
	aPath := writeDataset(t, dir, "a.txt", ds)

	readLines := func(path string) []string {
		t.Helper()
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		trimmed := strings.TrimSpace(string(raw))
		if trimmed == "" {
			return nil
		}
		return strings.Split(trimmed, "\n")
	}

	t.Run("range", func(t *testing.T) {
		outPath := filepath.Join(dir, "range.txt")
		code, stderr := runTouchjoin(t, "-a", aPath, "-query", "range",
			"-box", "100,100,100,400,400,400", "-out", outPath)
		if code != 0 {
			t.Fatalf("exit %d: %s", code, stderr)
		}
		want := nl.RangeQuery(ds, touch.NewBox(touch.Point{100, 100, 100}, touch.Point{400, 400, 400}))
		lines := readLines(outPath)
		if len(lines) != len(want) {
			t.Fatalf("got %d ids, want %d", len(lines), len(want))
		}
		for i, line := range lines {
			if line != fmt.Sprint(want[i]) {
				t.Fatalf("line %d: got %q, want %d", i, line, want[i])
			}
		}
	})

	t.Run("point", func(t *testing.T) {
		outPath := filepath.Join(dir, "point.txt")
		// ε-expansion: every object within 600 of the center matches.
		code, stderr := runTouchjoin(t, "-a", aPath, "-query", "point",
			"-point", "500,500,500", "-eps", "600", "-out", outPath)
		if code != 0 {
			t.Fatalf("exit %d: %s", code, stderr)
		}
		want := nl.PointQuery(ds.Expand(600), touch.Point{500, 500, 500})
		if lines := readLines(outPath); len(lines) != len(want) {
			t.Fatalf("got %d ids, want %d", len(lines), len(want))
		}
	})

	t.Run("knn", func(t *testing.T) {
		outPath := filepath.Join(dir, "knn.txt")
		code, stderr := runTouchjoin(t, "-a", aPath, "-query", "knn",
			"-point", "500,500,500", "-k", "7", "-out", outPath)
		if code != 0 {
			t.Fatalf("exit %d: %s", code, stderr)
		}
		want := nl.KNN(ds, touch.Point{500, 500, 500}, 7)
		lines := readLines(outPath)
		if len(lines) != len(want) {
			t.Fatalf("got %d neighbors, want %d", len(lines), len(want))
		}
		for i, line := range lines {
			if wantLine := fmt.Sprintf("%d %g", want[i].ID, want[i].Distance); line != wantLine {
				t.Fatalf("line %d: got %q, want %q", i, line, wantLine)
			}
		}
	})
}
