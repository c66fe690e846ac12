// Command benchmark is the repository's one committed benchmark: four
// workloads, fifteen end-to-end metrics and a layer ladder from
// core.Probe to touchrouter. BENCHMARK.json at the repository root names
// the workloads and metrics and holds the regression bounds; README.md
// in this directory is the glossary.
//
//	go run ./benchmark                          every workload, end to end
//	go run ./benchmark -workload serve_read     one workload
//	go run ./benchmark -workload serve_read -trace 1   its per-layer run
//	go run ./benchmark -runs 5 -out new.json    five runs of everything, one file
//	go run ./benchmark -compare old.json new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"
)

// stamp records where and when a result was measured.
type stamp struct {
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Scale      string `json:"scale"`
	Time       string `json:"time"`
}

func newStamp(cfg config) stamp {
	return stamp{
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit:     commit(),
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Scale:      cfg.scale,
		Time:       time.Now().UTC().Format(time.RFC3339),
	}
}

// commit is vcs.revision from the build info when the toolchain stamped
// one (go build does, go run does not), else git's answer, else unknown.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

// runFile is a result file: one or more runs, possibly of several
// workloads, which is what -compare reads on each side.
type runFile struct {
	Runs []*result `json:"runs"`
}

// runWorkload executes one run of one workload in this process.
func runWorkload(cfg config) (*result, error) {
	r := newRun(cfg)
	start := time.Now()
	var err error
	switch {
	case !slices.Contains(workloadNames, cfg.workload):
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames, ", "))
	case cfg.workload == wlServeRead && cfg.trace:
		err = r.traceServeRead()
	case cfg.workload == wlServeRead:
		err = r.runServeRead()
	case cfg.workload == wlServeMixed && cfg.trace:
		err = r.traceServeMixed()
	case cfg.workload == wlServeMixed:
		err = r.runServeMixed()
	case cfg.trace:
		err = r.traceJoin()
	default:
		err = r.runJoin()
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if cfg.trace {
		// A traced run has no single measured phase; record all of it.
		r.res.WallS = time.Since(start).Seconds()
	}
	if err := r.finish(); err != nil {
		return nil, err
	}
	return r.res, nil
}

// printTable writes the run's metrics by name with their units: the
// median, the quartiles, the sample count and the tail percentile the
// sample count affords.
func printTable(res *result) {
	kind, defs := "end-to-end", endToEnd
	if res.Trace {
		kind, defs = "per-layer", perLayer
	}
	fmt.Printf("\n%s  %s  seed=%d  wall=%.1fs  oracle=%.2fs  calib=%.2fms  attempted=%d  failed=%d\n",
		res.Workload, kind, res.Stamp.Seed, res.WallS, res.OracleS, res.CalibMS, res.Attempted, res.Failed)
	fmt.Printf("  %-38s %14s %-6s %12s %12s %8s  %s\n", "metric", "median", "unit", "p25", "p75", "n", "tail")
	for i := range defs {
		d := &defs[i]
		m := res.Metrics[d.name]
		if m == nil || (res.Trace && !d.measuredOn(res.Workload)) {
			continue
		}
		extra := ""
		switch {
		case m.Mirrors != "":
			extra = "= " + m.Mirrors + " restated"
		case m.Note != "":
			extra = m.Note
		case m.TailP > 0:
			extra = fmt.Sprintf("p%g=%.4g", m.TailP, m.Tail)
		}
		if m.N > 1 && m.Mirrors == "" {
			fmt.Printf("  %-38s %14.6g %-6s %12.6g %12.6g %8d  %s\n", d.name, m.Value, m.Unit, m.P25, m.P75, m.N, extra)
		} else {
			fmt.Printf("  %-38s %14.6g %-6s %12s %12s %8s  %s\n", d.name, m.Value, m.Unit, "", "", "", extra)
		}
	}
	for _, n := range res.Notes {
		fmt.Println("  note:", n)
	}
}

// lastLine is the driver's contract: the last line of stdout is one JSON
// object with exactly these keys, the metrics being every end-to-end
// metric of an untraced run or every per-layer metric of a traced one.
func lastLine(res *result) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := endToEnd
	if res.Trace {
		defs = perLayer
	}
	metrics := make(map[string]value, len(defs))
	for i := range defs {
		if m := res.Metrics[defs[i].name]; m != nil {
			metrics[defs[i].name] = value{m.Value, m.Unit}
		}
	}
	line, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	return string(line)
}

// runAll runs every workload `runs` times, each run in a fresh child
// process so that heap and allocation numbers are the ones a single
// -workload invocation gives, and gathers the results into one file.
func runAll(cfg config, runs int, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var all runFile
	for run := 0; run < runs; run++ {
		for _, w := range workloadNames {
			trace := "0"
			if cfg.trace {
				trace = "1"
			}
			cmd := exec.Command(self, "-workload", w, "-seed", fmt.Sprint(cfg.seed),
				"-seconds", fmt.Sprint(cfg.seconds), "-scale", cfg.scale, "-trace", trace, "-outdir", cfg.outDir)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s: %w", w, err)
			}
			name := w + ".json"
			if cfg.trace {
				name = w + ".trace-metrics.json"
			}
			one, err := readRuns(filepath.Join(cfg.outDir, name))
			if err != nil {
				return err
			}
			all.Runs = append(all.Runs, one.Runs...)
		}
	}
	if out == "" {
		out = filepath.Join(cfg.outDir, "all.json")
	}
	fmt.Printf("\nwrote %s (%d runs)\n", out, len(all.Runs))
	return writeJSON(out, all)
}

func readRuns(path string) (*runFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f runFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func main() {
	var cfg config
	var trace, runs int
	var out string
	var compareMode bool
	flag.StringVar(&cfg.workload, "workload", "all", "workload to run: "+strings.Join(workloadNames, ", ")+" or all")
	flag.Int64Var(&cfg.seed, "seed", 42, "the only source of randomness: datasets, query shapes and update boxes derive from it")
	flag.IntVar(&cfg.seconds, "seconds", refSeconds, "selects the op counts: the measured phase lasts about this long on the reference container")
	flag.IntVar(&trace, "trace", 0, "1 replays the workload with a span around every call into a layer and reports the per-layer metrics")
	flag.StringVar(&cfg.scale, "scale", "full", "full or tiny (a few thousand objects, tens of ops; the self-test's size)")
	flag.StringVar(&cfg.outDir, "outdir", filepath.Join("benchmark", "out"), "directory for result and trace files")
	flag.IntVar(&runs, "runs", 1, "with -workload all: how many times to run every workload")
	flag.StringVar(&out, "out", "", "with -workload all: the file that gathers every run (default <outdir>/all.json)")
	flag.BoolVar(&compareMode, "compare", false, "compare two result files: -compare old.json new.json")
	flag.Parse()
	cfg.trace = trace != 0

	if compareMode {
		if flag.NArg() != 2 {
			fail(fmt.Errorf("-compare wants two result files, got %d arguments", flag.NArg()))
		}
		regressed, err := compare(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err != nil {
			fail(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if cfg.seconds < 1 || (cfg.scale != "full" && cfg.scale != "tiny") {
		fail(fmt.Errorf("-seconds must be at least 1 and -scale full or tiny"))
	}
	if cfg.workload == "all" {
		if err := runAll(cfg, runs, out); err != nil {
			fail(err)
		}
		return
	}
	res, err := runWorkload(cfg)
	if err != nil {
		fail(err)
	}
	printTable(res)
	fmt.Println(lastLine(res))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}
