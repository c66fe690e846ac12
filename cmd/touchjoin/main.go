// Command touchjoin joins two spatial datasets from files.
//
// Each input file holds one object per line as six numbers (min and max
// corner of the MBR):
//
//	minX minY minZ maxX maxY maxZ
//
// Usage:
//
//	touchjoin -a axons.txt -b dendrites.txt -eps 5 [-alg touch] [-out pairs.txt] [-stats]
//	touchjoin -a axons.txt -b dendrites.txt -timeout 30s -limit 1000000
//	touchjoin -a axons.txt -probes d1.txt,d2.txt,d3.txt -eps 5 [-stats]
//	touchjoin -a axons.txt -query range -box 0,0,0,100,100,100
//	touchjoin -a axons.txt -query point -point 50,50,50
//	touchjoin -a axons.txt -query knn -point 50,50,50 -k 10
//	touchjoin -a axons.txt -b dendrites.txt -insert new.txt -delete 3,17 -eps 5
//
// With -eps 0 the join reports intersecting pairs; with -eps > 0 it
// reports pairs within that distance. The output lists one "i j" pair of
// 0-based line indices per line; in -b mode pairs stream to the output
// incrementally as the engine finds them — constant memory regardless
// of result size — in emission order (deterministic with -workers 1,
// arbitrary otherwise, and not stable across releases: it follows the
// engine's grid sizing; sort externally if a canonical order is needed).
// -stats prints the execution metrics (comparisons, filtered objects,
// memory, per-phase timings) to stderr.
//
// -timeout arms a deadline over the whole run: an expired join aborts
// inside the engine and the command exits 1. The abort is checked
// during the assignment and join phases; the index-construction phase
// of a run is not interruptible, and query mode — whose engine calls
// are microsecond-scale — checks the deadline between its phases
// instead of inside them. -limit stops a join after
// exactly that many pairs (0 = all) — the engine aborts early instead
// of discarding the excess. The -out file is only created once the
// first pair streams (or, for empty results and -count, on success),
// so a failed invocation never clobbers an existing file — with the
// one exception of a -timeout expiring mid-stream, which leaves the
// pairs written so far.
//
// -probes takes a comma-separated list of probe files and switches to
// index-reuse mode (TOUCH only): the tree is built once on dataset A and
// every probe file is joined against it, skipping the build phase per
// join — the paper's §4.3 scenario. Each probe's pairs are preceded by a
// "# file" header line; with -count one "file n" line per probe is
// printed instead.
//
// -query switches to single-probe query mode (TOUCH only): the tree is
// built on dataset A and answers one range, point or k-nearest-neighbor
// question instead of a join. "range" needs -box with the six query-box
// corner coordinates, "point" and "knn" need -point (and knn -k). Range
// and point queries print one matching 0-based line index per line,
// sorted; knn prints "i distance" lines in (distance, index) order.
// A non-zero -eps expands the indexed boxes, turning the predicates
// into "within ε of the box / point". The join-mode flags -count,
// -stats and -workers have no effect on queries.
//
// -insert and -delete exercise the incremental write path (TOUCH only,
// in -b join and -query modes): the index is built on dataset A as
// usual, then -delete tombstones the listed 0-based A line numbers and
// -insert appends the boxes of another file — IDs continue where A
// left off — and the join or query answers over the merged state,
// bit-identical to rebuilding from the edited dataset.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"touch"
)

func main() {
	var (
		fileA   = flag.String("a", "", "dataset A file (required)")
		fileB   = flag.String("b", "", "dataset B file (required unless -probes or -query is set)")
		probes  = flag.String("probes", "", "comma-separated probe files joined against one prebuilt index on A (TOUCH only)")
		eps     = flag.Float64("eps", 0, "distance predicate ε (0 = intersection join)")
		algName = flag.String("alg", string(touch.AlgTOUCH), "join algorithm")
		out     = flag.String("out", "", "output file (default stdout)")
		quiet   = flag.Bool("count", false, "print only the number of result pairs")
		stat    = flag.Bool("stats", false, "print execution statistics to stderr")
		workers = flag.Int("workers", 1, "worker goroutines per join (1 = single-threaded; TOUCH parallelizes its assignment and join phases internally, other algorithms run under the slab driver)")
		query   = flag.String("query", "", "single-probe query mode on an index built from A: range, point or knn")
		boxArg  = flag.String("box", "", "query box for -query range: minX,minY,minZ,maxX,maxY,maxZ")
		ptArg   = flag.String("point", "", "query point for -query point|knn: x,y,z")
		k       = flag.Int("k", 1, "neighbor count for -query knn")
		timeout = flag.Duration("timeout", 0, "cancel the run after this long (0 = no deadline); a canceled join exits 1")
		limit   = flag.Int64("limit", 0, "stop each join after exactly this many pairs (0 = all); the engine aborts early instead of discarding the excess")
		insFile = flag.String("insert", "", "file of boxes inserted after the index is built on A (incremental write path; TOUCH only)")
		delArg  = flag.String("delete", "", "comma-separated 0-based A line numbers deleted after the index is built on A (TOUCH only)")
	)
	flag.Parse()
	if *fileA == "" || (*fileB == "" && *probes == "" && *query == "") {
		fmt.Fprintln(os.Stderr, "touchjoin: -a and one of -b, -probes or -query are required")
		flag.Usage()
		os.Exit(2)
	}
	modes := 0
	for _, set := range []bool{*fileB != "", *probes != "", *query != ""} {
		if set {
			modes++
		}
	}
	if modes > 1 {
		fmt.Fprintln(os.Stderr, "touchjoin: -b, -probes and -query are mutually exclusive")
		os.Exit(2)
	}

	a, err := readFile(*fileA)
	if err != nil {
		fatal(err)
	}

	updIns, updDel, err := readUpdates(*insFile, *delArg)
	if err != nil {
		fatal(err)
	}
	hasUpd := len(updIns) > 0 || len(updDel) > 0
	if hasUpd {
		if *probes != "" {
			fatal(fmt.Errorf("-insert/-delete are not supported with -probes"))
		}
		if alg := touch.Algorithm(*algName); alg != touch.AlgTOUCH {
			fatal(fmt.Errorf("-insert/-delete go through the incremental TOUCH index; -alg %q is not supported (%s)",
				*algName, algHint()))
		}
	}

	opt := &touch.Options{NoPairs: *quiet, Workers: *workers, Limit: *limit}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *query != "" {
		if alg := touch.Algorithm(*algName); alg != touch.AlgTOUCH {
			fatal(fmt.Errorf("-query answers through a prebuilt TOUCH index; -alg %q is not supported (%s)",
				*algName, algHint()))
		}
		if err := runQuery(ctx, a, *query, *boxArg, *ptArg, *k, *eps, *out, updIns, updDel); err != nil {
			fatal(err)
		}
		return
	}

	if *probes != "" {
		if alg := touch.Algorithm(*algName); alg != touch.AlgTOUCH {
			fatal(fmt.Errorf("-probes reuses a prebuilt TOUCH index; -alg %q is not supported (%s)",
				*algName, algHint()))
		}
		files := strings.Split(*probes, ",")
		if err := runProbes(ctx, a, files, *eps, opt, *out, *quiet, *stat); err != nil {
			fatal(err)
		}
		return
	}

	b, err := readFile(*fileB)
	if err != nil {
		fatal(err)
	}
	// Pairs stream to the output as the engine emits them, so everything
	// that can fail validation must fail before the output file is
	// touched: the algorithm name, the distance, the inputs (above).
	alg := touch.Algorithm(*algName)
	if !touch.ValidAlgorithm(alg) {
		fatal(fmt.Errorf("%w %q (%s)", touch.ErrUnknownAlgorithm, *algName, algHint()))
	}
	if !(*eps >= 0) { // NaN too
		fatal(fmt.Errorf("%w %g", touch.ErrNegativeDistance, *eps))
	}

	// Pair mode streams through a sink that opens the output lazily on
	// the first pair; count mode writes one number at the end. Either
	// way a join that fails before producing anything — including a
	// -timeout expiring during the build or assignment phases — never
	// touches an existing output file.
	var pw *pairWriter
	joinCtx := ctx
	if !*quiet {
		// The writer gets its own cancel handle: a failed write (full
		// disk, closed pipe) aborts the engine at its next checkpoint
		// instead of letting a long join finish into the void.
		var cancel context.CancelFunc
		joinCtx, cancel = context.WithCancel(ctx)
		defer cancel()
		pw = &pairWriter{path: *out, cancel: cancel}
		opt.Sink = pw
	}
	var res *touch.Result
	if hasUpd {
		// The incremental path: join over the edited index — bit-identical
		// to joining the edited file.
		var v *touch.Overlay
		if v, err = edited(a, opt.TOUCH, updIns, updDel); err != nil {
			fatal(err)
		}
		res, err = v.DistanceJoinCtx(joinCtx, b, *eps, opt)
	} else {
		res, err = touch.DistanceJoinCtx(joinCtx, alg, a, b, *eps, opt)
	}
	if err != nil {
		if pw != nil {
			// Keep every pair already streamed: without the flush, the
			// bufio tail is lost and the file can end on a torn line —
			// a wrong-but-parseable pair.
			pw.abortFlush()
			if pw.err != nil {
				// The write failure is what canceled the join; report it,
				// not the secondhand cancellation.
				fatal(pw.err)
			}
		}
		fatal(err)
	}
	if pw != nil {
		if err := pw.finish(); err != nil {
			fatal(err)
		}
	}

	if *stat {
		printStats(*algName, len(a), len(b), &res.Stats)
	}
	if *quiet {
		w, closeOut := openOut(*out)
		fmt.Fprintln(w, res.Stats.Results)
		if err := w.Flush(); err != nil {
			fatal(err)
		}
		closeOut()
	}
}

// pairWriter streams result pairs to the output as the join delivers
// them — constant memory however large the result. The output is
// created lazily on the first pair, so a join canceled before emitting
// anything leaves an existing file untouched. The first write error
// sticks, suppresses the rest (a full disk should not print a million
// errors) and cancels the join so the engine stops producing pairs
// nobody can keep.
type pairWriter struct {
	path     string
	cancel   context.CancelFunc
	w        *bufio.Writer
	closeOut func()
	err      error
}

// Emit implements touch.Sink.
func (pw *pairWriter) Emit(a, b touch.ID) {
	if pw.err != nil {
		return
	}
	if pw.w == nil {
		pw.w, pw.closeOut = openOut(pw.path)
	}
	if _, pw.err = fmt.Fprintf(pw.w, "%d %d\n", a, b); pw.err != nil && pw.cancel != nil {
		pw.cancel()
	}
}

// finish flushes and closes the output after a successful join,
// creating it (empty) if the join produced no pairs — a succeeded run
// always leaves the requested file behind.
func (pw *pairWriter) finish() error {
	if pw.err != nil {
		return pw.err
	}
	if pw.w == nil {
		pw.w, pw.closeOut = openOut(pw.path)
	}
	if err := pw.w.Flush(); err != nil {
		return err
	}
	pw.closeOut()
	return nil
}

// abortFlush preserves what a canceled join already emitted: the
// buffered tail is flushed so the file ends on a complete line, and
// errors are ignored — the run is failing anyway. A join canceled
// before its first pair never opened the output; nothing to do.
func (pw *pairWriter) abortFlush() {
	if pw.w == nil {
		return
	}
	_ = pw.w.Flush()
	pw.closeOut()
}

// runProbes builds one TOUCH index on a and joins every probe file
// against it — the build phase runs exactly once. All probe files are
// read (and therefore validated) before any join runs, and the output
// file is only created once the first join has succeeded, so a failed
// or canceled invocation never truncates an existing file for nothing
// (a deadline expiring mid-sequence leaves the complete blocks already
// written). Pair blocks are separated by "# file" headers; with count
// one "file n" line per probe is written instead. The ctx deadline
// covers the whole sequence of joins; probe blocks are small enough
// per join that they stay sorted (unlike the streaming single-join
// mode).
func runProbes(ctx context.Context, a touch.Dataset, files []string, eps float64, opt *touch.Options, outPath string, count, stat bool) error {
	if !(eps >= 0) { // NaN too
		return fmt.Errorf("%w %g", touch.ErrNegativeDistance, eps)
	}
	names := make([]string, 0, len(files))
	datasets := make([]touch.Dataset, 0, len(files))
	for _, file := range files {
		file = strings.TrimSpace(file)
		if file == "" {
			continue
		}
		b, err := readFile(file)
		if err != nil {
			return err
		}
		names = append(names, file)
		datasets = append(datasets, b)
	}
	if len(datasets) == 0 {
		return fmt.Errorf("-probes lists no files")
	}

	// The index is built on A, so the ε-expansion moves to the index
	// side once instead of every probe dataset per join.
	idx := touch.BuildIndex(a.Expand(eps), opt.TOUCH)

	// The output opens lazily, after the first join has succeeded: a
	// -timeout expiring during the sequence then leaves an existing
	// file either untouched (first join) or holding the complete blocks
	// already written — never truncated for nothing.
	var (
		w        *bufio.Writer
		closeOut func()
	)
	ensureOut := func() {
		if w == nil {
			w, closeOut = openOut(outPath)
		}
	}
	for i, b := range datasets {
		res, err := idx.JoinCtx(ctx, b, opt)
		if err != nil {
			if w != nil {
				_ = w.Flush() // keep the blocks already written intact
				closeOut()
			}
			return err
		}
		if stat {
			fmt.Fprintf(os.Stderr, "--- %s\n", names[i])
			printStats(string(touch.AlgTOUCH), len(a), len(b), &res.Stats)
		}
		ensureOut()
		if count {
			fmt.Fprintf(w, "%s %d\n", names[i], res.Stats.Results)
			continue
		}
		fmt.Fprintf(w, "# %s\n", names[i])
		res.SortPairs()
		for _, p := range res.Pairs {
			fmt.Fprintf(w, "%d %d\n", p.A, p.B)
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	closeOut()
	return nil
}

// parseFloats splits a comma-separated list into exactly n numbers.
func parseFloats(arg, flagName string, n int) ([]float64, error) {
	if arg == "" {
		return nil, fmt.Errorf("-%s is required for this query mode", flagName)
	}
	fields := strings.Split(arg, ",")
	if len(fields) != n {
		return nil, fmt.Errorf("-%s: want %d comma-separated numbers, got %d", flagName, n, len(fields))
	}
	out := make([]float64, n)
	for i, f := range fields {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, fmt.Errorf("-%s: %v", flagName, err)
		}
		out[i] = v
	}
	return out, nil
}

// runQuery builds one TOUCH index on a and answers a single range,
// point or knn query. The output file is only created once the query
// has succeeded, so a failed invocation never clobbers an existing
// file. Single-probe queries run in microseconds, so the -timeout ctx
// is only honored at the phase boundaries (before the index build and
// before the query), not inside them.
func runQuery(ctx context.Context, a touch.Dataset, mode, boxArg, ptArg string, k int, eps float64, outPath string, updIns touch.Dataset, updDel []touch.ID) error {
	if !(eps >= 0) { // NaN too
		return fmt.Errorf("%w %g", touch.ErrNegativeDistance, eps)
	}

	// Parse and validate all query arguments before building anything.
	var (
		queryBox touch.Box
		queryPt  touch.Point
	)
	switch mode {
	case "range":
		v, err := parseFloats(boxArg, "box", 6)
		if err != nil {
			return err
		}
		queryBox = touch.NewBox(touch.Point{v[0], v[1], v[2]}, touch.Point{v[3], v[4], v[5]})
	case "point", "knn":
		v, err := parseFloats(ptArg, "point", 3)
		if err != nil {
			return err
		}
		queryPt = touch.Point{v[0], v[1], v[2]}
		if mode == "knn" && k < 1 {
			return fmt.Errorf("%w (got %d)", touch.ErrInvalidK, k)
		}
	default:
		return fmt.Errorf("unknown -query mode %q (valid: range, point, knn)", mode)
	}

	// A non-zero ε expands the indexed boxes: results are the objects
	// within ε of the query box or point.
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("query canceled: %w", err)
	}
	// With -insert/-delete the query answers over the incrementally
	// edited state: index A, apply the updates (inserted boxes get the
	// same ε-expansion the indexed side carries), query the merge.
	ix, err := edited(a.Expand(eps), touch.TOUCHConfig{}, updIns.Expand(eps), updDel)
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("query canceled: %w", err)
	}

	var lines []string
	switch mode {
	case "range", "point":
		var ids []touch.ID
		var err error
		if mode == "range" {
			ids, err = ix.RangeQuery(queryBox)
		} else {
			ids, err = ix.PointQuery(queryPt[0], queryPt[1], queryPt[2])
		}
		if err != nil {
			return err
		}
		for _, id := range ids {
			lines = append(lines, strconv.Itoa(int(id)))
		}
	case "knn":
		nbrs, err := ix.KNN(queryPt, k)
		if err != nil {
			return err
		}
		for _, nb := range nbrs {
			lines = append(lines, fmt.Sprintf("%d %g", nb.ID, nb.Distance))
		}
	}

	// The query succeeded — only now touch the output file.
	w, closeOut := openOut(outPath)
	for _, line := range lines {
		fmt.Fprintln(w, line)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	closeOut()
	return nil
}

func printStats(alg string, sizeA, sizeB int, s *touch.Stats) {
	fmt.Fprintf(os.Stderr, "algorithm:    %s\n", alg)
	fmt.Fprintf(os.Stderr, "|A| × |B|:    %d × %d\n", sizeA, sizeB)
	fmt.Fprintf(os.Stderr, "results:      %d\n", s.Results)
	fmt.Fprintf(os.Stderr, "comparisons:  %d\n", s.Comparisons)
	fmt.Fprintf(os.Stderr, "filtered:     %d\n", s.Filtered)
	fmt.Fprintf(os.Stderr, "memory:       %s\n", touch.FormatBytes(s.MemoryBytes))
	fmt.Fprintf(os.Stderr, "build time:   %v\n", s.BuildTime)
	fmt.Fprintf(os.Stderr, "assign time:  %v\n", s.AssignTime)
	fmt.Fprintf(os.Stderr, "join time:    %v\n", s.JoinTime)
}

// algHint lists the selectable algorithm names.
func algHint() string {
	names := make([]string, 0, len(touch.Algorithms()))
	for _, alg := range touch.Algorithms() {
		names = append(names, string(alg))
	}
	return "valid -alg values: " + strings.Join(names, ", ")
}

// openOut returns a buffered writer on path (stdout when empty) and a
// close function for the underlying file. Call it only once the join is
// known to succeed: os.Create truncates an existing file.
func openOut(path string) (*bufio.Writer, func()) {
	if path == "" {
		return bufio.NewWriter(os.Stdout), func() {}
	}
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	return bufio.NewWriter(f), func() {
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
}

// readUpdates parses the incremental-update flags: the -insert box file
// and the comma-separated -delete ID list.
func readUpdates(insFile, delArg string) (touch.Dataset, []touch.ID, error) {
	var ins touch.Dataset
	if insFile != "" {
		var err error
		if ins, err = readFile(insFile); err != nil {
			return nil, nil, err
		}
	}
	var dels []touch.ID
	if delArg != "" {
		for _, f := range strings.Split(delArg, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				return nil, nil, fmt.Errorf("-delete: %v", err)
			}
			dels = append(dels, touch.ID(v))
		}
	}
	return ins, dels, nil
}

// edited indexes a and takes one update step: the del IDs tombstoned,
// then ins appended with the IDs after a's last line. ins was read by
// ReadDataset, which validated its boxes.
func edited(a touch.Dataset, cfg touch.TOUCHConfig, ins touch.Dataset, del []touch.ID) (*touch.Overlay, error) {
	boxes := make([]touch.Box, len(ins))
	for i, o := range ins {
		boxes[i] = o.Box
	}
	v, _, _, ok := touch.BuildIndex(a, cfg).Apply(boxes, del)
	if !ok {
		return nil, touch.ErrIDSpaceExhausted
	}
	return v, nil
}

func readFile(path string) (touch.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return touch.ReadDataset(bufio.NewReader(f))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "touchjoin: %v\n", err)
	os.Exit(1)
}
