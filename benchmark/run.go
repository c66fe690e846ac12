package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// config is one invocation's knobs, straight from the flags.
type config struct {
	workload string
	seed     int64
	// seconds selects the op counts: they are sized so that the measured
	// phase lasts about this long on the 2-core reference container.
	// Counts, not a stopwatch, end a run, so both sides of a comparison
	// do identical work.
	seconds int
	scale   string // "full" or "tiny"
	trace   bool
	outDir  string

	// corruptFirst makes the first checked answer of the run read as
	// wrong; the self-test uses it to prove wrong answers are counted.
	corruptFirst bool
}

// result is what one run of one workload leaves behind: the last line
// of stdout carries correct/attempted/failed/metrics, the result file
// the rest.
type result struct {
	Workload  string             `json:"workload"`
	Trace     bool               `json:"trace"`
	Stamp     stamp              `json:"stamp"`
	Sizes     map[string]int     `json:"sizes"`
	Ops       map[string]int     `json:"ops"`
	OracleS   float64            `json:"oracle_s"`
	WallS     float64            `json:"wall_s"`
	CalibMS   float64            `json:"calib_ms"`
	Inputs    string             `json:"inputs_fingerprint"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]*metric `json:"metrics"`
	Notes     []string           `json:"notes,omitempty"`
}

// span is one traced call into a layer. Times are nanoseconds since the
// tracer started; Parent is a span index or -1; Op ties the spans of one
// operation together.
type span struct {
	name       int32
	parent     int32
	op         int32
	start, end int64
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how end-to-end runs execute the same code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	names []string
	index map[string]int32
	spans []span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), index: make(map[string]int32)}
}

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int32, op int) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ni, ok := t.index[name]
	if !ok {
		ni = int32(len(t.names))
		t.names = append(t.names, name)
		t.index[name] = ni
	}
	t.spans = append(t.spans, span{name: ni, parent: parent, op: int32(op), start: int64(time.Since(t.t0))})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// spanCost measures what recording one span costs, on a scratch tracer.
func spanCost() time.Duration {
	const n = 100_000
	t := newTracer()
	start := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin("span", -1, i))
	}
	return time.Since(start) / n
}

// write stores the spans as {"names": [...], "spans": [[name, start_ns,
// end_ns, parent, op], ...]} — one row per span keeps a 100K-span file
// readable by any JSON tool without being enormous.
func (t *tracer) write(path string) error {
	rows := make([][5]int64, len(t.spans))
	for i, s := range t.spans {
		rows[i] = [5]int64{int64(s.name), s.start, s.end, int64(s.parent), int64(s.op)}
	}
	data, err := json.Marshal(struct {
		Names []string   `json:"names"`
		Spans [][5]int64 `json:"spans"`
	}{t.names, rows})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// run is the state of one workload execution.
type run struct {
	cfg config
	sz  sizes
	tr  *tracer
	res *result

	attempted atomic.Int64
	failed    atomic.Int64
	corrupted atomic.Bool

	mu       sync.Mutex
	failures []string // first few failure descriptions, for the report

	// calib holds the calibration kernel's times, see calibrate.
	calib    durations
	calibBuf []float64
}

// The calibration kernel: sorting a fixed pseudo-random array, about
// 10 ms of branchy, memory-touching single-threaded work. The 2-vCPU
// containers the benchmark runs in speed up and slow down by 10-25% for
// minutes at a time (no steal time is reported; it is the shared host),
// which is more than any bound worth gating on. The kernel is run all
// through a run, and every end-to-end timing is reported in
// reference-machine time: wall time x calibRefMS / the kernel's median
// in this run. Ten-run spreads of the CPU-bound metrics fall from 7-12%
// to about 3% that way (README.md has the table); the raw medians stay
// in the result file.
const calibRefMS = 10.5

var calibBase = func() []float64 {
	b := make([]float64, 100_000)
	x := uint64(88172645463325252)
	for i := range b {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		b[i] = float64(x >> 11)
	}
	return b
}()

// calibrate runs the calibration kernel once on the calling goroutine
// and records its time. Call it between ops, never inside a timed one.
func (r *run) calibrate() {
	if r.calibBuf == nil {
		r.calibBuf = make([]float64, len(calibBase))
	}
	copy(r.calibBuf, calibBase)
	start := time.Now()
	slices.Sort(r.calibBuf)
	r.calib = append(r.calib, time.Since(start))
}

// normalise restates every measured end-to-end timing and rate in
// reference-machine time and keeps the raw value beside it.
func (r *run) normalise() {
	if len(r.calib) == 0 {
		return
	}
	r.res.CalibMS = float64(r.calib.median()) / float64(time.Millisecond)
	f := calibRefMS / r.res.CalibMS
	for i := range endToEnd {
		m := r.res.Metrics[endToEnd[i].name]
		scale := 0.0
		switch endToEnd[i].unit {
		case "s", "ms", "us":
			scale = f
		case "1/s":
			scale = 1 / f
		}
		if m == nil || scale == 0 {
			continue // not measured here, or a footprint rather than a time
		}
		m.Raw = m.Value
		m.Value, m.P25, m.P75, m.Tail = m.Value*scale, m.P25*scale, m.P75*scale, m.Tail*scale
	}
}

func newRun(cfg config) *run {
	r := &run{cfg: cfg, sz: sizesFor(cfg)}
	if cfg.trace {
		r.tr = newTracer()
	}
	r.res = &result{
		Workload: cfg.workload,
		Trace:    cfg.trace,
		Sizes:    map[string]int{},
		Ops:      map[string]int{},
		Metrics:  map[string]*metric{},
	}
	return r
}

// attempt counts one operation; call fail when it errs, is refused or
// answers wrongly.
func (r *run) attempt() { r.attempted.Add(1) }

func (r *run) fail(format string, args ...any) {
	r.failed.Add(1)
	r.mu.Lock()
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
	r.mu.Unlock()
}

// check counts one operation whose answer hashes to got and must hash
// to want, and reports whether it passed. A failed op's latency is not
// sampled by the callers.
func (r *run) check(what string, op int, err error, got, want uint64) bool {
	r.attempt()
	if err != nil {
		r.fail("%s op %d: %v", what, op, err)
		return false
	}
	if r.cfg.corruptFirst && r.corrupted.CompareAndSwap(false, true) {
		got = ^got
	}
	if got != want {
		r.fail("%s op %d: wrong answer (hash %016x, want %016x)", what, op, got, want)
		return false
	}
	return true
}

// timed runs f under a span (when tracing) and returns its wall time.
func (r *run) timed(name string, parent int32, op int, f func()) time.Duration {
	id := r.tr.begin(name, parent, op)
	start := time.Now()
	f()
	d := time.Since(start)
	r.tr.end(id)
	return d
}

// rung prices one layer: it times call once per op, each under its own
// span, then runs check (untimed, may be nil) and returns the wall times
// of the ops that passed.
func (r *run) rung(name string, n int, call func(i int), check func(i int) bool) durations {
	out := make(durations, 0, n)
	for i := 0; i < n; i++ {
		d := r.timed(name, -1, i, func() { call(i) })
		if check == nil || check(i) {
			out = append(out, d)
		}
	}
	return out
}

// setTime reports the median of d under name, in the unit the metric
// tables give that name.
func (r *run) setTime(name string, d durations) {
	unit := r.unitOf(name)
	r.res.Metrics[name] = summarize(d.in(unitDuration(unit)), unit)
}

// setSamples reports the median of samples under name.
func (r *run) setSamples(name string, samples []float64) {
	r.res.Metrics[name] = summarize(samples, r.unitOf(name))
}

// setOverhead reports, in percent, how much slower the median of with is
// than the median of without: the same ops with and without some
// instrumentation, interleaved in one run.
func (r *run) setOverhead(name string, with, without durations) {
	if base := without.median(); base > 0 {
		r.setValue(name, 100*(float64(with.median())/float64(base)-1))
	}
}

// setValue reports a single value (a count, a footprint, a difference
// of medians) under name.
func (r *run) setValue(name string, v float64) {
	r.res.Metrics[name] = &metric{Value: v, Unit: r.unitOf(name), N: 1}
}

// omit reports a metric this machine cannot measure meaningfully.
func (r *run) omit(name, note string) {
	r.res.Metrics[name] = &metric{Unit: r.unitOf(name), Note: note}
	r.res.Notes = append(r.res.Notes, name+": "+note)
}

func (r *run) unitOf(name string) string {
	if d := findMetric(endToEnd, name); d != nil {
		return d.unit
	}
	if d := findMetric(perLayer, name); d != nil {
		return d.unit
	}
	panic("benchmark: metric " + name + " is not declared in metrics.go")
}

func (r *run) median(name string) float64 {
	if m := r.res.Metrics[name]; m != nil {
		return m.Value
	}
	return 0
}

// memBefore/memAfter bracket the measured ops for alloc_kb_per_op and
// heap_mb. keep holds every dataset, index and server of the workload
// alive across the final collection; the last result must already be
// dropped by the caller.
func memBefore() runtime.MemStats {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms
}

func (r *run) memAfter(before runtime.MemStats, ops int64, keep ...any) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.setValue("alloc_kb_per_op", float64(ms.TotalAlloc-before.TotalAlloc)/1024/float64(max(ops, 1)))
	// Two collections: the first moves sync.Pool contents (probe scratch)
	// to the victim cache, the second frees them, so the footprint does
	// not depend on when the last background collection happened.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	r.setValue("heap_mb", float64(ms.HeapAlloc)/(1<<20))
	runtime.KeepAlive(keep)
}

// mirror fills in every end-to-end metric the workload does not measure
// with the workload's headline restated in that metric's unit and
// direction. The driver wants every end-to-end metric on every workload
// and none of them zero; a mirrored value gates nothing new — it moves
// exactly when the headline moves — and -compare skips it.
func (r *run) mirror() {
	hname := headline[r.cfg.workload]
	h := r.res.Metrics[hname]
	hdef := findMetric(endToEnd, hname)
	if h == nil || h.Value <= 0 {
		return
	}
	// secPerOp is the headline as a time per operation.
	var secPerOp float64
	if hdef.unit == "1/s" {
		secPerOp = 1 / h.Value
	} else {
		secPerOp = h.Value * unitDuration(hdef.unit).Seconds()
	}
	for i := range endToEnd {
		d := &endToEnd[i]
		if d.measuredOn(r.cfg.workload) {
			continue
		}
		v := 1 / secPerOp
		if d.unit != "1/s" {
			v = secPerOp / unitDuration(d.unit).Seconds()
		}
		r.res.Metrics[d.name] = &metric{Value: v, Unit: d.unit, N: h.N, Mirrors: hname}
	}
}

// finish completes the result: per-layer metrics the workload does not
// measure read 0, the verdict is drawn, and the files are written.
func (r *run) finish() error {
	res := r.res
	if r.cfg.trace {
		for i := range perLayer {
			d := &perLayer[i]
			if res.Metrics[d.name] == nil {
				res.Metrics[d.name] = &metric{Unit: d.unit}
			}
		}
	} else {
		r.normalise()
		r.mirror()
	}
	res.Attempted = r.attempted.Load()
	res.Failed = r.failed.Load()
	res.Correct = res.Failed == 0 && res.Attempted > 0
	for _, f := range r.failures {
		res.Notes = append(res.Notes, "FAILED "+f)
	}
	res.Stamp = newStamp(r.cfg)

	name := r.cfg.workload + ".json"
	if r.cfg.trace {
		name = r.cfg.workload + ".trace-metrics.json"
		if err := r.tr.write(filepath.Join(r.cfg.outDir, r.cfg.workload+".trace.json")); err != nil {
			return err
		}
	}
	return writeJSON(filepath.Join(r.cfg.outDir, name), runFile{Runs: []*result{res}})
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// setupMedian sets the workload up n times, tearing every fixture but
// the last down again, returns the last fixture and reports the median
// set-up time as setup_s. Repeating is what makes setup_s steady enough
// to gate.
func setupMedian[T any](r *run, n int, build func() (T, error), teardown func(T)) (T, error) {
	var fx T
	var secs []float64
	for i := 0; i < n; i++ {
		r.calibrate()
		if i > 0 {
			teardown(fx)
			var zero T
			fx = zero
			runtime.GC()
		}
		start := time.Now()
		var err error
		fx, err = build()
		if err != nil {
			return fx, err
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	r.setSamples("setup_s", secs)
	return fx, nil
}
