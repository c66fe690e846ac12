package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"time"
)

// The four workloads. Names are final: BENCHMARK.json, the result files
// and -compare key on them.
const (
	wlJoinSparse = "join_sparse"
	wlJoinDense  = "join_dense"
	wlServeRead  = "serve_read"
	wlServeMixed = "serve_mixed"
)

var workloadNames = []string{wlJoinSparse, wlJoinDense, wlServeRead, wlServeMixed}

var (
	onAll    = workloadNames
	onJoins  = []string{wlJoinSparse, wlJoinDense}
	onSparse = []string{wlJoinSparse}
	onRead   = []string{wlServeRead}
	onMixed  = []string{wlServeMixed}
	onServe  = []string{wlServeRead, wlServeMixed}
)

// metricDef declares one metric. The Go tables below are what the
// program emits; BENCHMARK.json repeats name, unit and direction (and
// holds the regression bounds), and the self-test keeps the two equal.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// on lists the workloads that measure the metric. Elsewhere an
	// end-to-end metric mirrors the workload's headline (see mirror) and
	// a per-layer metric reads 0: the layer did no work there.
	on []string
	// exact marks a count that must repeat exactly between two runs of
	// one seed; -compare requires equality instead of applying a bound.
	exact bool
}

func (d *metricDef) measuredOn(workload string) bool { return slices.Contains(d.on, workload) }

var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", on: onAll},
	{name: "heap_mb", unit: "MB", better: "lower", on: onAll},
	{name: "alloc_kb_per_op", unit: "KB", better: "lower", on: onAll},
	{name: "join_s", unit: "s", better: "lower", on: onJoins},
	{name: "http_range_p50_us", unit: "us", better: "lower", on: onRead},
	{name: "http_knn_p50_us", unit: "us", better: "lower", on: onRead},
	{name: "http_qps", unit: "1/s", better: "higher", on: onRead},
	{name: "wire_range_p50_us", unit: "us", better: "lower", on: onServe},
	{name: "wire_knn_p50_us", unit: "us", better: "lower", on: onServe},
	{name: "wire_pipelined_qps", unit: "1/s", better: "higher", on: onRead},
	{name: "router_range_p50_us", unit: "us", better: "lower", on: onRead},
	{name: "router_pipelined_qps", unit: "1/s", better: "higher", on: onRead},
	{name: "wire_join_p50_ms", unit: "ms", better: "lower", on: onRead},
	{name: "update_p50_us", unit: "us", better: "lower", on: onMixed},
	{name: "mixed_ops_per_s", unit: "1/s", better: "higher", on: onMixed},
}

// headline names the end-to-end metric that stands for a workload where
// another metric's phase does not run.
var headline = map[string]string{
	wlJoinSparse: "join_s",
	wlJoinDense:  "join_s",
	wlServeRead:  "wire_pipelined_qps",
	wlServeMixed: "mixed_ops_per_s",
}

var perLayer = []metricDef{
	// join_sparse, join_dense -> join_s
	{name: "geom.expand_ms", unit: "ms", better: "lower", on: onJoins},
	{name: "str.pack_ms", unit: "ms", better: "lower", on: onJoins},
	{name: "core.build_ms", unit: "ms", better: "lower", on: onJoins},
	{name: "core.assign_ms", unit: "ms", better: "lower", on: onJoins},
	{name: "core.join_ms", unit: "ms", better: "lower", on: onJoins},
	{name: "core.join_w2_ms", unit: "ms", better: "lower", on: onJoins},
	{name: "core.comparisons", unit: "count", better: "lower", on: onJoins, exact: true},
	{name: "core.node_tests", unit: "count", better: "lower", on: onJoins, exact: true},
	{name: "core.filtered", unit: "count", better: "higher", on: onJoins, exact: true},
	{name: "core.results", unit: "count", better: "higher", on: onJoins, exact: true},
	{name: "core.replicas", unit: "count", better: "lower", on: onJoins, exact: true},
	{name: "core.memory_bytes", unit: "B", better: "lower", on: onJoins, exact: true},
	{name: "core.static_bytes", unit: "B", better: "lower", on: onJoins, exact: true},
	{name: "core.comparisons_per_result", unit: "ratio", better: "lower", on: onJoins, exact: true},
	{name: "touch.join_self_ms", unit: "ms", better: "lower", on: onJoins},
	{name: "touch.join_allocs", unit: "count", better: "lower", on: onJoins},
	{name: "pbsm.join_ms", unit: "ms", better: "lower", on: onJoins},
	{name: "pbsm.comparisons", unit: "count", better: "lower", on: onJoins, exact: true},
	{name: "pbsm.memory_bytes", unit: "B", better: "lower", on: onJoins, exact: true},
	{name: "rtree.join_ms", unit: "ms", better: "lower", on: onSparse},
	{name: "rtree.comparisons", unit: "count", better: "lower", on: onSparse, exact: true},
	{name: "rtree.memory_bytes", unit: "B", better: "lower", on: onSparse, exact: true},

	// serve_read ladder -> wire_*, http_*, router_*
	{name: "core.range_us", unit: "us", better: "lower", on: onRead},
	{name: "core.knn_us", unit: "us", better: "lower", on: onRead},
	{name: "core.range_node_tests", unit: "count", better: "lower", on: onRead, exact: true},
	{name: "core.range_comparisons", unit: "count", better: "lower", on: onRead, exact: true},
	{name: "core.knn_node_tests", unit: "count", better: "lower", on: onRead, exact: true},
	{name: "touch.index.range_us", unit: "us", better: "lower", on: onRead},
	{name: "touch.index.knn_us", unit: "us", better: "lower", on: onRead},
	{name: "touch.index.range_allocs", unit: "count", better: "lower", on: onRead},
	{name: "touch.index.knn_allocs", unit: "count", better: "lower", on: onRead},
	{name: "touch.overlay_empty.range_us", unit: "us", better: "lower", on: onRead},
	{name: "touch.overlay_empty.knn_us", unit: "us", better: "lower", on: onRead},
	{name: "server.handler.range_us", unit: "us", better: "lower", on: onRead},
	{name: "server.handler.knn_us", unit: "us", better: "lower", on: onRead},
	{name: "server.handler.range_allocs", unit: "count", better: "lower", on: onRead},
	{name: "server.handler.knn_allocs", unit: "count", better: "lower", on: onRead},
	{name: "server.handler.range_bytes_out", unit: "B", better: "lower", on: onRead, exact: true},
	{name: "wire.codec.range_us", unit: "us", better: "lower", on: onRead},
	{name: "wire.codec.knn_us", unit: "us", better: "lower", on: onRead},
	{name: "wire.range_bytes_out", unit: "B", better: "lower", on: onRead, exact: true},
	{name: "server.wire.range_us", unit: "us", better: "lower", on: onRead},
	{name: "server.wire.knn_us", unit: "us", better: "lower", on: onRead},
	{name: "server.http.range_us", unit: "us", better: "lower", on: onRead},
	{name: "server.http.knn_us", unit: "us", better: "lower", on: onRead},
	{name: "router.call.range_us", unit: "us", better: "lower", on: onRead},
	{name: "router.wire.range_us", unit: "us", better: "lower", on: onRead},
	{name: "router.wire.knn_us", unit: "us", better: "lower", on: onRead},
	{name: "touch.index.self_range_us", unit: "us", better: "lower", on: onRead},
	{name: "touch.index.self_knn_us", unit: "us", better: "lower", on: onRead},
	{name: "server.handler.self_range_us", unit: "us", better: "lower", on: onRead},
	{name: "server.handler.self_knn_us", unit: "us", better: "lower", on: onRead},
	{name: "server.wire.self_range_us", unit: "us", better: "lower", on: onRead},
	{name: "server.wire.self_knn_us", unit: "us", better: "lower", on: onRead},
	{name: "server.http.self_range_us", unit: "us", better: "lower", on: onRead},
	{name: "server.http.self_knn_us", unit: "us", better: "lower", on: onRead},
	{name: "router.self_range_us", unit: "us", better: "lower", on: onRead},
	{name: "router.self_knn_us", unit: "us", better: "lower", on: onRead},
	{name: "server.wire.p99_us", unit: "us", better: "lower", on: onRead},
	{name: "server.http.p99_us", unit: "us", better: "lower", on: onRead},
	{name: "router.wire.p99_us", unit: "us", better: "lower", on: onRead},
	{name: "touch.index.join_ms", unit: "ms", better: "lower", on: onRead},
	{name: "touch.index.join_assign_ms", unit: "ms", better: "lower", on: onRead},
	{name: "touch.index.join_join_ms", unit: "ms", better: "lower", on: onRead},
	{name: "server.wire.join_ms", unit: "ms", better: "lower", on: onRead},
	{name: "server.wire.self_join_ms", unit: "ms", better: "lower", on: onRead},
	{name: "server.load_ms", unit: "ms", better: "lower", on: onRead},
	{name: "snapshot.encode_ms", unit: "ms", better: "lower", on: onRead},
	{name: "snapshot.decode_ms", unit: "ms", better: "lower", on: onRead},
	{name: "snapshot.bytes_per_object", unit: "B", better: "lower", on: onRead, exact: true},
	{name: "server.recover_ms", unit: "ms", better: "lower", on: onRead},
	{name: "trace.unaccounted_pct", unit: "%", better: "lower", on: onRead},
	{name: "trace.flag_overhead_pct", unit: "%", better: "lower", on: onRead},

	// serve_mixed -> wire_*_p50_us, update_p50_us, mixed_ops_per_s there
	{name: "touch.overlay_loaded.range_us", unit: "us", better: "lower", on: onMixed},
	{name: "touch.overlay_loaded.knn_us", unit: "us", better: "lower", on: onMixed},
	{name: "touch.overlay_loaded.range_query_us", unit: "us", better: "lower", on: onMixed},
	{name: "touch.overlay_loaded.range_overlay_us", unit: "us", better: "lower", on: onMixed},
	{name: "touch.overlay_loaded.range_delta_us", unit: "us", better: "lower", on: onMixed},
	{name: "touch.overlay_loaded.knn_query_us", unit: "us", better: "lower", on: onMixed},
	{name: "touch.overlay_loaded.knn_overlay_us", unit: "us", better: "lower", on: onMixed},
	{name: "touch.overlay_loaded.knn_delta_us", unit: "us", better: "lower", on: onMixed},
	{name: "touch.overlay_loaded.range_slowdown", unit: "ratio", better: "lower", on: onMixed},
	{name: "touch.overlay_loaded.knn_slowdown", unit: "ratio", better: "lower", on: onMixed},
	{name: "delta.insert_us", unit: "us", better: "lower", on: onMixed},
	{name: "delta.delete_us", unit: "us", better: "lower", on: onMixed},
	{name: "touch.mutable.insert_us", unit: "us", better: "lower", on: onMixed},
	{name: "touch.mutable.delete_us", unit: "us", better: "lower", on: onMixed},
	{name: "touch.mutable.compact_ms", unit: "ms", better: "lower", on: onMixed},
	{name: "server.handler.update_us", unit: "us", better: "lower", on: onMixed},
	{name: "server.wire.update_us", unit: "us", better: "lower", on: onMixed},
	{name: "server.compactions", unit: "count", better: "lower", on: onMixed},
	{name: "server.delta_max", unit: "count", better: "lower", on: onMixed},

	{name: "bench.trace_overhead_pct", unit: "%", better: "lower", on: onAll},
}

func findMetric(defs []metricDef, name string) *metricDef {
	for i := range defs {
		if defs[i].name == name {
			return &defs[i]
		}
	}
	return nil
}

// metric is one reported value: the median of its samples, with the
// quartiles, the sample count and the highest percentile that still has
// at least ten samples beyond it. A value that is not a distribution
// (a count, a footprint) has N == 1.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Raw is the wall-clock median before it was restated in
	// reference-machine time (end-to-end timings and rates only).
	Raw float64 `json:"raw,omitempty"`
	P25 float64 `json:"p25,omitempty"`
	P75 float64 `json:"p75,omitempty"`
	N   int     `json:"n,omitempty"`
	// TailP/Tail are printed, never gated: with the sample counts a run
	// affords, p99 moved 20-25% between identical runs.
	TailP float64 `json:"tail_p,omitempty"`
	Tail  float64 `json:"tail,omitempty"`
	// Mirrors names the headline metric this value restates because the
	// metric's own phase is not part of the workload.
	Mirrors string `json:"mirrors,omitempty"`
	// Note explains an omitted or placeholder value.
	Note string `json:"note,omitempty"`
}

// quartiles returns the three cut points of sorted the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which
// is what the driver applies to the ten values of a metric.
func quartiles(sorted []float64) (q1, q2, q3 float64) {
	n := len(sorted)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return sorted[0], sorted[0], sorted[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = min(max(j, 1), n-1)
		delta := i*m - j*4
		return (sorted[j-1]*float64(4-delta) + sorted[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// percentile is the nearest-rank percentile of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// summarize turns samples (any order; sorted in place) into a metric.
func summarize(samples []float64, unit string) *metric {
	slices.Sort(samples)
	m := &metric{Unit: unit, N: len(samples)}
	m.P25, m.Value, m.P75 = quartiles(samples)
	for _, p := range []float64{99.99, 99.9, 99, 95, 90} {
		if float64(len(samples))*(100-p)/100 >= 10 {
			m.TailP, m.Tail = p, percentile(samples, p)
			break
		}
	}
	return m
}

// durations collects per-op wall times.
type durations []time.Duration

func (d durations) in(unit time.Duration) []float64 {
	out := make([]float64, len(d))
	for i, v := range d {
		out[i] = float64(v) / float64(unit)
	}
	return out
}

// median is the middle wall time of d.
func (d durations) median() time.Duration {
	if len(d) == 0 {
		return 0
	}
	ns := d.in(1)
	slices.Sort(ns)
	_, q2, _ := quartiles(ns)
	return time.Duration(q2)
}

// unitDuration maps a time unit of the metric tables to its duration.
func unitDuration(unit string) time.Duration {
	switch unit {
	case "s":
		return time.Second
	case "ms":
		return time.Millisecond
	case "us":
		return time.Microsecond
	}
	panic("benchmark: " + unit + " is not a time unit")
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}
