package server

import (
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"touch"
	"touch/internal/promhist"
	"touch/internal/trace"
)

// Request classes for per-endpoint accounting: every class is counted,
// and its admitted requests are timed in a duration histogram.
const (
	classQuery = iota
	classJoin
	classLoad
	classUpdate // PATCH /v1/datasets/{name}: incremental inserts/deletes
	classCatalog
	classOther // answered at the routing layer: bad route/method/name
	// The binary protocol's traffic is accounted apart from HTTP so the
	// two serving paths are distinguishable on one dashboard.
	classWireQuery
	classWireJoin
	classWireUpdate
	classWireCatalog
	nClasses
)

var classNames = [nClasses]string{"query", "join", "load", "update", "catalog", "other", "wire_query", "wire_join", "wire_update", "wire_catalog"}

// trackedCodes are the response codes the server emits; anything else
// lands in the trailing "other" bucket.
var trackedCodes = [...]int{200, 202, 400, 404, 405, 413, 415, 422, 429, 499, 500, 503}

func codeIndex(status int) int {
	for i, c := range trackedCodes {
		if c == status {
			return i
		}
	}
	return len(trackedCodes)
}

// dsCounters are the per-dataset engine-work counters, fed from request
// spans: cumulative box comparisons and replica emissions answered from
// one dataset.
type dsCounters struct {
	comparisons atomic.Int64
	replicas    atomic.Int64
}

func (c *dsCounters) add(sp *touch.Span) {
	if c == nil {
		return
	}
	c.comparisons.Add(sp.Comparisons)
	c.replicas.Add(sp.Replicas)
}

// metrics aggregates the server's observability counters: request and
// response totals per class, admission rejects by reason, the in-flight
// gauge and the duration histograms of /metrics.
type metrics struct {
	start    time.Time
	inFlight atomic.Int64

	requests  [nClasses]atomic.Int64
	responses [nClasses][len(trackedCodes) + 1]atomic.Int64
	// duration histograms every admitted request's wall time per class.
	duration [nClasses]promhist.Histogram
	// phase histograms engine phase wall times across all requests,
	// indexed by trace.Phase and fed from the per-request spans.
	phase [trace.NumPhases]promhist.Histogram

	// ds maps dataset name to its cumulative engine-work counters. The
	// read path resolves the pointer once per request (no allocation);
	// entries are never removed — a dropped dataset keeps its counters,
	// as Prometheus counters must never go backwards.
	dsMu sync.RWMutex
	ds   map[string]*dsCounters

	rejectOverload atomic.Int64
	rejectDraining atomic.Int64
	rejectTimeout  atomic.Int64
	// rejectCanceled counts computations aborted because the client went
	// away, rejectLimited those aborted by the buffered join's pair
	// cap — kept apart from rejectTimeout so dashboards can tell budget
	// blowouts from client behavior and from oversized result sets.
	rejectCanceled atomic.Int64
	rejectLimited  atomic.Int64

	// wireConns is the gauge of live binary-protocol connections
	// (handshake complete, not yet torn down).
	wireConns atomic.Int64
	// wireDepth histograms the pipeline depth observed as each binary
	// request starts executing (requests queued on the connection,
	// itself included): all-ones means the client is doing synchronous
	// round trips and paying a full RTT per query; deep buckets mean
	// pipelining is actually happening. One counter per bucket plus the
	// +Inf overflow, with the usual cumulative histogram rendering.
	wireDepth    [len(wireDepthBuckets) + 1]atomic.Int64
	wireDepthSum atomic.Int64
}

// wireDepthBuckets are the upper bounds of the pipeline-depth histogram
// buckets (a +Inf bucket follows implicitly).
var wireDepthBuckets = [...]int64{1, 2, 4, 8, 16, 32, 64}

func (m *metrics) observeWireDepth(depth int) {
	i := 0
	for i < len(wireDepthBuckets) && int64(depth) > wireDepthBuckets[i] {
		i++
	}
	m.wireDepth[i].Add(1)
	m.wireDepthSum.Add(int64(depth))
}

func newMetrics() *metrics {
	return &metrics{start: time.Now(), ds: make(map[string]*dsCounters)}
}

// observe records a finished request. Only admitted requests feed the
// duration histograms — admission rejects finish in microseconds and
// would mask real serving latency under overload.
func (m *metrics) observe(class, status int, d time.Duration, admitted bool) {
	m.responses[class][codeIndex(status)].Add(1)
	if admitted {
		m.duration[class].Observe(d)
	}
}

// observeSpan folds a finished request's span into the per-phase
// histograms. Phases the request never entered (zero duration) are not
// counted — each phase histogram's count is the number of requests that
// ran that phase.
func (m *metrics) observeSpan(sp *touch.Span) {
	for i, d := range sp.Durations {
		if d > 0 {
			m.phase[i].Observe(d)
		}
	}
}

// datasetCounters resolves (creating on first use) the per-dataset
// counters for a name. The read path is one RLock and a map lookup — no
// allocation, a []byte name does not escape.
func datasetCounters[S name](m *metrics, n S) *dsCounters {
	m.dsMu.RLock()
	c := m.ds[string(n)]
	m.dsMu.RUnlock()
	if c != nil {
		return c
	}
	m.dsMu.Lock()
	defer m.dsMu.Unlock()
	if c = m.ds[string(n)]; c == nil {
		c = &dsCounters{}
		m.ds[string(n)] = c
	}
	return c
}

// render writes the Prometheus text exposition. cat is read at scrape
// time for the dataset rows and the compaction counters; snapshotErrors
// is the cumulative persistence failure count.
func (m *metrics) render(w io.Writer, cat *catalog, snapshotErrors int64) {
	uptime := time.Since(m.start).Seconds()
	datasets := cat.list()

	fmt.Fprintf(w, "# TYPE touchserved_uptime_seconds gauge\n")
	fmt.Fprintf(w, "touchserved_uptime_seconds %g\n", uptime)
	fmt.Fprintf(w, "# TYPE touchserved_in_flight gauge\n")
	fmt.Fprintf(w, "touchserved_in_flight %d\n", m.inFlight.Load())

	fmt.Fprintf(w, "# TYPE touchserved_requests_total counter\n")
	for i := 0; i < nClasses; i++ {
		fmt.Fprintf(w, "touchserved_requests_total{class=%q} %d\n", classNames[i], m.requests[i].Load())
	}
	fmt.Fprintf(w, "# TYPE touchserved_responses_total counter\n")
	for i := 0; i < nClasses; i++ {
		for j, code := range trackedCodes {
			if n := m.responses[i][j].Load(); n > 0 {
				fmt.Fprintf(w, "touchserved_responses_total{class=%q,code=\"%d\"} %d\n", classNames[i], code, n)
			}
		}
		if n := m.responses[i][len(trackedCodes)].Load(); n > 0 {
			fmt.Fprintf(w, "touchserved_responses_total{class=%q,code=\"other\"} %d\n", classNames[i], n)
		}
	}

	fmt.Fprintf(w, "# TYPE touchserved_rejects_total counter\n")
	fmt.Fprintf(w, "touchserved_rejects_total{reason=\"overload\"} %d\n", m.rejectOverload.Load())
	fmt.Fprintf(w, "touchserved_rejects_total{reason=\"draining\"} %d\n", m.rejectDraining.Load())
	fmt.Fprintf(w, "touchserved_rejects_total{reason=\"timeout\"} %d\n", m.rejectTimeout.Load())
	fmt.Fprintf(w, "touchserved_rejects_total{reason=\"canceled\"} %d\n", m.rejectCanceled.Load())
	fmt.Fprintf(w, "touchserved_rejects_total{reason=\"limited\"} %d\n", m.rejectLimited.Load())

	// Fixed-bucket histograms per request class and per engine phase:
	// histogram_quantile over them gives any percentile, rate() over
	// touchserved_requests_total any throughput.
	fmt.Fprintf(w, "# TYPE touchserved_request_duration_seconds histogram\n")
	for i := 0; i < nClasses; i++ {
		m.duration[i].Render(w, "touchserved_request_duration_seconds",
			fmt.Sprintf("class=%q", classNames[i]))
	}
	fmt.Fprintf(w, "# TYPE touchserved_phase_duration_seconds histogram\n")
	for _, p := range trace.Phases() {
		m.phase[p].Render(w, "touchserved_phase_duration_seconds",
			fmt.Sprintf("phase=%q", p.Name()))
	}

	// Per-dataset engine work, fed from request spans: how much box
	// comparison and replication effort each dataset's traffic costs.
	m.dsMu.RLock()
	dsNames := make([]string, 0, len(m.ds))
	for name := range m.ds {
		dsNames = append(dsNames, name)
	}
	m.dsMu.RUnlock()
	slices.Sort(dsNames)
	fmt.Fprintf(w, "# TYPE touchserved_dataset_comparisons_total counter\n")
	for _, name := range dsNames {
		fmt.Fprintf(w, "touchserved_dataset_comparisons_total{dataset=%q} %d\n",
			name, datasetCounters(m, name).comparisons.Load())
	}
	fmt.Fprintf(w, "# TYPE touchserved_dataset_replicas_total counter\n")
	for _, name := range dsNames {
		fmt.Fprintf(w, "touchserved_dataset_replicas_total{dataset=%q} %d\n",
			name, datasetCounters(m, name).replicas.Load())
	}

	fmt.Fprintf(w, "# TYPE touchserved_wire_connections gauge\n")
	fmt.Fprintf(w, "touchserved_wire_connections %d\n", m.wireConns.Load())
	fmt.Fprintf(w, "# TYPE touchserved_wire_pipeline_depth histogram\n")
	cum := int64(0)
	for i, le := range wireDepthBuckets {
		cum += m.wireDepth[i].Load()
		fmt.Fprintf(w, "touchserved_wire_pipeline_depth_bucket{le=\"%d\"} %d\n", le, cum)
	}
	cum += m.wireDepth[len(wireDepthBuckets)].Load()
	fmt.Fprintf(w, "touchserved_wire_pipeline_depth_bucket{le=\"+Inf\"} %d\n", cum)
	fmt.Fprintf(w, "touchserved_wire_pipeline_depth_sum %d\n", m.wireDepthSum.Load())
	fmt.Fprintf(w, "touchserved_wire_pipeline_depth_count %d\n", cum)

	fmt.Fprintf(w, "# TYPE touchserved_datasets gauge\n")
	fmt.Fprintf(w, "touchserved_datasets %d\n", len(datasets))
	fmt.Fprintf(w, "# TYPE touchserved_dataset_static_bytes gauge\n")
	for _, d := range datasets {
		fmt.Fprintf(w, "touchserved_dataset_static_bytes{dataset=%q} %d\n", d.Name, d.StaticBytes)
	}
	fmt.Fprintf(w, "# TYPE touchserved_dataset_objects gauge\n")
	for _, d := range datasets {
		fmt.Fprintf(w, "touchserved_dataset_objects{dataset=%q} %d\n", d.Name, d.Objects)
	}

	// Incremental-update health: per-dataset index tiers and pending delta
	// sizes, and the cumulative compaction outcomes. A delta that only ever
	// grows means compaction is disabled or falling behind.
	fmt.Fprintf(w, "# TYPE touchserved_dataset_tiers gauge\n")
	for _, d := range datasets {
		fmt.Fprintf(w, "touchserved_dataset_tiers{dataset=%q} %d\n", d.Name, d.tiers)
	}
	fmt.Fprintf(w, "# TYPE touchserved_delta_inserts gauge\n")
	for _, d := range datasets {
		if d.DeltaInserts > 0 {
			fmt.Fprintf(w, "touchserved_delta_inserts{dataset=%q} %d\n", d.Name, d.DeltaInserts)
		}
	}
	fmt.Fprintf(w, "# TYPE touchserved_delta_tombstones gauge\n")
	for _, d := range datasets {
		if d.DeltaTombstones > 0 {
			fmt.Fprintf(w, "touchserved_delta_tombstones{dataset=%q} %d\n", d.Name, d.DeltaTombstones)
		}
	}
	// The high-water mark survives the folds that empty the gauges above:
	// how far updates outran compaction, without sampling at the right
	// moment.
	fmt.Fprintf(w, "# TYPE touchserved_delta_pending_max gauge\n")
	for _, d := range datasets {
		if d.deltaPendingMax > 0 {
			fmt.Fprintf(w, "touchserved_delta_pending_max{dataset=%q} %d\n", d.Name, d.deltaPendingMax)
		}
	}
	fmt.Fprintf(w, "# TYPE touchserved_compactions_in_flight gauge\n")
	fmt.Fprintf(w, "touchserved_compactions_in_flight %d\n", cat.compactionsInFlight.Load())
	fmt.Fprintf(w, "# TYPE touchserved_compactions_total counter\n")
	fmt.Fprintf(w, "touchserved_compactions_total{outcome=\"published\"} %d\n", cat.compactions.Load())
	fmt.Fprintf(w, "touchserved_compactions_total{outcome=\"skipped\"} %d\n", cat.compactionsSkipped.Load())
	// Objects written into new trees by published folds: over the inserts
	// accepted, the write amplification.
	fmt.Fprintf(w, "# TYPE touchserved_compaction_objects_total counter\n")
	fmt.Fprintf(w, "touchserved_compaction_objects_total %d\n", cat.compactionObjects.Load())
	fmt.Fprintf(w, "# TYPE touchserved_compaction_seconds histogram\n")
	cat.compactionTime.Render(w, "touchserved_compaction_seconds", "")

	// Snapshot health: failed persistence operations, and which datasets
	// are durably on disk — a persisted=0 dataset on a server with a
	// data dir is ephemeral and a restart loses it.
	fmt.Fprintf(w, "# TYPE touchserved_snapshot_errors_total counter\n")
	fmt.Fprintf(w, "touchserved_snapshot_errors_total %d\n", snapshotErrors)
	fmt.Fprintf(w, "# TYPE touchserved_dataset_persisted gauge\n")
	for _, d := range datasets {
		persisted := 0
		if d.Persisted {
			persisted = 1
		}
		fmt.Fprintf(w, "touchserved_dataset_persisted{dataset=%q} %d\n", d.Name, persisted)
	}
	fmt.Fprintf(w, "# TYPE touchserved_snapshot_bytes gauge\n")
	for _, d := range datasets {
		if d.Persisted {
			fmt.Fprintf(w, "touchserved_snapshot_bytes{dataset=%q} %d\n", d.Name, d.SnapshotBytes)
		}
	}
}
