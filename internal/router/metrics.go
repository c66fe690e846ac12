package router

import (
	"fmt"
	"io"
	"sort"
	"sync/atomic"
	"time"
)

// Request classes for touchrouter_requests_total. Both fronts (HTTP and
// wire) feed the same counters — the router's job is fan-out, and its
// load is best read per operation kind, not per transport.
const (
	rcQuery = iota
	rcJoin
	rcUpdate
	rcCatalog
	nRC
)

var rcNames = [nRC]string{"query", "join", "update", "catalog"}

// routerMetrics is the router's observability surface, rendered in
// Prometheus text form by RenderMetrics. Same conventions as
// touchserved's /metrics: hand-rendered families, fixed-bucket
// histograms from internal/promhist so router and backend latency
// curves aggregate against each other.
type routerMetrics struct {
	start time.Time

	requests [nRC]atomic.Int64

	// failovers counts reads moved on to a further ring owner because
	// the preceding one left them unanswered (a dead connection, a
	// "draining" reply): one per read, so a coalesced burst that fails
	// over counts each read it moves.
	failovers atomic.Int64
	// ejections and reinstatements count health-state transitions; their
	// difference bounds how often the ring flapped.
	ejections      atomic.Int64
	reinstatements atomic.Int64

	// wireConns gauges live wire-front connections.
	wireConns atomic.Int64
}

// RenderMetrics writes the router's Prometheus text exposition:
// uptime, per-class request counters, the per-backend ring state
// (the touchrouter_backend_healthy family IS the live ring view:
// one series per backend, labeled with its advertised node ID and
// configured address), per-backend request/error counters and latency
// histograms, and the failover/ejection/reinstatement counters.
func (rt *Router) RenderMetrics(w io.Writer) {
	m := &rt.met
	fmt.Fprintf(w, "# TYPE touchrouter_uptime_seconds gauge\n")
	fmt.Fprintf(w, "touchrouter_uptime_seconds %g\n", time.Since(m.start).Seconds())

	fmt.Fprintf(w, "# TYPE touchrouter_requests_total counter\n")
	for i := 0; i < nRC; i++ {
		fmt.Fprintf(w, "touchrouter_requests_total{class=%q} %d\n", rcNames[i], m.requests[i].Load())
	}

	addrs := rt.ring.Nodes()
	fmt.Fprintf(w, "# TYPE touchrouter_backends gauge\n")
	fmt.Fprintf(w, "touchrouter_backends %d\n", len(addrs))
	fmt.Fprintf(w, "# TYPE touchrouter_replication gauge\n")
	fmt.Fprintf(w, "touchrouter_replication %d\n", rt.cfg.Replication)

	// Per-backend series carry both labels: backend (the node ID the
	// replica advertised, stable across address changes) and addr (the
	// configured dial address, stable before the first probe learns the
	// ID). Sorted by address so scrapes diff cleanly.
	sorted := make([]*backend, 0, len(addrs))
	for _, a := range addrs {
		sorted = append(sorted, rt.backends[a])
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].addr < sorted[j].addr })

	fmt.Fprintf(w, "# TYPE touchrouter_backend_healthy gauge\n")
	for _, b := range sorted {
		h := 0
		if b.healthy.Load() {
			h = 1
		}
		fmt.Fprintf(w, "touchrouter_backend_healthy{backend=%q,addr=%q} %d\n", b.ID(), b.addr, h)
	}
	fmt.Fprintf(w, "# TYPE touchrouter_backend_requests_total counter\n")
	for _, b := range sorted {
		fmt.Fprintf(w, "touchrouter_backend_requests_total{backend=%q,addr=%q} %d\n", b.ID(), b.addr, b.requests.Load())
	}
	fmt.Fprintf(w, "# TYPE touchrouter_backend_errors_total counter\n")
	for _, b := range sorted {
		fmt.Fprintf(w, "touchrouter_backend_errors_total{backend=%q,addr=%q} %d\n", b.ID(), b.addr, b.errs.Load())
	}
	fmt.Fprintf(w, "# TYPE touchrouter_backend_latency_seconds histogram\n")
	for _, b := range sorted {
		b.latency.Render(w, "touchrouter_backend_latency_seconds",
			fmt.Sprintf("backend=%q,addr=%q", b.ID(), b.addr))
	}

	fmt.Fprintf(w, "# TYPE touchrouter_failovers_total counter\n")
	fmt.Fprintf(w, "touchrouter_failovers_total %d\n", m.failovers.Load())
	fmt.Fprintf(w, "# TYPE touchrouter_ejections_total counter\n")
	fmt.Fprintf(w, "touchrouter_ejections_total %d\n", m.ejections.Load())
	fmt.Fprintf(w, "# TYPE touchrouter_reinstatements_total counter\n")
	fmt.Fprintf(w, "touchrouter_reinstatements_total %d\n", m.reinstatements.Load())

	fmt.Fprintf(w, "# TYPE touchrouter_wire_connections gauge\n")
	fmt.Fprintf(w, "touchrouter_wire_connections %d\n", m.wireConns.Load())
}
