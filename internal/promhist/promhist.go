// Package promhist provides the fixed-bucket duration histogram shared
// by every Prometheus text exposition in this repo (touchserved's
// /metrics, touchrouter's /metrics). One bucket layout everywhere means
// histograms aggregate correctly across processes and tiers: a router
// latency curve and a backend latency curve can be summed, subtracted
// and histogram_quantile'd against each other without resampling.
package promhist

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"
)

// buckets are the shared upper bounds (seconds) of every duration
// histogram: log-spaced from 1µs to 30s, covering microsecond query
// phases and multi-second joins in one fixed layout. Fixed buckets —
// unlike sampled quantile rings — aggregate correctly across instances
// and over time in Prometheus.
var buckets = [...]float64{
	1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5,
	1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3,
	1e-2, 2.5e-2, 5e-2, 1e-1, 2.5e-1, 5e-1,
	1, 2.5, 5, 10, 30,
}

// bucketsNs mirrors buckets in integer nanoseconds so the Observe hot
// path compares without float conversion.
var bucketsNs = func() [len(buckets)]int64 {
	var ns [len(buckets)]int64
	for i, s := range buckets {
		ns[i] = int64(s * 1e9)
	}
	return ns
}()

// NumBuckets is the number of finite buckets; the +Inf overflow bucket
// follows implicitly.
const NumBuckets = len(buckets)

// Histogram is a fixed-bucket duration histogram: one atomic counter
// per bucket plus the +Inf overflow, the observation sum and count.
// Observe is wait-free; render reads are torn at worst by one in-flight
// observation. The zero value is ready to use; a Histogram must not be
// copied after first use.
type Histogram struct {
	buckets [NumBuckets + 1]atomic.Int64
	sumNs   atomic.Int64
	count   atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	ns := int64(d)
	i := 0
	for i < len(bucketsNs) && ns > bucketsNs[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.sumNs.Add(ns)
	h.count.Add(1)
}

// Count reports the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Render writes one histogram family member's bucket/sum/count lines.
// labels is the rendered label pairs without braces ("class=\"query\""),
// empty for a family of one; the caller writes the # TYPE header once
// per family.
func (h *Histogram) Render(w io.Writer, name, labels string) {
	sep := ","
	if labels == "" {
		sep = ""
	}
	cum := int64(0)
	for i, le := range buckets {
		cum += h.buckets[i].Load()
		fmt.Fprintf(w, "%s_bucket{%s%sle=\"%g\"} %d\n", name, labels, sep, le, cum)
	}
	cum += h.buckets[len(buckets)].Load()
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, cum)
	fmt.Fprintf(w, "%s_sum{%s} %g\n", name, labels, float64(h.sumNs.Load())/1e9)
	fmt.Fprintf(w, "%s_count{%s} %d\n", name, labels, cum)
}
