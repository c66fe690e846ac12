package promhist_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"touch/internal/promhist"
	"touch/internal/promtext"
)

// TestHistogramRenderParses holds Render's output to what a real
// Prometheus ingester enforces: parseable text, cumulative buckets, a
// +Inf bucket equal to _count, and a sum consistent with what was fed.
func TestHistogramRenderParses(t *testing.T) {
	var h promhist.Histogram
	durations := []time.Duration{
		500 * time.Nanosecond, // below the first bound
		3 * time.Microsecond,
		40 * time.Millisecond,
		2 * time.Second,
		90 * time.Second, // past the last finite bound: +Inf territory
	}
	var sum time.Duration
	for _, d := range durations {
		h.Observe(d)
		sum += d
	}
	if got := h.Count(); got != int64(len(durations)) {
		t.Fatalf("Count = %d, want %d", got, len(durations))
	}

	var buf bytes.Buffer
	fmt.Fprintf(&buf, "# TYPE t_seconds histogram\n")
	h.Render(&buf, "t_seconds", `class="q"`)
	m, err := promtext.Parse(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Render output is not valid Prometheus text: %v\n%s", err, buf.Bytes())
	}
	fam := m.Families["t_seconds"]
	if fam == nil || fam.Type != "histogram" {
		t.Fatalf("family t_seconds missing or wrong type: %+v", fam)
	}

	// Buckets must be cumulative and the +Inf bucket must equal _count.
	prev := -1.0
	var inf, count float64
	for _, s := range fam.Samples {
		switch {
		case strings.HasSuffix(s.Name, "_bucket"):
			if s.Value < prev {
				t.Fatalf("bucket le=%q not cumulative: %g after %g", s.Labels["le"], s.Value, prev)
			}
			prev = s.Value
			if s.Labels["le"] == "+Inf" {
				inf = s.Value
			}
		case strings.HasSuffix(s.Name, "_count"):
			count = s.Value
		case strings.HasSuffix(s.Name, "_sum"):
			if want := sum.Seconds(); s.Value < want*0.999 || s.Value > want*1.001 {
				t.Fatalf("sum = %g, want ~%g", s.Value, want)
			}
		}
	}
	if inf != float64(len(durations)) || count != inf {
		t.Fatalf("+Inf bucket %g / count %g, want both %d", inf, count, len(durations))
	}
}
