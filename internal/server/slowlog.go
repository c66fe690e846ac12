package server

import (
	"fmt"
	"io"
	"sync"
	"time"

	"touch"
	"touch/internal/api"
	"touch/internal/trace"
)

// slowLogSize is how many recent slow requests the forensic ring keeps.
// Bounded and small: the slow log is a flight recorder for "what was
// slow just now", not a durable audit trail.
const slowLogSize = 128

// slowEntry is one recorded slow request: identity, outcome, and the
// full engine span — everything needed to explain the latency after the
// fact.
type slowEntry struct {
	Class    string
	Status   int
	Duration time.Duration
	At       time.Time
	Span     touch.Span
}

// slowLog is a bounded ring of the most recent requests that exceeded
// the configured threshold. Writers copy the entry in under a mutex —
// slow requests are rare by definition, so contention is a non-issue.
type slowLog struct {
	threshold time.Duration

	mu   sync.Mutex
	ring [slowLogSize]slowEntry
	n    int64 // total recorded; ring[(n-1)%slowLogSize] is the newest
}

func (l *slowLog) note(class string, status int, d time.Duration, at time.Time, sp *touch.Span) {
	l.mu.Lock()
	l.ring[l.n%slowLogSize] = slowEntry{
		Class: class, Status: status, Duration: d, At: at, Span: *sp,
	}
	l.n++
	l.mu.Unlock()
}

// snapshot returns the recorded entries, newest first, plus the total
// ever recorded (total - len(entries) have been evicted).
func (l *slowLog) snapshot() (entries []slowEntry, total int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := l.n
	if n > slowLogSize {
		n = slowLogSize
	}
	entries = make([]slowEntry, 0, n)
	for i := int64(1); i <= n; i++ {
		entries = append(entries, l.ring[(l.n-i)%slowLogSize])
	}
	return entries, l.n
}

// noteSlow records a finished request in the slow log when it exceeded
// the threshold; shared by the HTTP and wire completion paths. The span
// gets a request ID here if nothing assigned one earlier — a slow
// request must be nameable in a bug report.
func (s *Server) noteSlow(sp *touch.Span, class, status int, d time.Duration) {
	if s.slow == nil || d < s.slow.threshold {
		return
	}
	if sp.RequestID == "" {
		sp.RequestID = nextRequestID()
	}
	s.slow.note(classNames[class], status, d, time.Now(), sp)
	s.logger().Warn("slow request",
		"id", sp.RequestID, "class", classNames[class], "status", status,
		"duration_ms", float64(d)/1e6,
		"comparisons", sp.Comparisons, "results", sp.Results)
}

// slowEntryJSON is the /debug/slowlog wire form of one entry: the
// request's outcome under the entry's own "id" key, then its span in the
// X-Touch-Trace form.
type slowEntryJSON struct {
	ID         string    `json:"id"`
	Class      string    `json:"class"`
	Status     int       `json:"status"`
	DurationMs float64   `json:"duration_ms"`
	At         time.Time `json:"at"`
	*api.Trace
}

func slowEntryToJSON(e slowEntry) slowEntryJSON {
	return slowEntryJSON{
		ID: e.Span.RequestID, Class: e.Class, Status: e.Status,
		DurationMs: float64(e.Duration) / 1e6, At: e.At,
		Trace: api.NewTrace(&e.Span),
	}
}

// DumpSlowLog writes the slow-query log as human-readable lines, newest
// first, returning how many entries were written — the SIGUSR1 dump
// target in cmd/touchserved. A nil (disabled) slow log writes a header
// saying so.
func (s *Server) DumpSlowLog(w io.Writer) int {
	if s.slow == nil {
		fmt.Fprintln(w, "slowlog: disabled (set -slow-query-ms)")
		return 0
	}
	entries, total := s.slow.snapshot()
	fmt.Fprintf(w, "slowlog: %d entries kept of %d recorded (threshold %v)\n",
		len(entries), total, s.slow.threshold)
	for _, e := range entries {
		fmt.Fprintf(w, "%s id=%s class=%s status=%d duration=%v comparisons=%d results=%d cancel=%s",
			e.At.Format(time.RFC3339Nano), e.Span.RequestID, e.Class, e.Status, e.Duration,
			e.Span.Comparisons, e.Span.Results, trace.CancelName(e.Span.Cancel))
		for _, p := range trace.Phases() {
			if d := e.Span.Durations[p]; d > 0 {
				fmt.Fprintf(w, " %s=%v", p.Name(), d)
			}
		}
		fmt.Fprintln(w)
	}
	return len(entries)
}
