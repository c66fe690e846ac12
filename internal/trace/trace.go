// Package trace carries per-request observability state through the
// engine: a Span records where one request spent its time (phase
// durations) and what the engine did on its behalf (comparison,
// replication and traversal counters already maintained by
// internal/stats). The design constraint is that tracing must cost
// nothing when disabled — every method on *Span is a no-op on a nil
// receiver, so hot paths thread a possibly-nil span without branching
// at the call site and without allocating.
package trace

import (
	"time"

	"touch/internal/stats"
)

// Phase identifies one timed segment of a request's life. The serving
// layer records admission/decode/encode; the engine records
// assign/join/query; the overlay path records overlay/delta.
type Phase int

const (
	// PhaseAdmission is time spent waiting for an admission slot (and,
	// on the wire path, in the per-connection request queue).
	PhaseAdmission Phase = iota
	// PhaseDecode is request decoding: JSON body or wire frame parsing,
	// including probe dataset materialization.
	PhaseDecode
	// PhaseAssign is the TOUCH B-assignment phase (tree descent placing
	// probe objects on their lowest enclosing node).
	PhaseAssign
	// PhaseJoin is the local-join phase (per-node grid joins).
	PhaseJoin
	// PhaseQuery is single-probe tree descent (range/point/kNN).
	PhaseQuery
	// PhaseOverlay is merge work against the delta layer: tombstone
	// filtering and result merging.
	PhaseOverlay
	// PhaseDelta is the read of the pending inserts: a single probe's
	// scan of them, or the build of the tree a join joins them through.
	PhaseDelta
	// PhaseEncode is response materialization: pair sorting, JSON or
	// wire frame encoding.
	PhaseEncode

	// NumPhases is the number of defined phases; spans size their phase
	// array with it.
	NumPhases
)

// phaseNames indexes Phase; keep in sync with the constants above.
var phaseNames = [NumPhases]string{
	"admission", "decode", "assign", "join", "query", "overlay", "delta", "encode",
}

// Name returns the stable lowercase identifier of the phase, used as
// the Prometheus label value and the JSON field name.
func (p Phase) Name() string {
	if p < 0 || p >= NumPhases {
		return "unknown"
	}
	return phaseNames[p]
}

// Phases lists every phase in declaration order.
func Phases() [NumPhases]Phase {
	var ps [NumPhases]Phase
	for i := range ps {
		ps[i] = Phase(i)
	}
	return ps
}

// Span is the per-request trace record. The zero value is ready to
// use; a nil *Span disables tracing (all methods no-op), which is how
// the engine runs when no caller asked for a trace.
type Span struct {
	// RequestID is the server-assigned identifier of the request this
	// span belongs to; empty for in-process library use.
	RequestID string

	// Durations holds the accumulated time per phase.
	Durations [NumPhases]time.Duration

	// Engine counters, copied from the stats the engine already
	// maintains: see stats.Counters for semantics.
	Comparisons int64 // candidate pairs tested
	NodeTests   int64 // tree nodes visited
	Filtered    int64 // candidates rejected by the ε-filter
	Results     int64 // pairs/objects produced
	Replicas    int64 // probe objects replicated during assignment

	// Cancel is the stats cancel cause observed when the request
	// finished (stats.CauseNone when it ran to completion).
	Cancel int32
}

// Add accumulates d into phase p. No-op on a nil span or an
// out-of-range phase.
func (s *Span) Add(p Phase, d time.Duration) {
	if s == nil || p < 0 || p >= NumPhases {
		return
	}
	s.Durations[p] += d
}

// Record folds the engine counters of one finished run into the span,
// attributing the already-measured assignment and join wall time to
// their phases. Counters accumulate, so a request that runs several
// engine calls (overlay base + delta pass) sums naturally.
func (s *Span) Record(c *stats.Counters) {
	if s == nil || c == nil {
		return
	}
	s.Comparisons += c.Comparisons
	s.NodeTests += c.NodeTests
	s.Filtered += c.Filtered
	s.Results += c.Results
	s.Replicas += c.Replicas
	s.Durations[PhaseAssign] += c.AssignTime
	s.Durations[PhaseJoin] += c.JoinTime
}

// SetCancel records the cancel cause (stats.CauseNone/CauseContext/
// CauseStop). No-op on a nil span.
func (s *Span) SetCancel(cause int32) {
	if s == nil {
		return
	}
	s.Cancel = cause
}

// Total returns the sum of all phase durations.
func (s *Span) Total() time.Duration {
	if s == nil {
		return 0
	}
	var t time.Duration
	for _, d := range s.Durations {
		t += d
	}
	return t
}

// CancelName returns the stable identifier of a stats cancel cause.
func CancelName(cause int32) string {
	switch cause {
	case stats.CauseNone:
		return "none"
	case stats.CauseContext:
		return "context"
	case stats.CauseStop:
		return "stop"
	default:
		return "unknown"
	}
}
