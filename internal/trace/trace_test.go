package trace

import (
	"testing"
	"time"

	"touch/internal/stats"
)

func TestNilSpanIsSafe(t *testing.T) {
	var s *Span
	s.Add(PhaseJoin, time.Second)
	s.Record(&stats.Counters{Comparisons: 10})
	s.SetCancel(stats.CauseStop)
	if s.Total() != 0 {
		t.Fatalf("nil span total = %v, want 0", s.Total())
	}
}

func TestNilSpanAllocationFree(t *testing.T) {
	var s *Span
	c := &stats.Counters{Comparisons: 3, AssignTime: time.Millisecond}
	allocs := testing.AllocsPerRun(100, func() {
		s.Add(PhaseAssign, time.Millisecond)
		s.Record(c)
		s.SetCancel(stats.CauseNone)
	})
	if allocs != 0 {
		t.Fatalf("nil span methods allocated %.1f/op, want 0", allocs)
	}
}

func TestRecordAccumulates(t *testing.T) {
	var s Span
	s.Record(&stats.Counters{
		Comparisons: 100, NodeTests: 20, Filtered: 30, Results: 7, Replicas: 4,
		AssignTime: 2 * time.Millisecond, JoinTime: 5 * time.Millisecond,
	})
	s.Record(&stats.Counters{Comparisons: 1, JoinTime: time.Millisecond})
	if s.Comparisons != 101 || s.NodeTests != 20 || s.Filtered != 30 || s.Results != 7 || s.Replicas != 4 {
		t.Fatalf("counters not accumulated: %+v", s)
	}
	if s.Durations[PhaseAssign] != 2*time.Millisecond {
		t.Fatalf("assign = %v", s.Durations[PhaseAssign])
	}
	if s.Durations[PhaseJoin] != 6*time.Millisecond {
		t.Fatalf("join = %v", s.Durations[PhaseJoin])
	}
	s.Add(PhaseDecode, time.Millisecond)
	if got, want := s.Total(), 9*time.Millisecond; got != want {
		t.Fatalf("total = %v, want %v", got, want)
	}
}

func TestPhaseNames(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range Phases() {
		n := p.Name()
		if n == "" || n == "unknown" {
			t.Fatalf("phase %d has no name", p)
		}
		if seen[n] {
			t.Fatalf("duplicate phase name %q", n)
		}
		seen[n] = true
	}
	if Phase(-1).Name() != "unknown" || Phase(NumPhases).Name() != "unknown" {
		t.Fatal("out-of-range phases must name as unknown")
	}
}

func TestCancelNames(t *testing.T) {
	cases := map[int32]string{
		stats.CauseNone:    "none",
		stats.CauseContext: "context",
		stats.CauseStop:    "stop",
		99:                 "unknown",
	}
	for cause, want := range cases {
		if got := CancelName(cause); got != want {
			t.Fatalf("CancelName(%d) = %q, want %q", cause, got, want)
		}
	}
}
