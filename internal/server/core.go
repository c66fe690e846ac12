package server

// The transport-neutral request lifecycle, around the frame executor
// (exec, in bin.go) that runs the wire listener's requests and the HTTP
// front's alike:
//
//	arrive → begin ─ admission ─→ exec: resolve, the engine call → finish
//
// Everything a request can fail with leaves as a typed *api.Error, which
// goes back as an error frame — the HTTP front writes it as the JSON
// error body under the code's status; the status also classifies the
// request in the metrics either way.

import (
	"context"
	"errors"
	"time"

	"touch"
	"touch/internal/api"
	"touch/internal/trace"
)

// request is the accounting state of one request on either transport.
// The HTTP path allocates one per request; a wire connection reuses one,
// so its steady pipeline allocates nothing here.
type request struct {
	class int
	// start is when the transport began working on the request; the
	// duration histograms and the slow log measure from it.
	start time.Time
	// slot: the request holds one of the MaxInFlight slots — claimed by
	// begin, or beforehand by a wire reader about to execute the request
	// itself (see binConn.readLoop); finish gives it back either way.
	slot     bool
	admitted bool
	// span is the request's trace. Its RequestID is set up front on HTTP
	// and lazily on the wire — only when a request is traced, slow, or
	// fails.
	span touch.Span
	// traced: the request asked for its span back as an OpTrace frame —
	// every HTTP request does, a wire request by its payload's flag.
	traced bool
	// ds is the per-dataset counter cell of the dataset the request
	// answered from, set by its first resolve.
	ds *dsCounters
}

// name is a dataset name as a codec holds it: a string cut from the URL
// path, or bytes aliasing a wire frame. Lookups keyed by string(n)
// compile to a copy-free map access for both, which keeps the wire query
// path allocation-free.
type name interface{ ~string | ~[]byte }

// arrive starts the accounting of one request.
func (s *Server) arrive(rq *request, class int) {
	*rq = request{class: class, start: time.Now()}
	s.met.requests[class].Add(1)
}

// begin is admission control: it rejects during drain and claims one of
// the MaxInFlight slots, which finish gives back. The two transports
// differ, deliberately, in what a full house means. HTTP passes a nil
// wait and is refused at once with overload — an unbounded queue of
// parked handlers is what admission exists to prevent. The wire path
// passes its connection's Done channel and waits for a slot: its frames
// were already accepted into the connection's bounded queue, and that
// queue plus TCP backpressure bound the waiting work, so degrading into
// queueing (like a connection pool does) beats failing hundreds of
// pipelined requests at once. arrived is when the request reached the
// server — the wire's enqueue time — so queue wait plus slot wait is
// the request's admission phase.
func (s *Server) begin(rq *request, arrived time.Time, wait <-chan struct{}) *api.Error {
	if s.draining.Load() {
		s.met.rejectDraining.Add(1)
		return api.Errorf(api.CodeDraining, "server is draining for shutdown")
	}
	if !rq.slot && !s.claimSlot() {
		if wait == nil {
			s.met.rejectOverload.Add(1)
			return api.Errorf(api.CodeOverload, "server at its %d-request in-flight cap", s.cfg.MaxInFlight)
		}
		select {
		case s.slots <- struct{}{}:
		case <-wait:
			// Connection torn down while waiting; the answer goes nowhere.
			s.met.rejectCanceled.Add(1)
			return api.Errorf(api.CodeClientClosed, "connection closed while waiting for an admission slot")
		}
	}
	rq.slot = true
	rq.span.Add(trace.PhaseAdmission, time.Since(arrived))
	s.met.inFlight.Add(1)
	rq.admitted = true
	return nil
}

// claimSlot takes an admission slot if one is free, without waiting.
func (s *Server) claimSlot() bool {
	select {
	case s.slots <- struct{}{}:
		return true
	default:
		return false
	}
}

// finish is the one completion hook: it frees the admission slot and
// records the outcome — response counters, and for admitted requests the
// duration and phase histograms, the per-dataset engine counters, the
// slow log and the failure log. The slot is held exactly for the
// handler's lifetime: a canceled request's engine work aborts
// cooperatively inside the handler, so there is no abandoned computation
// for the slot to follow.
func (s *Server) finish(rq *request, status int) {
	if rq.slot {
		<-s.slots
	}
	if rq.admitted {
		s.met.inFlight.Add(-1)
	}
	d := time.Since(rq.start)
	// Duration histograms only see admitted requests: microsecond-fast
	// 429s and drain rejections would otherwise drag the reported p50/p99
	// toward zero exactly when the server is overloaded.
	s.met.observe(rq.class, status, d, rq.admitted)
	if !rq.admitted {
		return
	}
	s.met.observeSpan(&rq.span)
	rq.ds.add(&rq.span)
	s.noteSlow(&rq.span, rq.class, status, d)
	if status < 400 {
		return
	}
	// A failed request must be nameable in a bug report.
	if rq.span.RequestID == "" {
		rq.span.RequestID = nextRequestID()
	}
	if status >= 500 {
		s.logger().Error("request failed",
			"id", rq.span.RequestID, "class", classNames[rq.class], "status", status,
			"duration_ms", float64(d)/1e6)
	} else {
		s.logger().Debug("request rejected",
			"id", rq.span.RequestID, "class", classNames[rq.class], "status", status)
	}
}

// resolve returns the snapshot a request answers from, or the
// unknown-dataset / still-building error when there is none.
func resolve[S name](s *Server, rq *request, n S) (*snapshot, *api.Error) {
	snap, exists := snapshotOf(s.cat, n)
	switch {
	case !exists:
		return nil, api.Errorf(api.CodeUnknownDataset, "dataset %q not loaded", n)
	case snap == nil:
		return nil, api.Errorf(api.CodeBuilding, "dataset %q is still building its first index version", n)
	}
	if rq.ds == nil {
		rq.ds = datasetCounters(s.met, n)
	}
	return snap, nil
}

// timedOut answers a request that ran out of its processing budget.
func (s *Server) timedOut() *api.Error {
	s.met.rejectTimeout.Add(1)
	return api.Errorf(api.CodeTimeout, "request exceeded the %v processing budget", s.cfg.RequestTimeout)
}

// aborted classifies a canceled computation — one place for the
// deadline-vs-disconnect distinction, for the reject metrics and the
// answer alike. A deadline expiry is the server's own timeout; anything
// else means the client canceled or hung up, and the client_closed
// answer is written for the metrics' sake, since nobody reads it.
func (s *Server) aborted(ctx context.Context) *api.Error {
	if errors.Is(context.Cause(ctx), context.DeadlineExceeded) {
		return s.timedOut()
	}
	s.met.rejectCanceled.Add(1)
	return api.Errorf(api.CodeClientClosed, "request canceled by client")
}

// hook runs the test hook, if any, under the request's context.
func (s *Server) hook(ctx context.Context) {
	if hook := s.testHookWorker; hook != nil {
		hook(ctx)
	}
}
