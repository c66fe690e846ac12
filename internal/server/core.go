package server

// The transport-neutral execute core. Both codecs — JSON over HTTP
// (server.go) and binary frames (bin.go) — decode a request into the
// internal/api vocabulary, call in here, and encode what comes back:
//
//	arrive → begin ─ admission ─→ resolve / runQuery / update / prepareJoin+join → finish
//
// Everything a request can fail with leaves as a typed *api.Error, which
// HTTP writes as the JSON error body under the code's status and the
// wire path as an error frame; the status also classifies the request in
// the metrics either way.

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

// runQuery answers one range, point or kNN query from snap. Single-probe
// queries run in microseconds, so the budget is only checked at the
// boundary — a request whose budget is already gone (it spent it
// queueing upstream, or the client left) skips the work.
func (s *Server) runQuery(ctx context.Context, rq *request, snap *snapshot, q *api.Query) (ids []touch.ID, nbrs []touch.Neighbor, e *api.Error) {
	s.hook(ctx)
	if ctx.Err() != nil {
		return nil, nil, s.aborted(ctx)
	}
	var err error
	switch eng := snap.ov; q.Type {
	case api.TypeRange:
		ids, err = eng.RangeQueryTraced(q.Box, &rq.span)
	case api.TypePoint:
		ids, err = eng.PointQueryTraced(q.Point[0], q.Point[1], q.Point[2], &rq.span)
	default:
		nbrs, err = eng.KNNTraced(q.Point, q.K, &rq.span)
	}
	if err != nil {
		return nil, nil, api.EngineError(err)
	}
	return ids, nbrs, nil
}

// update applies one batch of deletes-then-inserts to the named
// dataset, published atomically against the serving snapshot.
func (s *Server) update(ctx context.Context, dataset string, inserts []touch.Box, deletes []touch.ID) (updResult, *api.Error) {
	if len(inserts) == 0 && len(deletes) == 0 {
		return updResult{}, api.Errorf(api.CodeBadRequest, "update needs insert rows or delete IDs")
	}
	// Validate through the same hardening as a load; the validated
	// dataset is discarded — applyUpdate assigns the real IDs.
	if _, err := touch.DatasetFromBoxes(inserts); err != nil {
		return updResult{}, api.EngineError(err)
	}
	if ctx.Err() != nil {
		return updResult{}, s.aborted(ctx)
	}
	res, st := s.cat.applyUpdate(dataset, inserts, deletes)
	switch st {
	case updUnknown:
		return res, api.Errorf(api.CodeUnknownDataset, "dataset %q not loaded", dataset)
	case updBuilding:
		return res, api.Errorf(api.CodeBuilding, "dataset %q is still building its first index version", dataset)
	case updOverflow:
		return res, api.Errorf(api.CodeIDExhausted,
			"inserting %d objects would exhaust the dataset's object ID space", len(inserts))
	}
	return res, nil
}

// joinPlan is a join with both sides resolved.
type joinPlan struct {
	snap         *snapshot
	probe        touch.Dataset
	probeVersion int64 // serving version of a named probe; 0 for an inline one
	workers      int
}

// prepareJoin completes a join against snap: it resolves the probe side
// — the inline boxes when non-nil, the named dataset otherwise — and
// settles the worker count.
func prepareJoin[S name](s *Server, rq *request, snap *snapshot, probeName S, inline []touch.Box, workers int) (joinPlan, *api.Error) {
	p := joinPlan{snap: snap}
	if inline == nil {
		probe, e := resolve(s, rq, probeName)
		if e != nil {
			return p, e
		}
		// dataset() folds the probe's pending updates in, so a named
		// probe joins with the same merged state its own queries see.
		p.probe, p.probeVersion = probe.dataset(), probe.version
	} else {
		var err error
		if p.probe, err = touch.DatasetFromBoxes(inline); err != nil {
			return p, api.EngineError(err)
		}
	}
	if p.workers = clampWorkers(workers); p.workers <= 0 {
		p.workers = s.cfg.Workers
	}
	return p, nil
}

// join runs one join of the plan, delivering as opt says — Result.Pairs,
// a count (NoPairs) or a streaming Sink, under opt.Limit — with the
// plan's workers and the request's trace. ε = 0 is the plain
// intersection join: Dataset.Expand(0) is the identity, so there is no
// expansion copy to skip, on either protocol.
func (s *Server) join(ctx context.Context, rq *request, p joinPlan, eps float64, opt touch.Options) (*touch.Result, *api.Error) {
	opt.Workers, opt.Trace = p.workers, &rq.span
	res, err := p.snap.ov.DistanceJoinCtx(ctx, p.probe, eps, &opt)
	if err != nil {
		return nil, s.joinError(ctx, err)
	}
	return res, nil
}

// joinError maps a failed join: a cancellation through aborted, anything
// else through the engine's typed errors.
func (s *Server) joinError(ctx context.Context, err error) *api.Error {
	if errors.Is(err, touch.ErrJoinCanceled) {
		return s.aborted(ctx)
	}
	return api.EngineError(err)
}
