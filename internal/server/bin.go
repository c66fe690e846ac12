package server

// The binary protocol listener: the fast lane next to the HTTP handler.
// Frames (see internal/wire) arrive on persistent connections and are
// dispatched onto the same catalog, admission slots, deadlines and
// metrics as HTTP requests — the protocol changes, the server doesn't.
//
// Per connection there are two goroutines. The reader decodes frames
// and enqueues requests on a bounded channel; when the queue is full it
// stops reading, which backpressures the client through TCP instead of
// buffering unboundedly. Cancel frames are handled by the reader
// directly — it never blocks on a join's execution, so a cancel can
// overtake the queued requests ahead of it. The worker executes
// requests in arrival order and writes responses; because requests on
// one connection are answered in order, a pipelining client can match
// responses by tag without reordering. A lone short request — anything
// but a join, arriving with nothing queued, executing or waiting in the
// read buffer, and with an admission slot free for the taking — is
// executed by the reader itself: nothing on that path waits (the slot is
// claimed before, without blocking; a request that finds none queues for
// the worker, so the reader still sees a hang-up while it waits),
// nothing could overtake it, and handing it to the worker would cost a
// goroutine wake-up, which on an otherwise idle machine is an idle core
// brought out of its sleep. Writes are buffered and flushed
// only when the queue runs empty, so a deep pipeline amortizes one
// syscall over many responses — this batching is where the protocol's
// throughput comes from.
//
// Admission differs from HTTP in one deliberate way: a frame that finds
// every slot taken waits for one instead of failing with an overload
// error (see Server.begin).
//
// The handlers are the frame executor's (exec, below), which runs the
// HTTP front's requests too (httpRequest.Do): a connection is one frame
// sink among two. The executor decodes a frame into the internal/api
// vocabulary, calls the engine inside the request lifecycle of core.go
// and answers in frames, so the two transports share every handler and
// differ only in what is theirs: metric classes, admission, drain, and
// the buffered HTTP join's pair cap.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"touch"
	"touch/internal/api"
	"touch/internal/geom"
	"touch/internal/stats"
	"touch/internal/trace"
	"touch/internal/wire"
)

// wireQueueDepth bounds requests queued per connection past the one
// executing; a full queue stops the reader (TCP backpressure).
const wireQueueDepth = 256

// wireStreamFlushEvery bounds how many OpPairs frames may sit in the
// write buffer mid-join before an explicit flush keeps the stream
// moving (the 64 KiB buffer also self-flushes when full).
const wireStreamFlushEvery = 16

// wireReq is one decoded request frame waiting for the worker. The
// structs are recycled through binConn.free, and buf keeps its capacity
// across uses, so a steady pipeline allocates nothing per request.
type wireReq struct {
	op  byte
	tag uint32
	enq time.Time // enqueue time: queue wait counts against the budget
	buf []byte    // owned copy of the frame payload
}

// binConn is one binary-protocol connection.
type binConn struct {
	s *Server
	r *wire.Reader
	w *wire.Writer

	// ctx is the connection's lifetime: canceled at teardown and by
	// ShutdownWire so in-flight engine work and slot waits abort.
	ctx context.Context

	// wmu serializes frame writes — the worker owns the response
	// stream, but the reader writes fatal protocol errors.
	wmu sync.Mutex

	queue chan *wireReq
	free  chan *wireReq
	// queued counts the requests handed to the worker and not yet
	// answered; at zero the worker is idle and its scratch is the reader's
	// to use.
	queued atomic.Int32

	// mu guards the cancellation bookkeeping: pending maps every queued
	// tag to whether a cancel frame arrived for it, and curTag/curCancel
	// point at the join executing right now (queries finish in
	// microseconds and are not individually cancelable). A cancel for a
	// tag that is neither queued nor current is dropped, so a cancel
	// racing its own response can never poison a later request that
	// reuses the tag.
	mu        sync.Mutex
	pending   map[uint32]bool
	curTag    uint32
	curCancel context.CancelFunc

	// x executes the connection's requests, one at a time, with the
	// connection as its frame sink; worker-owned, and kept on the
	// connection so the steady (untraced) pipeline stays allocation-free.
	// tag is the request it executes now, frames how many OpPairs frames
	// that request has written.
	x      exec
	tag    uint32
	frames int
}

// serveWireConn serves one handshaken connection (wire.Acceptor's
// Handle): the reader on this goroutine, the worker on its own.
func (s *Server) serveWireConn(ctx context.Context, r *wire.Reader, w *wire.Writer) {
	// Canceled by ShutdownWire's force-close, or below once the reader
	// is done — either way in-flight engine work and slot waits abort.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	c := &binConn{
		s:       s,
		r:       r,
		w:       w,
		ctx:     ctx,
		queue:   make(chan *wireReq, wireQueueDepth),
		free:    make(chan *wireReq, wireQueueDepth+1),
		pending: make(map[uint32]bool),
	}
	c.x = exec{s: s, out: c}
	s.met.wireConns.Add(1)
	defer s.met.wireConns.Add(-1)

	workerDone := make(chan struct{})
	go func() {
		defer close(workerDone)
		for req := range c.queue {
			c.handle(req, false)
			c.putReq(req)
			c.queued.Add(-1)
		}
	}()
	c.readLoop()
	// Reader is done (connection failed, closed, or protocol error):
	// abort in-flight work, let the worker drain the queue, and only
	// then tear the connection down.
	cancel()
	close(c.queue)
	<-workerDone
}

// readLoop decodes frames until the connection fails or a protocol
// error makes resynchronization impossible. Framing-level errors get a
// final error frame before the close; a torn connection gets nothing.
func (c *binConn) readLoop() {
	for {
		op, tag, payload, err := c.r.ReadFrame()
		if err != nil {
			if errors.Is(err, wire.ErrMalformed) {
				c.fatalError(0, err.Error())
			}
			return
		}
		switch op {
		case wire.OpCancel:
			c.cancelTag(tag)
		case wire.OpRange, wire.OpPoint, wire.OpKNN, wire.OpJoin, wire.OpUpdate, wire.OpCatalog:
			req := c.getReq()
			req.op, req.tag, req.enq = op, tag, time.Now()
			req.buf = append(req.buf[:0], payload...)
			c.mu.Lock()
			c.pending[tag] = false
			c.mu.Unlock()
			// The reader executes only what cannot make it wait: the
			// admission slot is claimed here, or the request queues.
			if op != wire.OpJoin && c.queued.Load() == 0 && c.r.Buffered() == 0 && c.s.claimSlot() {
				c.handle(req, true)
				c.putReq(req)
				continue
			}
			c.queued.Add(1)
			c.queue <- req
		default:
			c.fatalError(tag, fmt.Sprintf("unknown opcode %#02x", op))
			return
		}
	}
}

// cancelTag applies a cancel frame: flip the pending mark if the tag is
// still queued, cancel the executing join if it is current, drop it
// otherwise (the response already won the race).
func (c *binConn) cancelTag(tag uint32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.curCancel != nil && c.curTag == tag {
		c.curCancel()
		return
	}
	if _, queued := c.pending[tag]; queued {
		c.pending[tag] = true
	}
}

// setCurrent names the join executing right now (cancel nil: none), so
// a cancel frame for its tag can abort it.
func (c *binConn) setCurrent(tag uint32, cancel context.CancelFunc) {
	c.mu.Lock()
	c.curTag, c.curCancel = tag, cancel
	c.mu.Unlock()
}

func (c *binConn) getReq() *wireReq {
	select {
	case req := <-c.free:
		return req
	default:
		return &wireReq{}
	}
}

func (c *binConn) putReq(req *wireReq) {
	select {
	case c.free <- req:
	default:
	}
}

// frame writes one frame of the current request. Flushes are rationed:
// a terminal frame is flushed when the pipeline has drained — under load
// many responses share one flush — and mid-join every
// wireStreamFlushEvery-th OpPairs frame, so a long stream keeps moving.
// A failed write means the connection is dying, which the reader
// observes and turns into teardown.
func (c *binConn) frame(op byte, p []byte, terminal bool) {
	flush := terminal && len(c.queue) == 0
	if op == wire.OpPairs {
		c.frames++
		flush = c.frames%wireStreamFlushEvery == 0
	}
	c.wmu.Lock()
	if c.w.WriteFrame(op, c.tag, p) == nil && flush {
		_ = c.w.Flush()
	}
	c.wmu.Unlock()
}

// fatalError writes an always-flushed bad_request error frame right
// before the connection closes on a protocol error; safe from the
// reader.
func (c *binConn) fatalError(tag uint32, msg string) {
	c.wmu.Lock()
	if c.w.WriteFrame(wire.OpError, tag, wire.AppendErrorResp(nil, api.CodeBadRequest, msg)) == nil {
		_ = c.w.Flush()
	}
	c.wmu.Unlock()
}

// handle executes one request frame: accounting, cancel and drain
// checks, then run. Every request frame gets exactly one terminal
// response frame — that contract is what lets the client pipeline
// blindly — and it is on the wire before the request leaves the drain
// accounting. slot says the caller has claimed the request's admission
// slot already.
func (c *binConn) handle(req *wireReq, slot bool) {
	s, x := c.s, &c.x
	class := classWireQuery
	switch req.op {
	case wire.OpJoin:
		class = classWireJoin
	case wire.OpUpdate:
		class = classWireUpdate
	case wire.OpCatalog:
		class = classWireCatalog
	}
	s.arrive(&x.request, class)
	x.slot = slot
	c.tag, c.frames = req.tag, 0
	s.met.observeWireDepth(len(c.queue) + 1)

	c.mu.Lock()
	canceled := c.pending[req.tag]
	delete(c.pending, req.tag)
	c.mu.Unlock()

	var e *api.Error
	switch {
	case canceled:
		s.met.rejectCanceled.Add(1)
		e = api.Errorf(api.CodeClientClosed, "request canceled by client")
	case !s.wire.BeginRequest():
		e = api.Errorf(api.CodeDraining, "server is shut down")
	default:
		defer s.wire.EndRequest()
		e = c.run(req)
	}
	status := http.StatusOK
	if e != nil {
		status = e.Status()
		x.fail(e)
	}
	s.finish(&x.request, status)
}

// run admits one frame and executes it. Joins are the only
// multi-millisecond work on a connection, so they alone get a deadline
// context and per-tag cancel registration; a cancel frame or
// ShutdownWire aborts the engine cooperatively and the admission slot
// frees on the unwind.
func (c *binConn) run(req *wireReq) *api.Error {
	s := c.s
	// Queue wait counts against the processing budget — the boundary
	// check HTTP requests get from their admission deadline.
	if time.Since(req.enq) > s.cfg.RequestTimeout {
		return s.timedOut()
	}
	if e := s.begin(&c.x.request, req.enq, c.ctx.Done()); e != nil {
		return e
	}
	ctx := c.ctx
	if req.op == wire.OpJoin {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(c.ctx, s.cfg.RequestTimeout)
		defer cancel()
		c.setCurrent(req.tag, cancel)
		defer c.setCurrent(0, nil)
	}
	return c.x.run(ctx, req.op, req.buf)
}

// wirePairBatch is how many join pairs one OpPairs frame carries.
const wirePairBatch = 512

// frameSink takes an exec's response frames: the non-terminal ones
// (OpPairs batches, the OpTrace trailer), then the terminal one. The
// payload is the executor's scratch, valid only for the call.
type frameSink interface {
	frame(op byte, p []byte, terminal bool)
}

// exec executes request frames one at a time: the current request's
// accounting state plus the scratch its answers are encoded in.
type exec struct {
	request
	s   *Server
	out frameSink
	// pairCap is the buffered HTTP join's response cap
	// (Config.maxJoinPairs); 0 on the wire, which has none.
	pairCap int64

	scratch []byte
	pairBuf []geom.Pair
}

// run executes one admitted request frame and returns its error, which
// the caller answers with fail.
func (x *exec) run(ctx context.Context, op byte, p []byte) *api.Error {
	switch op {
	case wire.OpJoin:
		return x.join(ctx, p)
	case wire.OpUpdate:
		return x.update(ctx, p)
	case wire.OpCatalog:
		return x.catalog(ctx, p)
	}
	return x.query(ctx, op, p)
}

// answer sends the request's terminal frame, encoded by encode — after
// the OpTrace frame when the request asked for one, so the trace holds
// everything up to the answer, and a traced failure names itself.
func (x *exec) answer(op byte, encode func(dst []byte) []byte) {
	if x.traced {
		sp := &x.span
		if sp.RequestID == "" {
			sp.RequestID = nextRequestID()
		}
		x.scratch = wire.AppendTrace(x.scratch[:0], sp)
		x.out.frame(wire.OpTrace, x.scratch, false)
	}
	x.scratch = encode(x.scratch[:0])
	x.out.frame(op, x.scratch, true)
}

// fail answers a failed request with its OpError frame.
func (x *exec) fail(e *api.Error) {
	x.answer(wire.OpError, func(dst []byte) []byte { return wire.AppendErrorResp(dst, e.Code, e.Message) })
}

// catalog answers OpCatalog with the serving catalog — the wire twin of
// GET /v1/datasets, carrying the rows a routing tier needs to merge
// listings across replicas.
func (x *exec) catalog(ctx context.Context, p []byte) *api.Error {
	if len(p) != 0 {
		return api.Errorf(api.CodeBadRequest, "catalog request carries a %d-byte payload, want empty", len(p))
	}
	if ctx.Err() != nil {
		return x.s.aborted(ctx)
	}
	infos := x.s.cat.list()
	entries := make([]wire.CatalogEntry, len(infos))
	for i, d := range infos {
		entries[i] = wire.CatalogEntry{Name: d.Name, Version: d.Version, Status: d.Status,
			Objects: int64(d.Objects), StaticBytes: d.StaticBytes, Persisted: d.Persisted,
			DeltaInserts: d.DeltaInserts, DeltaTombstones: d.DeltaTombstones}
	}
	x.answer(wire.OpCatalogResp, func(dst []byte) []byte { return wire.AppendCatalogResp(dst, entries) })
	return nil
}

// query answers OpRange, OpPoint and OpKNN: ID-list queries with OpIDs,
// kNN with OpNeighbors. Single-probe queries run in microseconds, so the
// budget is only checked at the boundary — a request whose budget is
// already gone (it spent it queueing upstream, or the client left) skips
// the work.
func (x *exec) query(ctx context.Context, op byte, p []byte) *api.Error {
	decStart := time.Now()
	var (
		dataset []byte
		q       api.Query
		flags   byte
		err     error
	)
	switch op {
	case wire.OpRange:
		dataset, q.Box, flags, err = wire.DecodeRangeReq(p)
	case wire.OpPoint:
		dataset, q.Point, flags, err = wire.DecodePointReq(p)
	default:
		dataset, q.Point, q.K, flags, err = wire.DecodeKNNReq(p)
	}
	if err != nil {
		return api.DecodeError(err)
	}
	x.traced = x.traced || flags&wire.QueryFlagTrace != 0
	x.span.Add(trace.PhaseDecode, time.Since(decStart))
	snap, e := resolve(x.s, &x.request, dataset)
	if e != nil {
		return e
	}
	x.s.hook(ctx)
	if ctx.Err() != nil {
		return x.s.aborted(ctx)
	}
	var (
		ids  []touch.ID
		nbrs []touch.Neighbor
	)
	switch eng, pt := snap.ov, q.Point; op {
	case wire.OpRange:
		ids, err = eng.RangeQueryTraced(q.Box, &x.span)
	case wire.OpPoint:
		ids, err = eng.PointQueryTraced(pt[0], pt[1], pt[2], &x.span)
	default:
		nbrs, err = eng.KNNTraced(pt, q.K, &x.span)
	}
	switch {
	case err != nil:
		return api.EngineError(err)
	case op == wire.OpKNN:
		x.answer(wire.OpNeighbors, func(dst []byte) []byte { return wire.AppendNeighborsResp(dst, snap.version, nbrs) })
	default:
		x.answer(wire.OpIDs, func(dst []byte) []byte { return wire.AppendIDsResp(dst, snap.version, ids) })
	}
	return nil
}

// update applies an OpUpdate frame — one batch of deletes-then-inserts,
// published atomically against the serving snapshot — answered with one
// OpUpdateDone.
func (x *exec) update(ctx context.Context, p []byte) *api.Error {
	decStart := time.Now()
	ur, err := wire.DecodeUpdateReq(p)
	if err != nil {
		return api.DecodeError(err)
	}
	x.span.Add(trace.PhaseDecode, time.Since(decStart))
	name := string(ur.Name)
	if len(ur.Inserts) == 0 && len(ur.Deletes) == 0 {
		return api.Errorf(api.CodeBadRequest, "update needs insert rows or delete IDs")
	}
	// Validate through the same hardening as a load; the validated
	// dataset is discarded — applyUpdate assigns the real IDs.
	if _, err := touch.DatasetFromBoxes(ur.Inserts); err != nil {
		return api.EngineError(err)
	}
	if ctx.Err() != nil {
		return x.s.aborted(ctx)
	}
	res, st := x.s.cat.applyUpdate(name, ur.Inserts, ur.Deletes)
	switch st {
	case updUnknown:
		return api.Errorf(api.CodeUnknownDataset, "dataset %q not loaded", name)
	case updBuilding:
		return api.Errorf(api.CodeBuilding, "dataset %q is still building its first index version", name)
	case updOverflow:
		return api.Errorf(api.CodeIDExhausted,
			"inserting %d objects would exhaust the dataset's object ID space", len(ur.Inserts))
	}
	x.answer(wire.OpUpdateDone, func(dst []byte) []byte {
		return wire.AppendUpdateResp(dst, wire.UpdateResp{
			Version: res.version, FirstID: res.firstID,
			Inserted: res.inserted, Deleted: res.deleted,
			DeltaInserts: res.deltaIns, DeltaTombstones: res.deltaTomb,
		})
	})
	return nil
}

// join answers a join frame. count_only joins return one OpCount; full
// joins stream OpPairs batches from the join's sink as the engine finds
// the pairs — O(1) result memory — and finish with OpJoinDone. The
// first pair goes out alone, so a streaming reader sees the join start
// with it. A failure after pairs went out still has its terminal frame:
// OpError tells the reader to discard what it took for the request.
// The request's ε goes into Options.Eps of the one Overlay.Join, ε = 0
// being the plain intersection join: the engine applies ε to each node's
// boxes as its local join gathers them, so no ε copies the probe.
func (x *exec) join(ctx context.Context, p []byte) *api.Error {
	s := x.s
	decStart := time.Now()
	jr, err := wire.DecodeJoinReq(p)
	if err != nil {
		return api.DecodeError(err)
	}
	x.traced = x.traced || jr.Trace
	x.span.Add(trace.PhaseDecode, time.Since(decStart))
	snap, e := resolve(s, &x.request, jr.Name)
	if e != nil {
		return e
	}
	probe := touch.Dataset(nil)
	if jr.Boxes == nil {
		named, e := resolve(s, &x.request, jr.ProbeName)
		if e != nil {
			return e
		}
		// Dataset folds the probe's pending updates in, so a named probe
		// joins with the same merged state its own queries see. It is a
		// fresh gather from the tiers' arenas, dropped after the join: a
		// serving state holds every object once.
		probe = named.ov.Dataset()
	} else if probe, err = touch.DatasetFromBoxes(jr.Boxes); err != nil {
		return api.EngineError(err)
	}
	opt := touch.Options{Eps: jr.Eps, Workers: clampWorkers(jr.Workers), Trace: &x.span, NoPairs: jr.CountOnly}
	if opt.Workers <= 0 {
		opt.Workers = s.cfg.Workers
	}
	s.hook(ctx)

	// The sink is called one pair at a time and never after the join
	// returns, so the scratch is its alone meanwhile.
	x.pairBuf = x.pairBuf[:0]
	n, batch := int64(0), 1
	writePairs := func() {
		n += int64(len(x.pairBuf))
		x.scratch = wire.AppendPairsResp(x.scratch[:0], x.pairBuf)
		x.out.frame(wire.OpPairs, x.scratch, false)
		x.pairBuf = x.pairBuf[:0]
	}
	if !jr.CountOnly {
		opt.Sink = stats.FuncSink(func(a, b geom.ID) {
			x.pairBuf = append(x.pairBuf, geom.Pair{A: a, B: b})
			if len(x.pairBuf) == batch {
				writePairs()
				batch = wirePairBatch
			}
		})
		// A capped join runs with a result limit one past the cap: a
		// join that would blow it aborts right there instead of producing
		// |A|·|B| pairs to throw away.
		if x.pairCap > 0 {
			opt.Limit = x.pairCap + 1
		}
	}
	res, err := snap.ov.Join(ctx, probe, &opt)
	switch {
	case errors.Is(err, touch.ErrJoinCanceled):
		return s.aborted(ctx)
	case err != nil:
		return api.EngineError(err)
	case jr.CountOnly:
		x.answer(wire.OpCount, func(dst []byte) []byte { return wire.AppendCountResp(dst, snap.version, res.Stats.Results) })
		return nil
	case x.pairCap > 0 && res.Stats.Results > x.pairCap:
		s.met.rejectLimited.Add(1)
		return api.Errorf(api.CodeResultTooLarge,
			"join exceeds the %d-pair response cap; use count_only, the %s streaming mode, or a narrower probe",
			x.pairCap, api.NDJSONContentType)
	}
	if len(x.pairBuf) > 0 {
		writePairs()
	}
	x.answer(wire.OpJoinDone, func(dst []byte) []byte { return wire.AppendJoinDoneResp(dst, snap.version, n) })
	return nil
}
