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
// The handlers here are a codec: decode the frame, call the execute core
// (core.go), encode the answer. They return the request's *api.Error, if
// any; handle writes the error frame.

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

// wirePairBatch is how many join pairs one OpPairs frame carries.
const wirePairBatch = 512

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

	// Worker-owned scratch reused across requests on this connection.
	scratch []byte
	pairBuf []geom.Pair

	// req is the current request's accounting state, worker-owned and
	// reset per request — kept on the connection so the steady (untraced)
	// pipeline stays allocation-free.
	req request
}

// respondTrace emits the non-terminal OpTrace frame carrying the
// current request's span; call it immediately before the terminal
// response of a traced request.
func (c *binConn) respondTrace(tag uint32) {
	sp := &c.req.span
	if sp.RequestID == "" {
		sp.RequestID = nextRequestID()
	}
	c.scratch = wire.AppendTrace(c.scratch[:0], sp)
	c.respond(wire.OpTrace, tag, c.scratch)
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

// respond writes a response frame, flushing only when the pipeline has
// drained — under load many responses share one flush. Write errors are
// ignored here: a failed write means the connection is dying, which the
// reader observes and turns into teardown.
func (c *binConn) respond(op byte, tag uint32, payload []byte) {
	c.wmu.Lock()
	if c.w.WriteFrame(op, tag, payload) == nil && len(c.queue) == 0 {
		_ = c.w.Flush()
	}
	c.wmu.Unlock()
}

// respondStream writes a non-terminal OpPairs frame mid-join.
func (c *binConn) respondStream(tag uint32, payload []byte, flush bool) {
	c.wmu.Lock()
	if c.w.WriteFrame(wire.OpPairs, tag, payload) == nil && flush {
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
	s, rq := c.s, &c.req
	class := classWireQuery
	switch req.op {
	case wire.OpJoin:
		class = classWireJoin
	case wire.OpUpdate:
		class = classWireUpdate
	case wire.OpCatalog:
		class = classWireCatalog
	}
	s.arrive(rq, class)
	rq.slot = slot
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
		c.respond(wire.OpError, req.tag, wire.AppendErrorResp(nil, e.Code, e.Message))
	}
	s.finish(rq, status)
}

// run admits one frame and dispatches it to its handler.
func (c *binConn) run(req *wireReq) *api.Error {
	s := c.s
	// Queue wait counts against the processing budget — the boundary
	// check HTTP requests get from their admission deadline.
	if time.Since(req.enq) > s.cfg.RequestTimeout {
		return s.timedOut()
	}
	if e := s.begin(&c.req, req.enq, c.ctx.Done()); e != nil {
		return e
	}
	switch req.op {
	case wire.OpJoin:
		return c.handleJoin(req)
	case wire.OpUpdate:
		return c.handleUpdate(req)
	case wire.OpCatalog:
		return c.handleCatalog(req)
	}
	return c.handleQuery(req)
}

// handleCatalog answers OpCatalog with the serving catalog — the wire
// twin of GET /v1/datasets, carrying the rows a routing tier needs to
// merge listings across replicas.
func (c *binConn) handleCatalog(req *wireReq) *api.Error {
	if len(req.buf) != 0 {
		return api.Errorf(api.CodeBadRequest, "catalog request carries a %d-byte payload, want empty", len(req.buf))
	}
	if c.ctx.Err() != nil {
		return c.s.aborted(c.ctx)
	}
	infos := c.s.cat.list()
	entries := make([]wire.CatalogEntry, len(infos))
	for i, d := range infos {
		entries[i] = wire.CatalogEntry{
			Name:            d.Name,
			Version:         d.Version,
			Status:          d.Status,
			Objects:         int64(d.Objects),
			StaticBytes:     d.StaticBytes,
			DeltaInserts:    d.DeltaInserts,
			DeltaTombstones: d.DeltaTombstones,
			Persisted:       d.Persisted,
		}
	}
	c.respond(wire.OpCatalogResp, req.tag, wire.AppendCatalogResp(nil, entries))
	return nil
}

// handleQuery answers OpRange, OpPoint and OpKNN: ID-list queries with
// OpIDs, kNN with OpNeighbors.
func (c *binConn) handleQuery(req *wireReq) *api.Error {
	rq := &c.req
	decStart := time.Now()
	var (
		dataset []byte
		q       api.Query
		flags   byte
		err     error
	)
	switch req.op {
	case wire.OpRange:
		q.Type = api.TypeRange
		dataset, q.Box, flags, err = wire.DecodeRangeReq(req.buf)
	case wire.OpPoint:
		q.Type = api.TypePoint
		dataset, q.Point, flags, err = wire.DecodePointReq(req.buf)
	default:
		q.Type = api.TypeKNN
		dataset, q.Point, q.K, flags, err = wire.DecodeKNNReq(req.buf)
	}
	if err != nil {
		return api.DecodeError(err)
	}
	rq.span.Add(trace.PhaseDecode, time.Since(decStart))
	snap, e := resolve(c.s, rq, dataset)
	if e != nil {
		return e
	}
	ids, nbrs, e := c.s.runQuery(c.ctx, rq, snap, &q)
	if e != nil {
		return e
	}
	if flags&wire.QueryFlagTrace != 0 {
		c.respondTrace(req.tag)
	}
	if q.Type == api.TypeKNN {
		c.scratch = wire.AppendNeighborsResp(c.scratch[:0], snap.version, nbrs)
		c.respond(wire.OpNeighbors, req.tag, c.scratch)
	} else {
		c.scratch = wire.AppendIDsResp(c.scratch[:0], snap.version, ids)
		c.respond(wire.OpIDs, req.tag, c.scratch)
	}
	return nil
}

// handleUpdate applies an OpUpdate frame — the wire twin of HTTP's
// PATCH handler — answered with one OpUpdateDone.
func (c *binConn) handleUpdate(req *wireReq) *api.Error {
	ur, err := wire.DecodeUpdateReq(req.buf)
	if err != nil {
		return api.DecodeError(err)
	}
	res, e := c.s.update(c.ctx, string(ur.Name), ur.Inserts, ur.Deletes)
	if e != nil {
		return e
	}
	c.scratch = wire.AppendUpdateResp(c.scratch[:0], wire.UpdateResp{
		Version: res.version, FirstID: res.firstID,
		Inserted: res.inserted, Deleted: res.deleted,
		DeltaInserts: res.deltaIns, DeltaTombstones: res.deltaTomb,
	})
	c.respond(wire.OpUpdateDone, req.tag, c.scratch)
	return nil
}

// handleJoin answers a join frame. count_only joins return one OpCount;
// full joins stream OpPairs batches from the join's sink as the engine
// finds the pairs — O(1) result memory, exempt from MaxJoinPairs exactly
// like the NDJSON path — and finish with OpJoinDone. Joins are the only
// multi-millisecond work on a connection, so they alone get a deadline
// context and per-tag cancel registration; a cancel frame or ShutdownWire
// aborts the engine cooperatively and the admission slot frees on the
// unwind.
func (c *binConn) handleJoin(req *wireReq) *api.Error {
	s, rq := c.s, &c.req
	decStart := time.Now()
	jr, err := wire.DecodeJoinReq(req.buf)
	if err != nil {
		return api.DecodeError(err)
	}
	rq.span.Add(trace.PhaseDecode, time.Since(decStart))
	snap, e := resolve(s, rq, jr.Name)
	if e != nil {
		return e
	}
	plan, e := prepareJoin(s, rq, snap, jr.ProbeName, jr.Boxes, jr.Workers)
	if e != nil {
		return e
	}

	ctx, cancel := context.WithTimeout(c.ctx, s.cfg.RequestTimeout)
	defer cancel()
	c.setCurrent(req.tag, cancel)
	defer c.setCurrent(0, nil)
	s.hook(ctx)

	if jr.CountOnly {
		res, e := s.join(ctx, rq, plan, jr.Eps, touch.Options{NoPairs: true})
		if e != nil {
			return e
		}
		if jr.Trace {
			c.respondTrace(req.tag)
		}
		c.scratch = wire.AppendCountResp(c.scratch[:0], plan.snap.version, res.Stats.Results)
		c.respond(wire.OpCount, req.tag, c.scratch)
		return nil
	}

	// Unlike NDJSON streaming, a mid-stream failure here still has a
	// terminal frame to use: OpError after partial OpPairs tells the
	// client to discard what it buffered for the tag. The sink is called
	// one pair at a time and never after the join returns, so the
	// connection's scratch is its alone meanwhile.
	c.pairBuf = c.pairBuf[:0]
	n := int64(0)
	frames := 0
	writePairs := func(flush bool) {
		n += int64(len(c.pairBuf))
		c.scratch = wire.AppendPairsResp(c.scratch[:0], c.pairBuf)
		c.respondStream(req.tag, c.scratch, flush)
		c.pairBuf = c.pairBuf[:0]
	}
	sink := stats.FuncSink(func(a, b geom.ID) {
		c.pairBuf = append(c.pairBuf, geom.Pair{A: a, B: b})
		if len(c.pairBuf) == wirePairBatch {
			frames++
			writePairs(frames%wireStreamFlushEvery == 0)
		}
	})
	if _, e := s.join(ctx, rq, plan, jr.Eps, touch.Options{Sink: sink}); e != nil {
		return e
	}
	if len(c.pairBuf) > 0 {
		writePairs(false)
	}
	if jr.Trace {
		c.respondTrace(req.tag)
	}
	c.scratch = wire.AppendJoinDoneResp(c.scratch[:0], plan.snap.version, n)
	c.respond(wire.OpJoinDone, req.tag, c.scratch)
	return nil
}
