package router

// The router's wire front: touchrouter speaks the same binary protocol
// to its own clients that it speaks to the backends, so a client.Conn
// or client.Pool pointed at a router works unchanged.
//
// Read frames (range, point, kNN) that arrive back-to-back — a
// pipelining client's flush delivers dozens in one burst — are
// coalesced and forwarded as one pipelined Batch to the dataset's
// first healthy owner: one flush toward the backend, one goroutine,
// one flush back, so the per-query cost of the extra hop is the
// re-encode, not a per-request round trip. A connection-level failure
// mid-batch drops only the unanswered requests onto the typed
// failover path, which retries the remaining ring owners. Joins,
// updates and catalog requests keep their own goroutine each
// (bounded per connection), so one slow join never convoys the
// pipelined queries behind it; responses go back matched by tag,
// possibly out of arrival order — exactly what the protocol's tag
// contract permits.
//
// Two deliberate differences from a direct backend: trace flags are
// ignored (a trace describes one engine's execution; the router may
// split retries across engines, and a stitched trace would lie), and
// cancel frames for coalesced reads are accepted but not propagated —
// the response simply arrives and wins the race, which the protocol
// permits for any cancel.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"touch"
	"touch/client"
	"touch/internal/api"
	"touch/internal/wire"
)

// wireConcurrency bounds concurrently forwarded requests per client
// connection; at the bound the reader stops, backpressuring via TCP.
const wireConcurrency = 64

// wirePairBatch is how many join pairs one OpPairs frame carries,
// matching the backends' batching.
const wirePairBatch = 512

// wireMaxFrame caps inbound frame payloads.
const wireMaxFrame = 64 << 20

// ServeWire accepts binary-protocol connections on ln until the
// listener fails or ShutdownWire closes it (which returns nil). Run it
// on its own goroutine, one per listener.
func (rt *Router) ServeWire(ln net.Listener) error { return rt.wire.Serve(ln) }

// ShutdownWire stops accepting, force-closes every wire-front
// connection (canceling their in-flight forwards) and waits for the
// connection goroutines to unwind.
func (rt *Router) ShutdownWire(ctx context.Context) error { return rt.wire.Shutdown(ctx) }

// frontConn is one wire-front client connection.
type frontConn struct {
	rt *Router
	w  *wire.Writer

	ctx context.Context

	// wmu serializes frame writes across the forwarding goroutines.
	wmu sync.Mutex

	// inflight counts requests accepted but not yet answered; the
	// responder that drops it to zero flushes, so a deep pipeline
	// amortizes one flush over many responses.
	inflight atomic.Int64

	// mu guards cancels: tag → the in-flight forward's CancelFunc.
	mu      sync.Mutex
	cancels map[uint32]context.CancelFunc

	sem chan struct{}
	wg  sync.WaitGroup
}

// serveWireConn serves one handshaken connection (wire.Acceptor's
// Handle).
func (rt *Router) serveWireConn(ctx context.Context, r *wire.Reader, w *wire.Writer) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	c := &frontConn{
		rt:      rt,
		w:       w,
		ctx:     ctx,
		cancels: make(map[uint32]context.CancelFunc),
		sem:     make(chan struct{}, wireConcurrency),
	}
	rt.met.wireConns.Add(1)
	defer rt.met.wireConns.Add(-1)

	c.readLoop(r)
	// Reader done: abort in-flight forwards, wait for their goroutines.
	cancel()
	c.wg.Wait()
}

// readReq is one decoded read frame awaiting forwarding.
type readReq struct {
	tag     uint32
	dataset string
	q       api.Query
}

// decodeRead decodes a read frame into a readReq, copying the dataset
// name out of the reader's reused payload buffer.
func decodeRead(op byte, tag uint32, payload []byte) (readReq, error) {
	req := readReq{tag: tag}
	var name []byte
	var err error
	switch op {
	case wire.OpRange:
		req.q.Type = api.TypeRange
		name, req.q.Box, _, err = wire.DecodeRangeReq(payload)
	case wire.OpPoint:
		req.q.Type = api.TypePoint
		name, req.q.Point, _, err = wire.DecodePointReq(payload)
	case wire.OpKNN:
		req.q.Type = api.TypeKNN
		name, req.q.Point, req.q.K, _, err = wire.DecodeKNNReq(payload)
	}
	req.dataset = string(name)
	return req, err
}

func (c *frontConn) readLoop(r *wire.Reader) {
	// group accumulates read frames while more input is already
	// buffered; it is dispatched as soon as the next read would block
	// (or the group is full), so a pipelined burst becomes one batch
	// and a lone request is forwarded immediately.
	var group []readReq
	dispatch := func() {
		if len(group) == 0 {
			return
		}
		g := group
		group = nil
		select {
		case c.sem <- struct{}{}:
		case <-c.ctx.Done():
			// Teardown: nobody will read the responses. Balance the
			// inflight counter the responses would have decremented.
			c.inflight.Add(int64(-len(g)))
			return
		}
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			defer func() { <-c.sem }()
			c.forwardReads(g)
		}()
	}
	defer dispatch()
	for {
		if r.Buffered() == 0 || len(group) >= wireConcurrency {
			dispatch()
		}
		op, tag, payload, err := r.ReadFrame()
		if err != nil {
			if errors.Is(err, wire.ErrMalformed) {
				c.fatalError(0, err.Error())
			}
			return
		}
		switch op {
		case wire.OpCancel:
			c.mu.Lock()
			if cancel := c.cancels[tag]; cancel != nil {
				cancel()
			}
			c.mu.Unlock()
		case wire.OpRange, wire.OpPoint, wire.OpKNN:
			c.inflight.Add(1)
			req, err := decodeRead(op, tag, payload)
			if err != nil {
				c.respondError(tag, api.DecodeError(err))
				continue
			}
			group = append(group, req)
		case wire.OpJoin, wire.OpUpdate, wire.OpCatalog:
			dispatch()
			select {
			case c.sem <- struct{}{}:
			case <-c.ctx.Done():
				return
			}
			buf := append([]byte(nil), payload...)
			c.inflight.Add(1)
			c.wg.Add(1)
			go func() {
				defer c.wg.Done()
				defer func() { <-c.sem }()
				c.forward(op, tag, buf)
			}()
		default:
			c.fatalError(tag, fmt.Sprintf("unknown opcode %#02x", op))
			return
		}
	}
}

// respond writes one terminal frame and flushes when the pipeline has
// drained. Write errors mean a dying connection; the reader sees it.
func (c *frontConn) respond(op byte, tag uint32, payload []byte) {
	c.wmu.Lock()
	err := c.w.WriteFrame(op, tag, payload)
	if c.inflight.Add(-1) == 0 && err == nil {
		_ = c.w.Flush()
	}
	c.wmu.Unlock()
}

// respondStream writes a non-terminal OpPairs frame mid-join.
func (c *frontConn) respondStream(tag uint32, payload []byte) {
	c.wmu.Lock()
	_ = c.w.WriteFrame(wire.OpPairs, tag, payload)
	c.wmu.Unlock()
}

func (c *frontConn) fatalError(tag uint32, msg string) {
	c.wmu.Lock()
	if c.w.WriteFrame(wire.OpError, tag, wire.AppendErrorResp(nil, api.CodeBadRequest, msg)) == nil {
		_ = c.w.Flush()
	}
	c.wmu.Unlock()
}

// respondError answers a request with an error frame.
func (c *frontConn) respondError(tag uint32, e *api.Error) {
	c.respond(wire.OpError, tag, wire.AppendErrorResp(nil, e.Code, e.Message))
}

// respondQuery answers a read: ID-list queries with OpIDs, kNN with
// OpNeighbors, a forwarding failure with its proxied error.
func (c *frontConn) respondQuery(r *readReq, version int64, ids []touch.ID, nbrs []touch.Neighbor, err error) {
	switch {
	case err != nil:
		c.respondError(r.tag, proxiedError(err))
	case r.q.Type == api.TypeKNN:
		c.respond(wire.OpNeighbors, r.tag, wire.AppendNeighborsResp(nil, version, nbrs))
	default:
		c.respond(wire.OpIDs, r.tag, wire.AppendIDsResp(nil, version, ids))
	}
}

// forwardReads proxies one dispatched burst of read frames. Contiguous
// runs for the same dataset (the whole burst, for a typical pipelining
// client) ride one pipelined batch; anything a batch could not answer
// falls back to the typed per-request path. One timeout covers the
// burst.
func (c *frontConn) forwardReads(reqs []readReq) {
	ctx, cancel := context.WithTimeout(c.ctx, c.rt.cfg.RequestTimeout)
	defer cancel()
	for start := 0; start < len(reqs); {
		end := start + 1
		for end < len(reqs) && reqs[end].dataset == reqs[start].dataset {
			end++
		}
		c.forwardDatasetReads(ctx, reqs[start:end])
		start = end
	}
}

// forwardDatasetReads answers a same-dataset run of reads: batched over
// the first healthy owner when there is more than one, per-request
// with full failover otherwise — including the leftovers of a batch
// whose connection died mid-flight, each of which counts as a
// failover because a second backend is about to serve it.
func (c *frontConn) forwardDatasetReads(ctx context.Context, reqs []readReq) {
	if len(reqs) > 1 {
		if b := c.rt.healthyOwner(reqs[0].dataset); b != nil {
			rest := c.tryBatch(ctx, b, reqs)
			if len(rest) > 0 {
				c.rt.met.failovers.Add(int64(len(rest)))
			}
			reqs = rest
		}
	}
	for _, r := range reqs {
		c.forwardRead(ctx, r)
	}
}

// tryBatch pipelines reqs (all one dataset) over one pooled connection
// to b: every request is queued, sent with a single flush and
// harvested in order. Requests the backend answered — with a result
// or with an authoritative server error — are responded to here; the
// remainder (connection-level failures) are returned for the caller
// to fail over.
func (c *frontConn) tryBatch(ctx context.Context, b *backend, reqs []readReq) []readReq {
	rt := c.rt
	conn, err := b.pool.Conn(ctx)
	if err != nil {
		rt.noteFailure(b, err)
		return reqs
	}
	b.requests.Add(int64(len(reqs)))
	start := time.Now()
	batch := conn.Batch()
	// One future per request; which of the two is live follows q.Type.
	type future struct {
		ids  client.IDsFuture
		nbrs client.NeighborsFuture
	}
	futs := make([]future, len(reqs))
	for i := range reqs {
		switch r := &reqs[i]; r.q.Type {
		case api.TypeRange:
			futs[i].ids = batch.Range(r.dataset, r.q.Box)
		case api.TypePoint:
			futs[i].ids = batch.Point(r.dataset, r.q.Point)
		default:
			futs[i].nbrs = batch.KNN(r.dataset, r.q.Point, r.q.K)
		}
	}
	if err := batch.Send(); err != nil {
		b.errs.Add(1)
		b.latency.Observe(time.Since(start))
		rt.noteFailure(b, err)
		return reqs
	}
	var rest []readReq
	var connErr error
	for i := range reqs {
		r := &reqs[i]
		var (
			version int64
			ids     []touch.ID
			nbrs    []touch.Neighbor
			err     error
		)
		if r.q.Type == api.TypeKNN {
			version, nbrs, err = futs[i].nbrs.Get(ctx)
		} else {
			version, ids, err = futs[i].ids.Get(ctx)
		}
		// A server error is the backend's authoritative answer; anything
		// else (and a draining replica) fails the request over.
		if err != nil && !answered(err) {
			connErr = err
			rest = append(rest, *r)
			continue
		}
		c.respondQuery(r, version, ids, nbrs, err)
	}
	b.latency.Observe(time.Since(start))
	rt.met.requests[rcQuery].Add(int64(len(reqs) - len(rest)))
	if connErr != nil {
		b.errs.Add(1)
		rt.noteFailure(b, connErr)
	}
	return rest
}

// track registers the in-flight forward for tag so a cancel frame can
// abort it; a nil cancel unregisters it.
func (c *frontConn) track(tag uint32, cancel context.CancelFunc) {
	c.mu.Lock()
	if cancel == nil {
		delete(c.cancels, tag)
	} else {
		c.cancels[tag] = cancel
	}
	c.mu.Unlock()
}

// forwardRead proxies one read over the typed failover path,
// registering its tag so a cancel frame can abort it.
func (c *frontConn) forwardRead(ctx context.Context, r readReq) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	c.track(r.tag, cancel)
	defer c.track(r.tag, nil)

	version, ids, nbrs, err := c.rt.query(ctx, r.dataset, &r.q)
	c.respondQuery(&r, version, ids, nbrs, err)
}

// forward proxies one join, update or catalog frame: decode, route,
// re-encode. Runs on its own goroutine; tag registration makes it
// cancelable by frame.
func (c *frontConn) forward(op byte, tag uint32, payload []byte) {
	ctx, cancel := context.WithTimeout(c.ctx, c.rt.cfg.RequestTimeout)
	defer cancel()
	c.track(tag, cancel)
	defer c.track(tag, nil)

	switch op {
	case wire.OpJoin:
		c.forwardJoin(ctx, tag, payload)
	case wire.OpUpdate:
		c.forwardUpdate(ctx, tag, payload)
	case wire.OpCatalog:
		if len(payload) != 0 {
			c.respondError(tag, api.Errorf(api.CodeBadRequest,
				"catalog request carries a %d-byte payload, want empty", len(payload)))
			return
		}
		rows, _ := c.rt.Catalog(ctx)
		entries := make([]wire.CatalogEntry, len(rows))
		for i, row := range rows {
			entries[i] = row.DatasetInfo
		}
		c.respond(wire.OpCatalogResp, tag, wire.AppendCatalogResp(nil, entries))
	}
}

func (c *frontConn) forwardJoin(ctx context.Context, tag uint32, payload []byte) {
	jr, err := wire.DecodeJoinReq(payload)
	if err != nil {
		c.respondError(tag, api.DecodeError(err))
		return
	}
	spec := client.JoinSpec{Probe: string(jr.ProbeName), Boxes: jr.Boxes, Eps: jr.Eps, Workers: jr.Workers}
	if jr.CountOnly {
		version, count, err := c.rt.JoinCount(ctx, string(jr.Name), spec)
		if err != nil {
			c.respondError(tag, proxiedError(err))
			return
		}
		c.respond(wire.OpCount, tag, wire.AppendCountResp(nil, version, count))
		return
	}
	version, pairs, count, err := c.rt.Join(ctx, string(jr.Name), spec)
	if err != nil {
		c.respondError(tag, proxiedError(err))
		return
	}
	// Re-stream in batches: frames for one tag stay in order because
	// they all come from this goroutine; other tags may interleave.
	var buf []byte
	for len(pairs) > 0 {
		n := min(wirePairBatch, len(pairs))
		buf = wire.AppendPairsResp(buf[:0], pairs[:n])
		c.respondStream(tag, buf)
		pairs = pairs[n:]
	}
	c.respond(wire.OpJoinDone, tag, wire.AppendJoinDoneResp(nil, version, count))
}

func (c *frontConn) forwardUpdate(ctx context.Context, tag uint32, payload []byte) {
	ur, err := wire.DecodeUpdateReq(payload)
	if err != nil {
		c.respondError(tag, api.DecodeError(err))
		return
	}
	res, err := c.rt.Update(ctx, string(ur.Name), client.UpdateSpec{Insert: ur.Inserts, Delete: ur.Deletes})
	if err != nil {
		c.respondError(tag, proxiedError(err))
		return
	}
	resp := wire.UpdateResp{
		Version: res.Version, FirstID: -1,
		Inserted: len(res.InsertedIDs), Deleted: res.Deleted,
		DeltaInserts: res.DeltaInserts, DeltaTombstones: res.DeltaTombstones,
	}
	if len(res.InsertedIDs) > 0 {
		resp.FirstID = int64(res.InsertedIDs[0])
	}
	c.respond(wire.OpUpdateDone, tag, wire.AppendUpdateResp(nil, resp))
}
