package router

// The router's wire front: touchrouter speaks the same binary protocol
// to its own clients that it speaks to the backends, so a client.Conn
// or client.Pool pointed at a router works unchanged.
//
// The front is a frame relay. To place a request it reads one fact —
// the dataset name that opens the payload (wire.RequestDataset) — and
// knows no payload format beyond that: the client's frame goes to an
// owner as it arrived, and the owner's frames come back under the
// client's tag as they arrived. So trace flags cross the hop (the
// OpTrace trailer, request ID included, is the answering backend's), a
// join's OpPairs frames are the owner's — not re-sorted, not
// re-batched — and a malformed payload is refused by the owner, in the
// owner's words. Nothing is written to the client before the owner's
// terminal frame has arrived: a request is answered by exactly one
// owner, and a failover mid-answer stays invisible.
//
// Read frames (range, point, kNN) that arrive back-to-back — a
// pipelining client's flush delivers dozens in one burst — are
// coalesced and forwarded as one pipelined Batch to the dataset's
// first healthy owner: one flush toward the backend, one goroutine,
// one flush back, so the per-query cost of the extra hop is two frame
// copies, not a per-request round trip. A connection-level failure
// mid-batch drops only the unanswered requests onto the failover path
// (Router.relay), which retries the remaining ring owners. Joins,
// updates and catalog requests keep their own goroutine each
// (bounded per connection), so one slow join never convoys the
// pipelined queries behind it; responses go back matched by tag,
// possibly out of arrival order — exactly what the protocol's tag
// contract permits.
//
// The catalog is the one request the front answers itself (the merged
// listing), and cancel frames for coalesced reads are accepted but not
// propagated — the response simply arrives and wins the race, which
// the protocol permits for any cancel.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"touch/client"
	"touch/internal/api"
	"touch/internal/wire"
)

// wireConcurrency bounds concurrently forwarded requests per client
// connection; at the bound the reader stops, backpressuring via TCP.
const wireConcurrency = 64

// lonePatience is the period of a connection's lone-read watch (see
// frontConn.watch): a lone read the reader forwards itself keeps it from
// the socket for one period at least and two at most before the read
// loop moves on without it. A healthy backend answers in a hundredth.
const lonePatience = 5 * time.Millisecond

// loneTaken in frontConn.lone: the watch has moved the read loop on.
const loneTaken = -1

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

	// ctx is the connection's lifetime; the read loop cancels it when the
	// reading ends, which aborts the forwards in flight.
	ctx    context.Context
	cancel context.CancelFunc

	// wmu serializes frame writes across the forwarding goroutines.
	wmu sync.Mutex

	// inflight counts requests accepted but not yet answered; the
	// responder that drops it to zero flushes, so a deep pipeline
	// amortizes one flush over many responses.
	inflight atomic.Int64

	// mu guards cancels: tag → the in-flight forward's CancelFunc.
	mu      sync.Mutex
	cancels map[uint32]context.CancelFunc

	// wg counts the read loop and every forward in flight.
	sem chan struct{}
	wg  sync.WaitGroup

	// The lone-read watch. lone is the number of the lone read the reader
	// is forwarding itself right now (loneSeq counts them, and is the
	// reader's), 0 when it is not, loneTaken once the watch has moved the
	// read loop on without it; watching says the watch's timer is armed.
	loneSeq  int64
	lone     atomic.Int64
	watching atomic.Bool
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
		cancel:  cancel,
		cancels: make(map[uint32]context.CancelFunc),
		sem:     make(chan struct{}, wireConcurrency),
	}
	rt.met.wireConns.Add(1)
	defer rt.met.wireConns.Add(-1)

	// The read loop may finish on another goroutine than this one; it
	// cancels ctx when it does, and the forwards unwind.
	c.wg.Add(1)
	c.readLoop(r)
	c.wg.Wait()
}

// relayReq is one request frame awaiting forwarding: the routing key
// peeked from its payload, and the payload copied out of the reader's
// reused buffer.
type relayReq struct {
	op      byte
	tag     uint32
	dataset string
	payload []byte
}

// readLoop reads the connection's frames until it ends, then cancels the
// connection's context and gives up the read loop's count in wg. It may
// do so on another goroutine than it was called on: a lone read is
// forwarded by the goroutine that read it, and if the backend keeps it
// past lonePatience the watch carries the loop on while this goroutine
// sees the forward through and returns.
func (c *frontConn) readLoop(r *wire.Reader) {
	if c.read(r) {
		c.cancel()
		c.wg.Done()
	}
}

// read is readLoop's loop; false means the loop has moved on to another
// goroutine, true that the reading is over.
func (c *frontConn) read(r *wire.Reader) bool {
	// group accumulates read frames while more input is already
	// buffered; it is dispatched as soon as the next read would block
	// (or the group is full), so a pipelined burst becomes one batch
	// and a lone request is forwarded immediately.
	var group []relayReq
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
			// A read with nothing else in flight on the connection is
			// forwarded right here: a goroutine started for it is a
			// wake-up, and on an otherwise idle machine that is an idle
			// core brought out of its sleep — more than the forward
			// itself costs. But the forward waits on a backend for as
			// long as the backend takes, and the socket must not go
			// unread that long, or the request's cancel frame and the
			// client's hang-up would wait with it: the watch sees to it.
			if len(group) == 1 && c.inflight.Load() == 1 && r.Buffered() == 0 {
				g := group
				group = nil
				c.loneSeq++
				n := c.loneSeq
				c.lone.Store(n)
				if !c.watching.Swap(true) {
					time.AfterFunc(lonePatience, func() { c.watch(r, n) })
				}
				c.wg.Add(1)
				c.forwardReads(g)
				c.wg.Done()
				if !c.lone.CompareAndSwap(n, 0) {
					return false // the watch has moved the loop on
				}
				continue
			}
			dispatch()
		}
		op, tag, payload, err := r.ReadFrame()
		if err != nil {
			if errors.Is(err, wire.ErrMalformed) {
				c.fatalError(0, err.Error())
			}
			return true
		}
		read := false
		switch op {
		case wire.OpCancel:
			c.mu.Lock()
			if cancel := c.cancels[tag]; cancel != nil {
				cancel()
			}
			c.mu.Unlock()
			continue
		case wire.OpRange, wire.OpPoint, wire.OpKNN:
			read = true
		case wire.OpJoin, wire.OpUpdate, wire.OpCatalog:
		default:
			c.fatalError(tag, fmt.Sprintf("unknown opcode %#02x", op))
			return true
		}
		req := relayReq{op: op, tag: tag, payload: append([]byte(nil), payload...)}
		if op != wire.OpCatalog {
			// A payload too short to hold its own name cannot be placed;
			// it is refused here, with the error an owner would give.
			name, err := wire.RequestDataset(req.payload)
			if err != nil {
				c.inflight.Add(1)
				c.respondError(tag, api.DecodeError(err))
				continue
			}
			req.dataset = string(name)
		}
		if read {
			c.inflight.Add(1)
			group = append(group, req)
			continue
		}
		dispatch()
		select {
		case c.sem <- struct{}{}:
		case <-c.ctx.Done():
			return true
		}
		c.inflight.Add(1)
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			defer func() { <-c.sem }()
			ctx, cancel := context.WithTimeout(c.ctx, c.rt.cfg.RequestTimeout)
			defer cancel()
			c.forward(ctx, &req)
		}()
	}
}

// watch is one tick of the connection's lone-read watch. A timer per
// lone read would do — but a timer due sooner than every other is itself
// a wake-up for whichever thread sleeps in the poller, on every request —
// so there is one per connection, ticking every lonePatience while lone
// reads keep coming. seen is the lone read that was in progress a tick
// ago: if it still is, it has kept the reader from the socket for a
// whole period, and the read loop carries on here, on the timer's
// goroutine, while the reader finishes as that forward's goroutine. Two
// ticks in a row with no lone read in progress put the watch to sleep;
// the next lone read arms it again.
func (c *frontConn) watch(r *wire.Reader, seen int64) {
	cur := c.lone.Load()
	switch {
	case cur > 0 && cur == seen && c.lone.CompareAndSwap(cur, loneTaken):
		c.watching.Store(false)
		c.readLoop(r)
		return
	case cur <= 0 && seen <= 0:
		c.watching.Store(false)
		if c.lone.Load() <= 0 || c.watching.Swap(true) {
			return // asleep, or the reader has armed the next watch already
		}
		// A lone read began before the flag went down, unwatched: stay up.
	}
	time.AfterFunc(lonePatience, func() { c.watch(r, cur) })
}

// respond writes one request's answer — the stream frames, then the
// terminal frame, under the client's tag — and flushes when the
// pipeline has drained. Write errors mean a dying connection; the
// reader sees it.
func (c *frontConn) respond(tag uint32, terminal client.Frame, stream ...client.Frame) {
	c.wmu.Lock()
	var err error
	for i := 0; i < len(stream) && err == nil; i++ {
		err = c.w.WriteFrame(stream[i].Op, tag, stream[i].Payload)
	}
	if err == nil {
		err = c.w.WriteFrame(terminal.Op, tag, terminal.Payload)
	}
	if c.inflight.Add(-1) == 0 && err == nil {
		_ = c.w.Flush()
	}
	c.wmu.Unlock()
}

func (c *frontConn) fatalError(tag uint32, msg string) {
	c.wmu.Lock()
	if c.w.WriteFrame(wire.OpError, tag, wire.AppendErrorResp(nil, api.CodeBadRequest, msg)) == nil {
		_ = c.w.Flush()
	}
	c.wmu.Unlock()
}

// respondError answers a request the router itself refuses or could not
// get answered with an error frame.
func (c *frontConn) respondError(tag uint32, e *api.Error) {
	c.respond(tag, client.Frame{Op: wire.OpError, Payload: wire.AppendErrorResp(nil, e.Code, e.Message)})
}

// forwardReads proxies one dispatched burst of read frames under one
// timeout. Each contiguous run for the same dataset (the whole burst,
// for a typical pipelining client) is answered batched over the first
// healthy owner when it holds more than one request, per-request with
// full failover otherwise — including the leftovers of a batch whose
// connection died mid-flight, each of which counts as a failover
// because a second backend is about to serve it.
func (c *frontConn) forwardReads(reqs []relayReq) {
	ctx, cancel := context.WithTimeout(c.ctx, c.rt.cfg.RequestTimeout)
	defer cancel()
	for start := 0; start < len(reqs); {
		end := start + 1
		for end < len(reqs) && reqs[end].dataset == reqs[start].dataset {
			end++
		}
		run := reqs[start:end]
		start = end
		if len(run) > 1 {
			if b := c.rt.healthyOwner(run[0].dataset); b != nil {
				run = c.tryBatch(ctx, b, run)
				c.rt.met.failovers.Add(int64(len(run)))
			}
		}
		for i := range run {
			c.forward(ctx, &run[i])
		}
	}
}

// tryBatch pipelines reqs (all one dataset) over one pooled connection
// to b: every request is queued, sent with a single flush and
// harvested in order. Requests the backend answered — with a result
// or with an authoritative server error — are responded to here; the
// remainder (connection-level failures) are returned for the caller
// to fail over.
func (c *frontConn) tryBatch(ctx context.Context, b *backend, reqs []relayReq) []relayReq {
	rt := c.rt
	conn, err := b.pool.Conn(ctx)
	if err != nil {
		rt.noteFailure(b, err)
		return reqs
	}
	b.requests.Add(int64(len(reqs)))
	start := time.Now()
	batch := conn.Batch()
	futs := make([]client.ReplyFuture, len(reqs))
	for i := range reqs {
		futs[i] = batch.Do(reqs[i].op, reqs[i].payload)
	}
	if err := batch.Send(); err != nil {
		b.errs.Add(1)
		b.latency.Observe(time.Since(start))
		rt.noteFailure(b, err)
		return reqs
	}
	var rest []relayReq
	var connErr error
	for i := range reqs {
		r, err := futs[i].Get(ctx)
		if err == nil {
			err = draining(r)
		}
		// A server error is the backend's authoritative answer; anything
		// else (and a draining replica) fails the request over.
		switch {
		case err == nil:
			c.respond(reqs[i].tag, r.Frame, r.Stream...)
		case answered(err):
			c.respondError(reqs[i].tag, proxiedError(err))
		default:
			connErr = err
			rest = append(rest, reqs[i])
		}
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

// forward answers one request on the caller's goroutine, its tag
// registered so a cancel frame can abort it: the merged catalog from
// Router.Catalog, every other frame through Router.relay.
func (c *frontConn) forward(ctx context.Context, req *relayReq) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	c.track(req.tag, cancel)
	defer c.track(req.tag, nil)

	if req.op == wire.OpCatalog {
		if len(req.payload) != 0 {
			c.respondError(req.tag, api.Errorf(api.CodeBadRequest,
				"catalog request carries a %d-byte payload, want empty", len(req.payload)))
			return
		}
		rows, _ := c.rt.Catalog(ctx)
		entries := make([]wire.CatalogEntry, len(rows))
		for i, row := range rows {
			entries[i] = row.DatasetInfo
		}
		c.respond(req.tag, client.Frame{Op: wire.OpCatalogResp, Payload: wire.AppendCatalogResp(nil, entries)})
		return
	}
	r, err := c.rt.relay(ctx, req.dataset, req.op, req.payload)
	if err != nil {
		c.respondError(req.tag, proxiedError(err))
		return
	}
	c.respond(req.tag, r.Frame, r.Stream...)
}
