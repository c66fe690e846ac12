package client

import (
	"context"

	"touch"
)

// Batch queues requests for one pipelined send: every queued request is
// encoded into a shared buffer, and Send writes them all with a single
// flush. Add returns a future whose Get blocks until that request's
// response arrives (so futures may be harvested in any order, though
// responses arrive in queue order). A Batch is not safe for concurrent
// use; futures are.
//
// Queue, Send, harvest, then reuse the Batch for the next round —
// the encode buffer is retained, so steady-state batches allocate only
// the per-request bookkeeping.
type Batch struct {
	c    *Conn
	buf  []byte
	reqs []batchReq
	last *call // of the newest queued request
	err  error
}

type batchReq struct {
	op       byte
	tag      uint32
	off, end int
}

// Batch returns an empty batch on this connection.
func (c *Conn) Batch() *Batch { return &Batch{c: c} }

// Len reports how many requests are queued and unsent.
func (b *Batch) Len() int { return len(b.reqs) }

// Add queues a request — the pipelined form of Conn.Do. The request is
// encoded onto the batch's shared buffer, refused alone if the server's
// frame cap would refuse it (see Conn.admit), and given its tag.
func (b *Batch) Add(req Request) ReplyFuture {
	if b.err != nil {
		return ReplyFuture{err: b.err}
	}
	off := len(b.buf)
	b.buf = req.appendTo(b.buf)
	if err := b.c.admit(len(b.buf) - off); err != nil {
		b.buf = b.buf[:off]
		return ReplyFuture{err: err}
	}
	tag, cl, err := b.c.register()
	if err != nil {
		b.buf, b.err = b.buf[:off], err
		return ReplyFuture{err: err}
	}
	b.reqs = append(b.reqs, batchReq{op: req.op, tag: tag, off: off, end: len(b.buf)})
	b.last = cl
	return ReplyFuture{c: b.c, tag: tag, call: cl}
}

// Range queues a Range request. It stays only until ROADMAP item 2
// moves the benchmark to Add.
func (b *Batch) Range(dataset string, box touch.Box) IDsFuture {
	return IDsFuture{b.Add(Range(dataset, box))}
}

// KNN queues a KNN request. It stays only until ROADMAP item 2
// moves the benchmark to Add.
func (b *Batch) KNN(dataset string, pt touch.Point, k int) NeighborsFuture {
	return NeighborsFuture{b.Add(KNN(dataset, pt, k))}
}

// Send writes every queued request in one burst with one flush, then
// resets the batch for reuse. It does not wait for responses — harvest
// the futures. Nobody is waiting on the batch yet, so Send gives it a
// reader of its own until its last response is in: the answers are
// drained while the caller still writes or harvests, however deep the
// pipeline, and never back up into the server. On a write error the
// connection is poisoned and every queued future fails.
func (b *Batch) Send() error {
	if b.err != nil {
		err := b.err
		b.reqs, b.buf, b.last, b.err = b.reqs[:0], b.buf[:0], nil, nil
		return err
	}
	c := b.c
	if b.last != nil {
		go c.await(b.last)
		b.last = nil
	}
	c.wmu.Lock()
	var err error
	for _, r := range b.reqs {
		if err = c.w.WriteFrame(r.op, r.tag, b.buf[r.off:r.end]); err != nil {
			break
		}
	}
	if err == nil {
		err = c.w.Flush()
	}
	c.wmu.Unlock()
	b.reqs, b.buf = b.reqs[:0], b.buf[:0]
	if err != nil {
		c.fail(err)
		return err
	}
	return nil
}

// ReplyFuture resolves to a queued request's Reply, undecoded.
type ReplyFuture struct {
	c    *Conn
	tag  uint32
	call *call
	err  error // queue-time failure: Get reports it without blocking
}

// Get blocks until the request's terminal frame has arrived (see
// Conn.Do for what is a Reply and what is an error).
func (f ReplyFuture) Get(ctx context.Context) (*Reply, error) {
	if f.err != nil {
		return nil, f.err
	}
	return f.c.wait(ctx, f.tag, f.call)
}

// IDsFuture is a ReplyFuture decoded by Reply.IDs. It stays only until
// ROADMAP item 2 moves the benchmark to Add.
type IDsFuture struct{ f ReplyFuture }

func (f IDsFuture) Get(ctx context.Context) (version int64, ids []touch.ID, err error) {
	return settle(f.f.Get(ctx)).IDs()
}

// NeighborsFuture is a ReplyFuture decoded by Reply.Neighbors. It stays
// only until ROADMAP item 2 moves the benchmark to Add.
type NeighborsFuture struct{ f ReplyFuture }

func (f NeighborsFuture) Get(ctx context.Context) (version int64, nbrs []touch.Neighbor, err error) {
	return settle(f.f.Get(ctx)).Neighbors()
}
