package client

import (
	"context"

	"touch"
	"touch/internal/wire"
)

// Batch queues requests for one pipelined send: every queued request is
// encoded into a shared buffer, and Send writes them all with a single
// flush. Each queue call returns a future; Get blocks until that
// request's response arrives (so futures may be harvested in any
// order, though responses arrive in queue order). A Batch is not safe
// for concurrent use; futures are.
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

// add is the batch's one queueing step: encode the payload onto the
// shared buffer, refuse it alone if the server's frame cap would (see
// Conn.admit), then reserve its tag.
func (b *Batch) add(op byte, encode func([]byte) []byte) ReplyFuture {
	if b.err != nil {
		return ReplyFuture{err: b.err}
	}
	off := len(b.buf)
	b.buf = encode(b.buf)
	if err := b.c.admit(len(b.buf) - off); err != nil {
		b.buf = b.buf[:off]
		return ReplyFuture{err: err}
	}
	tag, cl, err := b.c.register()
	if err != nil {
		b.buf, b.err = b.buf[:off], err
		return ReplyFuture{err: err}
	}
	b.reqs = append(b.reqs, batchReq{op: op, tag: tag, off: off, end: len(b.buf)})
	b.last = cl
	return ReplyFuture{c: b.c, tag: tag, call: cl}
}

// Do queues a raw request — an opcode and an already encoded payload,
// copied — the pipelined form of Conn.Do.
func (b *Batch) Do(op byte, payload []byte) ReplyFuture {
	return b.add(op, func(dst []byte) []byte { return append(dst, payload...) })
}

// Range queues a range query.
func (b *Batch) Range(dataset string, box touch.Box) IDsFuture {
	return IDsFuture{b.add(wire.OpRange, func(dst []byte) []byte {
		return wire.AppendRangeReq(dst, dataset, box)
	})}
}

// Point queues a point query.
func (b *Batch) Point(dataset string, pt touch.Point) IDsFuture {
	return IDsFuture{b.add(wire.OpPoint, func(dst []byte) []byte {
		return wire.AppendPointReq(dst, dataset, pt)
	})}
}

// KNN queues a k-nearest-neighbors query.
func (b *Batch) KNN(dataset string, pt touch.Point, k int) NeighborsFuture {
	return NeighborsFuture{b.add(wire.OpKNN, func(dst []byte) []byte {
		return wire.AppendKNNReq(dst, dataset, pt, k)
	})}
}

// JoinCount queues a count-only join.
func (b *Batch) JoinCount(dataset string, spec JoinSpec) CountFuture {
	return CountFuture{b.add(wire.OpJoin, func(dst []byte) []byte {
		return wire.AppendJoinReq(dst, dataset, spec.Eps, spec.Workers, true, spec.Probe, spec.Boxes)
	})}
}

// Join queues a pair-materializing join.
func (b *Batch) Join(dataset string, spec JoinSpec) JoinFuture {
	return JoinFuture{b.add(wire.OpJoin, func(dst []byte) []byte {
		return wire.AppendJoinReq(dst, dataset, spec.Eps, spec.Workers, false, spec.Probe, spec.Boxes)
	})}
}

// Update queues an incremental-update batch. Updates execute in queue
// order on the server, so a query queued after an update in the same
// batch observes it.
func (b *Batch) Update(dataset string, spec UpdateSpec) UpdateFuture {
	return UpdateFuture{b.add(wire.OpUpdate, func(dst []byte) []byte {
		return wire.AppendUpdateReq(dst, dataset, spec.Delete, spec.Insert)
	})}
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

// ReplyFuture resolves to a queued request's Reply, undecoded; the typed
// futures below are a ReplyFuture and one of Reply's decoders.
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

// IDsFuture resolves to a range or point query's answer.
type IDsFuture struct{ f ReplyFuture }

func (f IDsFuture) Get(ctx context.Context) (version int64, ids []touch.ID, err error) {
	r, err := f.f.Get(ctx)
	if err != nil {
		return 0, nil, err
	}
	return r.IDs()
}

// NeighborsFuture resolves to a kNN query's answer.
type NeighborsFuture struct{ f ReplyFuture }

func (f NeighborsFuture) Get(ctx context.Context) (version int64, nbrs []touch.Neighbor, err error) {
	r, err := f.f.Get(ctx)
	if err != nil {
		return 0, nil, err
	}
	return r.Neighbors()
}

// CountFuture resolves to a count-only join's answer.
type CountFuture struct{ f ReplyFuture }

func (f CountFuture) Get(ctx context.Context) (version, count int64, err error) {
	r, err := f.f.Get(ctx)
	if err != nil {
		return 0, 0, err
	}
	return r.Count()
}

// UpdateFuture resolves to an update batch's result.
type UpdateFuture struct{ f ReplyFuture }

func (f UpdateFuture) Get(ctx context.Context) (UpdateResult, error) {
	r, err := f.f.Get(ctx)
	if err != nil {
		return UpdateResult{}, err
	}
	return r.Update()
}

// JoinFuture resolves to a materialized join's answer, pairs sorted
// canonically.
type JoinFuture struct{ f ReplyFuture }

func (f JoinFuture) Get(ctx context.Context) (version int64, pairs []touch.Pair, count int64, err error) {
	r, err := f.f.Get(ctx)
	if err != nil {
		return 0, nil, 0, err
	}
	return r.Join()
}
