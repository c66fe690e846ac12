package touch

import (
	"context"
	"iter"

	"touch/internal/geom"
	"touch/internal/stats"
)

// streamBatchSize is how many pairs the producer buffers before handing
// a batch to the consumer — large enough to amortize the channel
// crossing, small enough that a slow consumer caps the in-flight memory
// at a few kilobytes.
const streamBatchSize = 512

// streamDepth is the channel depth between the join and the consumer:
// a little slack so the engine is not lock-stepped to the consumer,
// while keeping the O(1)-memory promise of a streaming join.
const streamDepth = 4

// streamSink batches emitted pairs onto the consumer channel. It runs
// under the engine's emission serialization (parallel joins funnel all
// workers through one locked sink), so it needs no locking of its own.
// Once the consumer has stopped the join, batches are dropped instead of
// sent — the consumer is only draining at that point.
type streamSink struct {
	ch  chan []Pair
	ctl *stats.Control
	buf []Pair
}

func (s *streamSink) Emit(a, b geom.ID) {
	s.buf = append(s.buf, Pair{A: a, B: b})
	if len(s.buf) >= streamBatchSize {
		s.flush()
	}
}

func (s *streamSink) flush() {
	if len(s.buf) == 0 {
		return
	}
	if !s.ctl.Stopped() {
		s.ch <- s.buf
	}
	s.buf = make([]Pair, 0, streamBatchSize)
}

// streamJoin adapts a push-style join execution into a pull-style
// iterator: the join runs on a producer goroutine and its pairs flow to
// the consumer in batches. Breaking out of the iterator — or reaching
// o.Limit — stops the join at its next checkpoint and drains the
// producer before returning, so no goroutine outlives the loop. A
// context cancellation aborts the join the same way and is surfaced as
// one final (Pair{}, ErrJoinCanceled-wrapped) element.
func streamJoin(ctx context.Context, o *Options, swapped bool, run func(*stats.Control, *Stats, Sink)) iter.Seq2[Pair, error] {
	limit := o.Limit
	return func(yield func(Pair, error) bool) {
		if err := ctx.Err(); err != nil {
			yield(Pair{}, canceled(err))
			return
		}
		ctl := stats.NewControl(ctx.Done())
		ch := make(chan []Pair, streamDepth)
		go func() {
			defer close(ch)
			ss := &streamSink{ch: ch, ctl: ctl}
			var sink Sink = ss
			if swapped {
				sink = stats.FuncSink(func(x, y geom.ID) { ss.Emit(y, x) })
			}
			var c Stats
			run(ctl, &c, sink)
			ss.flush()
			// Trace the engine's work before close(ch) publishes it: the
			// consumer only reads the span after its drain observed the
			// close, so these writes are ordered before any read.
			if t := o.Trace; t != nil {
				t.Record(&c)
				t.SetCancel(ctl.Cause())
			}
		}()
		// Whatever way the loop ends — completion, break, a panic in the
		// loop body — stop the join and drain the channel so the producer
		// can finish and release its probe.
		var delivered int64
		defer func() {
			ctl.Stop()
			for range ch {
			}
			// The engine's own Results counter includes pairs the consumer
			// never saw (emitted before a break/limit stop landed); the
			// span reports what was actually delivered.
			o.Trace.SetResults(delivered)
		}()
		for batch := range ch {
			for _, p := range batch {
				if !yield(p, nil) {
					return
				}
				delivered++
				if limit > 0 {
					if limit--; limit == 0 {
						return
					}
				}
			}
		}
		if err := canceledErr(ctx, ctl); err != nil {
			yield(Pair{}, err)
		}
	}
}

// JoinSeq is the streaming form of SpatialJoinCtx: it returns the result
// pairs as a range-over-func iterator instead of materializing them, so
// arbitrarily large joins run in O(1) result memory. Pairs arrive in the
// engine's emission order (deterministic single-threaded, arbitrary
// under parallelism), each with a nil error; if ctx is canceled
// mid-join the engine aborts cooperatively and the sequence ends with
// one final (Pair{}, err) element where errors.Is(err, ErrJoinCanceled).
// Breaking out of the loop stops the join promptly and cleanly — no
// goroutine or probe state leaks — and Options.Limit truncates the
// sequence after exactly that many pairs. An unknown algorithm yields
// its error as the only element. The iterator itself is the delivery
// path, so the materializing-mode knobs Options.Sink and
// Options.NoPairs are ignored here (as by every JoinSeq variant).
func JoinSeq(ctx context.Context, alg Algorithm, a, b Dataset, opt *Options) iter.Seq2[Pair, error] {
	o := opt.normalized()
	join, err := bind(alg, &o)
	if err != nil {
		return func(yield func(Pair, error) bool) { yield(Pair{}, err) }
	}
	a, b, swapped := o.orderDatasets(a, b)
	return streamJoin(ctx, &o, swapped, func(ctl *stats.Control, c *Stats, sink Sink) {
		dispatch(alg, join, &o, a, b, ctl, c, sink)
	})
}

// JoinSeq is the streaming form of JoinCtx, with the semantics of the
// package-level JoinSeq: pairs are yielded in (indexed dataset, b)
// orientation as the join produces them — base-probe pairs, tombstones
// filtered, followed by the insert pass — breaking out of the loop or
// cancelling ctx aborts the join cooperatively, Options.Limit truncates
// the sequence exactly, and Options.Sink / Options.NoPairs (knobs of
// the materializing mode) are ignored. Safe for arbitrary concurrent
// callers; each iteration draws its own probe from the pool and
// recycles it when the loop ends, however it ends.
func (r *reader) JoinSeq(ctx context.Context, b Dataset, opt *Options) iter.Seq2[Pair, error] {
	o := opt.normalized()
	return streamJoin(ctx, &o, false, func(ctl *stats.Control, c *Stats, sink Sink) {
		r.run(b, &o, ctl, c, sink)
	})
}

// DistanceJoinSeq is JoinSeq with the probe dataset's boxes enlarged by
// eps — the streaming form of DistanceJoinCtx, sharing its validation
// and probe-side expansion. A negative eps yields the
// ErrNegativeDistance-wrapped error as the sequence's only element.
func (r *reader) DistanceJoinSeq(ctx context.Context, b Dataset, eps float64, opt *Options) iter.Seq2[Pair, error] {
	if err := checkEps(eps); err != nil {
		return func(yield func(Pair, error) bool) { yield(Pair{}, err) }
	}
	return r.JoinSeq(ctx, b.Expand(eps), opt)
}
