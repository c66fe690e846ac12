package stats

import "sync/atomic"

// Control is the cooperative abort state of one join execution, the
// single mechanism behind context cancellation (a sink cancelling its
// join's context mid-join included) and result limits. The layer that
// owns the execution (the public touch package) creates one Control per
// join and hands it down; every join inner loop polls it
// through a worker-local Ticker and unwinds as soon as it reads true.
//
// A Control carries no context.Context dependency — only the context's
// done channel — so the algorithm packages stay free of policy. A nil
// *Control is valid everywhere and means "never stop", keeping the
// uncancellable fast path free of any synchronization.
type Control struct {
	done    <-chan struct{} // external cancellation; nil = never fires
	stopped atomic.Bool
	cause   atomic.Int32
}

// Abort causes, reported by Control.Cause. The first abort wins: a join
// that hits its result limit in the same breath as a context timeout is
// reported by whichever signal was observed first.
const (
	// CauseNone: the join ran to completion (or is still running).
	CauseNone int32 = iota
	// CauseContext: the execution context was canceled or timed out.
	CauseContext
	// CauseStop: the consumer stopped the join — the result limit was
	// reached.
	CauseStop
)

// NewControl returns a Control that aborts when done fires (pass a
// context's Done() channel; nil means no external cancellation) or when
// Stop is called.
func NewControl(done <-chan struct{}) *Control {
	return &Control{done: done}
}

// Stop requests a consumer-side abort: the join unwinds at its next
// checkpoint and the caller treats the partial execution as a normal,
// deliberately truncated result. Safe to call from any goroutine, any
// number of times.
func (c *Control) Stop() { c.abort(CauseStop) }

func (c *Control) abort(cause int32) {
	if c == nil {
		return
	}
	c.cause.CompareAndSwap(CauseNone, cause)
	c.stopped.Store(true)
}

// Stopped reports whether the join should abort, polling the external
// done channel as a side effect. It is cheap (one atomic load on the
// common path) but not free — hot loops amortize it through a Ticker.
// A nil Control never stops.
func (c *Control) Stopped() bool {
	if c == nil {
		return false
	}
	if c.stopped.Load() {
		return true
	}
	if c.done != nil {
		select {
		case <-c.done:
			c.abort(CauseContext)
			return true
		default:
		}
	}
	return false
}

// Cause reports why the join stopped (CauseNone while it runs or after
// an undisturbed completion).
func (c *Control) Cause() int32 {
	if c == nil {
		return CauseNone
	}
	return c.cause.Load()
}

// CheckEvery is the amortized cancellation-checkpoint interval: join
// inner loops poll their Control roughly once per this many
// object–object comparisons. It bounds both the overhead of a
// checkpoint (one predictable branch per comparison between polls) and
// the abort latency (at most this many comparisons per worker after the
// signal, plus the current indivisible work unit).
const CheckEvery = 4096

// Ticker amortizes Control polls for one worker: Tick costs a decrement
// and a branch, and only every CheckEvery accumulated units does it
// actually poll the shared Control. Each goroutine owns its own Ticker
// (they are not safe for concurrent use); a nil *Ticker never stops, so
// call sites without a cancellation path simply pass nil.
type Ticker struct {
	ctl  *Control
	left int64
	hit  bool
}

// NewTicker returns a Ticker polling ctl (which may be nil).
func NewTicker(ctl *Control) Ticker {
	return Ticker{ctl: ctl, left: CheckEvery}
}

// Tick records one unit of work and reports whether the join should
// abort. Once it has returned true it keeps returning true.
func (t *Ticker) Tick() bool { return t.TickN(1) }

// TickN records n units of work at once — a block of candidates tested
// against one grid cell, say — trading a slightly larger abort bound
// (CheckEvery plus the largest block) for one branch per block.
func (t *Ticker) TickN(n int) bool {
	if t == nil {
		return false
	}
	if t.hit {
		return true
	}
	t.left -= int64(n)
	if t.left > 0 {
		return false
	}
	t.left = CheckEvery
	t.hit = t.ctl.Stopped()
	return t.hit
}

// Stopped reports whether an earlier Tick observed the abort signal,
// without polling — the free check loops use between work units.
func (t *Ticker) Stopped() bool { return t != nil && t.hit }
