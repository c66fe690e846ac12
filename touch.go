// Package touch is a from-scratch Go implementation of TOUCH — the
// in-memory spatial join by hierarchical data-oriented partitioning of
// Nobari et al. (SIGMOD 2013) — together with every baseline the paper
// evaluates against: nested loop, plane-sweep, PBSM (Patel & DeWitt), S3
// (Koudas & Sevcik), the indexed nested loop join and the synchronous
// R-tree traversal join (Brinkhoff et al.).
//
// The package answers two kinds of queries over 3-D datasets of spatial
// objects approximated by minimum bounding rectangles (MBRs):
//
//   - the intersection join: all pairs (a ∈ A, b ∈ B) whose MBRs
//     intersect;
//   - the distance join: all pairs within distance ε (per-dimension),
//     reduced to an intersection join by enlarging one dataset's boxes by
//     ε, set with Options.Eps.
//
// Both are one call: SpatialJoin for two datasets, Overlay.Join (an Index
// is an Overlay) against a prebuilt tree. Every join reports the paper's
// implementation-independent metrics — object–object comparisons,
// filtered objects, analytic memory footprint and per-phase timings —
// through the Stats of its Result.
//
// A minimal distance join:
//
//	a := touch.GenerateUniform(10_000, 1)
//	b := touch.GenerateUniform(40_000, 2)
//	res, err := touch.SpatialJoin(ctx, touch.AlgTOUCH, a, b, &touch.Options{Eps: 5})
//	if err != nil { ... }
//	fmt.Println(len(res.Pairs), res.Stats.Comparisons)
//
// Execution is context-first: a join aborts cooperatively when its
// context is canceled, returning ErrJoinCanceled within a bounded number
// of comparisons, and Options.Sink streams result pairs as the engine
// finds them, with O(1) result memory — cancelling the context (from
// inside the sink too) or Options.Limit stops the engine instead of
// letting it run to completion. A context that can never be canceled,
// such as context.Background(), adds no cancellation bookkeeping.
package touch

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"touch/internal/core"
	"touch/internal/geom"
	"touch/internal/nl"
	"touch/internal/parallel"
	"touch/internal/pbsm"
	"touch/internal/rtree"
	"touch/internal/s3"
	"touch/internal/stats"
	"touch/internal/sweep"
	"touch/internal/trace"
)

// Re-exported geometric types; see the geom package for their methods.
type (
	// ID identifies a spatial object within its dataset.
	ID = geom.ID
	// Point is a location in 3-D space.
	Point = geom.Point
	// Box is an axis-aligned minimum bounding rectangle.
	Box = geom.Box
	// Object is a spatial object: an ID plus its MBR.
	Object = geom.Object
	// Dataset is an unsorted, unindexed collection of objects.
	Dataset = geom.Dataset
	// Pair is one join result: the IDs of the matched objects.
	Pair = geom.Pair
	// Segment is a 3-D line segment.
	Segment = geom.Segment
	// Cylinder is a capsule (segment + radius), the shape of the
	// neuroscience models' neuron branches.
	Cylinder = geom.Cylinder
	// CylinderSet is a dataset with exact cylinder geometry.
	CylinderSet = geom.CylinderSet
	// Stats carries comparison counts, filtering counts, analytic memory
	// footprint and phase timings of one join execution.
	Stats = stats.Counters
	// Sink receives result pairs as they are produced, for streaming
	// consumption without materializing the result set.
	Sink = stats.Sink
	// TOUCHConfig are TOUCH's tunable parameters (partitions, fanout,
	// local-join grid resolution).
	TOUCHConfig = core.Config
	// Span is a per-request trace record: phase wall times (assignment,
	// join, query descent, overlay merge, delta scan, …) plus the engine
	// counters of one execution. Attach one via Options.Trace or the
	// *Traced query variants; a nil *Span disables tracing at zero cost.
	Span = trace.Span
	// TracePhase identifies one timed segment of a Span.
	TracePhase = trace.Phase
)

// NewBox returns the box spanned by the two corner points, normalizing
// the coordinates so that Min[d] <= Max[d] in every dimension — the
// constructor to use for RangeQuery boxes.
func NewBox(a, b Point) Box { return geom.NewBox(a, b) }

// Algorithm names a spatial-join algorithm.
type Algorithm string

// The algorithms of the paper's evaluation (§6), each in the
// configuration the paper evaluates it in; PBSM appears in its two.
const (
	// AlgTOUCH is the paper's contribution: hierarchical data-oriented
	// partitioning with grid local joins.
	AlgTOUCH Algorithm = "touch"
	// AlgNL is the nested loop join, the O(n·m) textbook baseline.
	AlgNL Algorithm = "nl"
	// AlgPS is the in-memory plane-sweep join.
	AlgPS Algorithm = "ps"
	// AlgPBSM500 is PBSM with 500 grid cells per dimension (the paper's
	// fastest but most memory-hungry configuration).
	AlgPBSM500 Algorithm = "pbsm-500"
	// AlgPBSM100 is PBSM with 100 grid cells per dimension.
	AlgPBSM100 Algorithm = "pbsm-100"
	// AlgS3 is the Size Separation Spatial Join.
	AlgS3 Algorithm = "s3"
	// AlgINL is the indexed nested loop join (R-tree on A, one query per
	// object of B).
	AlgINL Algorithm = "inl"
	// AlgRTree is the synchronous R-tree traversal join.
	AlgRTree Algorithm = "rtree"
	// AlgSeeded is the seeded tree join (Lo & Ravishankar), the
	// one-dataset-indexed approach of the paper's related work (§2.2.2).
	// It is not part of the paper's evaluated set (and therefore not in
	// Algorithms()), but is provided for completeness.
	AlgSeeded Algorithm = "seeded"
)

// Algorithms returns all selectable algorithm names, in the order the
// paper introduces them.
func Algorithms() []Algorithm {
	return []Algorithm{AlgNL, AlgPS, AlgPBSM500, AlgPBSM100, AlgS3, AlgINL, AlgRTree, AlgTOUCH}
}

// ValidAlgorithm reports whether alg names an implemented join — the
// same resolution every join entry point performs, so callers that must
// validate before doing irreversible work (creating an output file,
// admitting a request) cannot drift from the engine's registry. It
// accepts everything Algorithms lists plus AlgSeeded.
func ValidAlgorithm(alg Algorithm) bool {
	_, err := bind(alg)
	return err == nil
}

// Options sets a join's distance and tunes its execution. The zero value
// (or a nil pointer) is the intersection join under the paper's
// experimental defaults for every algorithm; the baselines always run in
// the paper's configurations, and only TOUCH's are tunable.
type Options struct {
	// Eps makes the join a distance join: every pair within Eps of each
	// other per dimension (the box distance of the paper's filtering
	// phase), that is the intersection join of A's boxes enlarged by Eps
	// with B's. 0 is the intersection join. A negative or NaN Eps is
	// rejected with ErrNegativeDistance — a box grown by NaN meets every
	// box — and +Inf joins every pair.
	Eps float64
	// TOUCH parameters (partitions, fanout, local grid).
	TOUCH TOUCHConfig
	// KeepOrder disables the join-order heuristic of §5.2.3. By default
	// the smaller dataset is used to build the index/tree (results are
	// always reported in (A, B) orientation regardless). An Overlay join
	// over pending inserts builds a tree over its live inserts or over
	// b, whichever is smaller; KeepOrder builds it over the inserts.
	KeepOrder bool
	// NoPairs suppresses materialization of Result.Pairs; the join only
	// counts results (useful for large experiments). Ignored when Sink
	// is set.
	NoPairs bool
	// Sink, when non-nil, receives pairs as they are found instead of
	// Result.Pairs: the way to consume a join incrementally, in O(1)
	// result memory. Every join entry point promises a sink that
	//
	//   - Emit is never called concurrently: parallel workers and the slab
	//     driver funnel through one stats.LockedSink, so a sink needs no
	//     locking of its own;
	//   - Emit is never called after the join call returns;
	//   - pairs arrive in (A, B) orientation — (indexed dataset, b) on an
	//     Index or Overlay — the join-order swap undone first;
	//   - Emit is called at most Limit times when Limit is set;
	//   - Emit may cancel the join's context: the engine stops at its next
	//     checkpoint (the bound ErrJoinCanceled describes) and, unless it
	//     finished first, the call returns ErrJoinCanceled; pairs found
	//     before that checkpoint still reach Emit.
	//
	// Emit runs on the engine's goroutines: a sink that blocks (on a
	// network write, say) holds the join back with it.
	Sink Sink
	// Workers > 1 parallelizes the join with that many goroutines; 0 and
	// 1 are single-threaded, the paper's setting. AlgTOUCH — including
	// the joins of an Index, Overlay or Mutable.View() — parallelizes
	// internally: the assignment and join phases shard work across
	// goroutines with no object replication. Every other algorithm runs
	// under the slab driver of internal/parallel when Workers > 1, which
	// splits space into contiguous slabs and suppresses boundary
	// duplicates with an ownership rule.
	Workers int
	// Limit > 0 stops the join after exactly that many result pairs have
	// been delivered (to Result.Pairs or the Sink).
	// The engine aborts cooperatively instead of materializing and
	// discarding the excess; a limited join returns normally with
	// Stats.Results equal to the delivered count. Which pairs are kept is
	// deterministic single-threaded and arbitrary under parallelism.
	Limit int64
	// Trace, when non-nil, receives the execution's phase timings,
	// engine counters and cancel cause. The span is written once, after
	// the engine finishes and before the join call returns; nil adds no
	// work and no allocations to the join.
	Trace *Span
}

func (o *Options) normalized() Options {
	if o == nil {
		return Options{}
	}
	return *o
}

// ErrUnknownAlgorithm is wrapped into the error returned when an
// Algorithm name matches no implemented join; test with errors.Is.
var ErrUnknownAlgorithm = errors.New("touch: unknown algorithm")

// ErrNegativeDistance is wrapped into the error returned when a join is
// asked for a negative or NaN Options.Eps; test with errors.Is.
// SpatialJoin and Overlay.Join share it, so the two paths reject
// consistently.
var ErrNegativeDistance = errors.New("touch: negative distance")

// ErrJoinCanceled is wrapped into the error returned when a join's
// context is canceled or times out mid-flight: the engine aborts
// cooperatively within a bounded number of comparisons per worker and
// the partial result is discarded. The bound covers the assignment and
// join phases; a one-shot join's index-construction phase (tree build,
// bulk loads, sort passes) runs to completion before the first
// checkpoint. A join over a prebuilt Index has no such phase, but an
// Overlay join over pending inserts builds one small tree over its live
// tail before that pass's first checkpoint. The returned
// error also wraps the context's own error, so errors.Is matches
// ErrJoinCanceled, context.Canceled and context.DeadlineExceeded as
// appropriate. A join truncated by Options.Limit is a normal
// termination, not an ErrJoinCanceled; a sink that wants to stop early
// cancels the context and gets one.
var ErrJoinCanceled = errors.New("touch: join canceled")

// canceled wraps a context error in ErrJoinCanceled.
func canceled(cause error) error {
	return fmt.Errorf("%w: %w", ErrJoinCanceled, cause)
}

// canceledErr translates an execution's abort state into the public
// error: only a context-caused abort is an error — a limit stop
// terminates normally.
func canceledErr(ctx context.Context, ctl *stats.Control) error {
	if ctl.Cause() == stats.CauseContext {
		return canceled(context.Cause(ctx))
	}
	return nil
}

// control builds the cooperative abort handle for one execution, or nil
// when the context can never fire and no limit is set — the
// uncancellable fast path adds no per-comparison state at all.
func control(ctx context.Context, o *Options) *stats.Control {
	if ctx.Done() == nil && o.Limit <= 0 {
		return nil
	}
	return stats.NewControl(ctx.Done())
}

// ErrInvalidBox is wrapped into the error returned when a box is
// malformed — a query box with NaN coordinates or Min > Max in some
// dimension, or a dataset box with non-finite coordinates rejected by
// the loaders (ReadDataset, DatasetFromBoxes); test with errors.Is.
var ErrInvalidBox = errors.New("touch: invalid box")

// ErrInvalidPoint is wrapped into the error returned when a query point
// has NaN coordinates; test with errors.Is.
var ErrInvalidPoint = errors.New("touch: invalid query point")

// ErrInvalidK is wrapped into the error returned when a kNN query asks
// for fewer than one neighbor; test with errors.Is.
var ErrInvalidK = errors.New("touch: k must be at least 1")

// checkEps validates Options.Eps: NaN is refused with the negative
// values, because a box grown by NaN meets every box.
func checkEps(eps float64) error {
	if !(eps >= 0) {
		return fmt.Errorf("%w %g", ErrNegativeDistance, eps)
	}
	return nil
}

// limitSink truncates delivery at Options.Limit pairs: the first limit
// pairs reach the inner sink, the limit-th triggers a consumer-side
// stop, and anything the engine emits before it observes the stop is
// dropped — so the limit is exact, not approximate. It runs under the
// engine's emission serialization (parallel joins already funnel all
// workers through one locked sink), so no locking is needed here.
type limitSink struct {
	inner     Sink
	ctl       *stats.Control
	left      int64
	delivered int64
}

func (s *limitSink) Emit(a, b geom.ID) {
	if s.left <= 0 {
		return
	}
	s.left--
	s.delivered++
	s.inner.Emit(a, b)
	if s.left == 0 {
		s.ctl.Stop()
	}
}

// pairChunks gathers the pairs of a materializing join. Appending to one
// slice copies everything gathered so far each time it regrows — 59 MB
// allocated to deliver 16 MB of pairs — so the pairs go into chunks that
// double up to maxPairChunk and are joined once, into a Result.Pairs
// sized for them. Full-size chunks come from and go back to
// pairChunkPool, so a join on a warm pool allocates its Result.Pairs and
// little else.
type pairChunks struct {
	full [][]Pair // filled chunks, in emission order
	cur  []Pair   // the chunk being filled
}

const (
	minPairChunk = 256
	maxPairChunk = 64 << 10
)

// pairChunkPool recycles the chunks of maxPairChunk pairs between joins.
// It has no New: an empty pool leaves a join to start small.
var pairChunkPool sync.Pool // *[maxPairChunk]Pair

// Emit implements Sink.
func (p *pairChunks) Emit(a, b geom.ID) {
	if len(p.cur) == cap(p.cur) {
		p.grow()
	}
	p.cur = append(p.cur, Pair{A: a, B: b})
}

// grow files the full current chunk and starts the next: a pooled one
// when there is one, else one twice as large, up to maxPairChunk.
func (p *pairChunks) grow() {
	if p.cur != nil {
		p.full = append(p.full, p.cur)
	}
	if c, ok := pairChunkPool.Get().(*[maxPairChunk]Pair); ok {
		p.cur = c[:0]
		return
	}
	p.cur = make([]Pair, 0, min(max(2*cap(p.cur), minPairChunk), maxPairChunk))
}

// pairs joins the chunks — nil when nothing was emitted — and returns
// the full-size ones to the pool.
func (p *pairChunks) pairs() []Pair {
	chunks := append(p.full, p.cur)
	out := slices.Concat(chunks...)
	for _, c := range chunks {
		if cap(c) == maxPairChunk {
			pairChunkPool.Put((*[maxPairChunk]Pair)(c[:maxPairChunk]))
		}
	}
	p.full, p.cur = nil, nil
	return out
}

// joinSink builds the pair-delivery chain of one join: the engine-facing
// sink (re-orienting pairs when the join-order heuristic swapped the
// datasets, capping delivery when a limit is set) and a finish func the
// caller runs on success to materialize collected pairs into res and pin
// Stats.Results to the delivered count.
func joinSink(o *Options, swapped bool, ctl *stats.Control, res *Result) (sink Sink, finish func()) {
	var base Sink
	var collect *pairChunks
	switch {
	case o.Sink != nil && swapped:
		base = stats.FuncSink(func(x, y geom.ID) { o.Sink.Emit(y, x) })
	case o.Sink != nil:
		base = o.Sink
	case o.NoPairs:
		base = &stats.CountSink{}
	case swapped:
		collect = &pairChunks{}
		base = stats.FuncSink(func(x, y geom.ID) { collect.Emit(y, x) })
	default:
		collect = &pairChunks{}
		base = collect
	}
	sink = base
	var lim *limitSink
	if o.Limit > 0 {
		lim = &limitSink{inner: base, ctl: ctl, left: o.Limit}
		sink = lim
	}
	finish = func() {
		if collect != nil {
			res.Pairs = collect.pairs()
		}
		if lim != nil {
			// The engine's own Results counter may include pairs emitted
			// after the cap; what was delivered is the result.
			res.Stats.Results = lim.delivered
		}
	}
	return sink, finish
}

// SpatialJoin finds every pair of objects (a ∈ A, b ∈ B) whose boxes,
// A's enlarged by Options.Eps, intersect, using the selected algorithm.
// All algorithms produce the identical, duplicate-free result set; they
// differ in the comparisons, memory and time recorded in Result.Stats.
//
// ε is checked first, then the algorithm name, then the context. The
// join-order heuristic of §5.2.3 applies to a distance join unchanged —
// enlarging either dataset yields the same pair set — ε going with A to
// whichever side it lands on. AlgTOUCH copies neither dataset for it: ε
// is applied where the engine copies objects anyway, the tree's arena
// when A builds the tree, each local join's gathered node when it is the
// probe. The other algorithms join an enlarged copy of A.
//
// Cancelling ctx (or its deadline expiring) aborts the join
// cooperatively — every worker checkpoints at least once per CheckEvery
// comparisons — and returns ctx's error wrapped in ErrJoinCanceled. A
// join stopped by Options.Limit is not an error; it returns the
// truncated result.
func SpatialJoin(ctx context.Context, alg Algorithm, a, b Dataset, opt *Options) (*Result, error) {
	o := opt.normalized()
	if err := checkEps(o.Eps); err != nil {
		return nil, err
	}
	join, err := bind(alg)
	if err != nil {
		return nil, err
	}
	eps := o.Eps
	if alg != AlgTOUCH {
		a, eps = a.Expand(eps), 0
	}
	// The join-order heuristic, unless KeepOrder disables it: the smaller
	// dataset builds the tree/index — it is likely sparser, enabling more
	// filtering, and cheaper to index. The delivery chain re-orients the
	// swapped pairs back to (A, B).
	swapped := !o.KeepOrder && len(b) < len(a)
	epsA, epsB := eps, 0.0
	if swapped {
		a, b, epsA, epsB = b, a, epsB, epsA
	}
	return collect(ctx, &o, swapped, func(ctl *stats.Control, c *Stats, sink Sink) {
		switch {
		case alg == AlgTOUCH:
			// TOUCH parallelizes internally instead of running under
			// the slab driver: no replication, no boundary-ownership
			// filter.
			core.JoinExpanded(a, epsA, b, epsB, o.TOUCH, o.Workers, ctl, c, sink)
		case o.Workers > 1:
			parallel.Join(a, b, o.Workers, join, ctl, c, sink)
		default:
			join(a, b, ctl, c, sink)
		}
	})
}

// collect runs one join to completion: build the abort handle and the
// delivery chain — Result.Pairs, a count or Options.Sink — run, and
// translate the abort state. Every join of the package, one-shot or
// over a prebuilt tree, ends here.
func collect(ctx context.Context, o *Options, swapped bool, run func(*stats.Control, *Stats, Sink)) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, canceled(err)
	}
	ctl := control(ctx, o)
	res := &Result{}
	sink, finish := joinSink(o, swapped, ctl, res)
	run(ctl, &res.Stats, sink)
	err := canceledErr(ctx, ctl)
	if err == nil {
		finish()
	}
	if t := o.Trace; t != nil {
		// Record after finish so a limited join traces the delivered
		// count, and even a canceled join traces its partial work.
		t.Record(&res.Stats)
		t.SetCancel(ctl.Cause())
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// DistanceJoin is SpatialJoin under a background context with
// Options.Eps set to eps. It stays, as a wrapper, only because the
// committed benchmark (benchmark/) calls it; it goes once the benchmark
// moves to SpatialJoin (ROADMAP item 2).
func DistanceJoin(alg Algorithm, a, b Dataset, eps float64, opt *Options) (*Result, error) {
	return SpatialJoin(context.Background(), alg, a, b, opt.withEps(eps))
}

// withEps returns a copy of the options with Eps set to eps.
func (o *Options) withEps(eps float64) *Options {
	c := o.normalized()
	c.Eps = eps
	return &c
}

// bind resolves an algorithm name to its JoinFunc in the paper's
// configuration — nil for AlgTOUCH, which SpatialJoin runs itself.
func bind(alg Algorithm) (parallel.JoinFunc, error) {
	switch alg {
	case AlgTOUCH:
		// SpatialJoin runs TOUCH itself: it parallelizes internally and
		// applies ε itself, copying neither dataset for it.
		return nil, nil
	case AlgNL:
		return nl.Join, nil
	case AlgPS:
		return sweep.Join, nil
	case AlgPBSM500:
		return paper(pbsm.Join, pbsm.Config{Resolution: pbsm.Resolution500}), nil
	case AlgPBSM100:
		return paper(pbsm.Join, pbsm.Config{Resolution: pbsm.Resolution100}), nil
	case AlgS3:
		return paper(s3.Join, s3.Config{}), nil
	case AlgINL:
		return paper(rtree.INLJoin, rtree.Config{}), nil
	case AlgRTree:
		return paper(rtree.SyncJoin, rtree.Config{}), nil
	case AlgSeeded:
		return paper(rtree.SeededJoin, rtree.Config{}), nil
	default:
		return nil, fmt.Errorf("%w %q", ErrUnknownAlgorithm, alg)
	}
}

// paper binds a baseline to its configuration.
func paper[C any](join func(a, b Dataset, cfg C, ctl *stats.Control, c *Stats, s Sink), cfg C) parallel.JoinFunc {
	return func(a, b Dataset, ctl *stats.Control, c *Stats, s Sink) { join(a, b, cfg, ctl, c, s) }
}
