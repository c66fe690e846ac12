package touch

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"touch/internal/core"
	"touch/internal/stats"
	"touch/internal/trace"
)

// Index is a reusable TOUCH partitioning tree built once over a dataset
// and joined against many probe datasets — the scenario §4.3 of the
// paper mentions ("should one of the datasets already be indexed with a
// hierarchical index ... the tree building phase can be skipped").
//
// Beyond batch joins, the built tree doubles as a general query engine
// over the indexed dataset: RangeQuery, PointQuery and KNN answer
// single-probe questions through the same hierarchy.
//
// The tree is immutable after BuildIndex; everything a single join or
// query writes lives in a per-query probe object drawn from an internal
// sync.Pool. Join, DistanceJoin and all query methods are therefore
// safe for arbitrary concurrent callers on one shared Index, and
// steady-state serving recycles all probe state, allocating near zero
// per query.
type Index struct {
	tree   *core.Tree
	lenA   int
	maxID  ID        // largest indexed object ID, -1 when empty
	probes sync.Pool // *core.Probe
}

// BuildIndex constructs the TOUCH tree on the dataset with the given
// configuration (zero value = paper defaults: 1024 partitions, fanout 2).
// cfg.Workers sets the default per-query parallelism; Options.Workers
// overrides it per call.
func BuildIndex(a Dataset, cfg TOUCHConfig) *Index {
	return indexFromTree(core.Build(a, cfg), len(a))
}

// Join runs TOUCH's assignment and join phases against b, reusing the
// prebuilt tree. Result pairs are in (index dataset, b) orientation.
// Safe to call concurrently on a shared Index: each call checks a
// private probe out of the pool and the tree is never written. It is
// JoinCtx with a background context — uncancellable, and free of any
// cancellation bookkeeping unless Options.Limit is set.
func (ix *Index) Join(b Dataset, opt *Options) *Result {
	// A background context can never cancel, so the only abort cause is
	// a limit stop — not an error.
	res, _ := ix.JoinCtx(context.Background(), b, opt)
	return res
}

// JoinCtx is Join under a context: cancelling ctx (or its deadline
// expiring) aborts the assignment and join phases cooperatively — every
// worker checkpoints at least once per CheckEvery comparisons — and
// returns ctx's error wrapped in ErrJoinCanceled. A join stopped by
// Options.Limit is not an error; it returns the truncated result. The
// probe recycles cleanly either way: an aborted call leaves no state
// behind for the next join drawing the same probe from the pool.
func (ix *Index) JoinCtx(ctx context.Context, b Dataset, opt *Options) (*Result, error) {
	o := opt.normalized()
	if err := ctx.Err(); err != nil {
		return nil, canceled(err)
	}
	ctl := control(ctx, &o)
	res := &Result{}
	sink, finish := joinSink(&o, false, ctl, res)
	ix.runProbe(b, o.Workers, ctl, &res.Stats, sink)
	err := canceledErr(ctx, ctl)
	if err == nil {
		finish()
	}
	if t := o.Trace; t != nil {
		t.Record(&res.Stats)
		t.SetCancel(ctl.Cause())
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// runProbe is the engine block shared by JoinCtx and JoinSeq: draw a
// probe from the pool, pin its worker count (a recycled probe keeps its
// previous count, so it is re-pinned to the build-time default unless
// the call overrides it), run the assignment and join phases with their
// timings, and account the memory.
func (ix *Index) runProbe(b Dataset, workers int, ctl *stats.Control, c *Stats, sink Sink) {
	p := ix.probes.Get().(*core.Probe)
	defer ix.probes.Put(p)
	if workers > 1 {
		p.SetWorkers(workers)
	} else {
		p.SetWorkers(ix.tree.Workers())
	}

	start := time.Now()
	p.Assign(b, ctl, c)
	c.AssignTime += time.Since(start)
	start = time.Now()
	p.JoinPhase(ctl, c, sink)
	c.JoinTime += time.Since(start)
	c.MemoryBytes += ix.tree.StaticBytes() + p.MemoryBytes()
}

// DistanceJoin is Join with the probe dataset's boxes enlarged by eps —
// note that for a reusable index the expansion must be applied to the
// probe side, unlike the one-shot DistanceJoin which expands A. Like the
// one-shot DistanceJoin, a negative eps is rejected.
func (ix *Index) DistanceJoin(b Dataset, eps float64, opt *Options) (*Result, error) {
	return ix.DistanceJoinCtx(context.Background(), b, eps, opt)
}

// DistanceJoinCtx is DistanceJoin under a context, with the cancellation
// and limit semantics of JoinCtx.
func (ix *Index) DistanceJoinCtx(ctx context.Context, b Dataset, eps float64, opt *Options) (*Result, error) {
	if err := checkEps(eps); err != nil {
		return nil, err
	}
	return ix.JoinCtx(ctx, b.Expand(eps), opt)
}

// IndexStats describes the immutable build artifact behind an Index:
// the indexed object count, the shape of the partitioning tree and its
// analytic memory footprint. Serving layers use it for catalog listings
// and metrics without reaching into the internal tree.
type IndexStats struct {
	// Objects is the number of indexed objects (|A|).
	Objects int
	// Nodes is the total node count of the partitioning tree, leaves
	// included.
	Nodes int
	// Leaves is the number of leaf buckets (≤ the configured Partitions).
	Leaves int
	// Height is the number of tree levels; 1 means a single leaf.
	Height int
	// StaticBytes is the analytic footprint of the immutable build
	// artifact — the tree structure plus the A references in the buckets
	// (§6.4). Per-query probe state is accounted separately, in
	// Stats.MemoryBytes of each join result.
	StaticBytes int64
}

// Stats reports the size and shape of the index. The values are fixed at
// BuildIndex time; calling Stats never touches per-query state, so it is
// safe concurrently with any queries.
func (ix *Index) Stats() IndexStats {
	t := ix.tree
	return IndexStats{
		Objects:     ix.lenA,
		Nodes:       t.Nodes,
		Leaves:      t.Leaves,
		Height:      t.Height,
		StaticBytes: t.StaticBytes(),
	}
}

// checkPoint validates a query point's coordinates.
func checkPoint(p Point) error {
	for d := range p {
		if math.IsNaN(p[d]) {
			return fmt.Errorf("%w %v", ErrInvalidPoint, p)
		}
	}
	return nil
}

// RangeQuery returns the IDs of every indexed object whose MBR
// intersects q, sorted ascending. Touching boundaries count as
// intersecting (closed-interval semantics, the same predicate the joins
// use). A malformed box — NaN coordinates or Min > Max in some
// dimension — is rejected with ErrInvalidBox; build boxes with NewBox
// to normalize corner order.
//
// The traversal is the best case O(log |A| + r) for r results: node
// MBRs prune disjoint subtrees, and a subtree fully inside q is emitted
// as one contiguous arena scan with no per-object tests. Safe for
// arbitrary concurrent callers on a shared Index; steady-state serving
// allocates only the returned slice.
func (ix *Index) RangeQuery(q Box) ([]ID, error) { return ix.RangeQueryTraced(q, nil) }

// RangeQueryTraced is RangeQuery with per-request tracing: a non-nil
// span receives the descent wall time (PhaseQuery) and the traversal
// counters the query engine already maintains. A nil span is exactly
// RangeQuery — no timing, no allocations.
func (ix *Index) RangeQueryTraced(q Box, sp *Span) ([]ID, error) {
	if !q.Valid() {
		return nil, fmt.Errorf("%w %v", ErrInvalidBox, q)
	}
	p := ix.probes.Get().(*core.Probe)
	defer ix.probes.Put(p)
	var c Stats
	if sp == nil {
		return slices.Clone(p.RangeQuery(q, &c)), nil
	}
	start := time.Now()
	ids := slices.Clone(p.RangeQuery(q, &c))
	sp.Add(trace.PhaseQuery, time.Since(start))
	c.Results = int64(len(ids))
	sp.Record(&c)
	return ids, nil
}

// PointQuery returns the IDs of every indexed object whose MBR contains
// the point (x, y, z), boundary included, sorted ascending. It is
// RangeQuery with a zero-extent box; NaN coordinates are rejected with
// ErrInvalidPoint.
func (ix *Index) PointQuery(x, y, z float64) ([]ID, error) {
	return ix.PointQueryTraced(x, y, z, nil)
}

// PointQueryTraced is PointQuery with per-request tracing; see
// RangeQueryTraced.
func (ix *Index) PointQueryTraced(x, y, z float64, sp *Span) ([]ID, error) {
	pt := Point{x, y, z}
	if err := checkPoint(pt); err != nil {
		return nil, err
	}
	p := ix.probes.Get().(*core.Probe)
	defer ix.probes.Put(p)
	var c Stats
	if sp == nil {
		return slices.Clone(p.PointQuery(pt, &c)), nil
	}
	start := time.Now()
	ids := slices.Clone(p.PointQuery(pt, &c))
	sp.Add(trace.PhaseQuery, time.Since(start))
	c.Results = int64(len(ids))
	sp.Record(&c)
	return ids, nil
}

// KNN returns the k indexed objects nearest to q by minimum Euclidean
// distance between the point and each object's MBR, ordered by
// (Distance, ID) ascending — equal distances resolve to the smaller
// object ID, so results are deterministic. Fewer than k neighbors are
// returned when the index holds fewer than k objects. k < 1 is rejected
// with ErrInvalidK and NaN coordinates with ErrInvalidPoint.
//
// The search is best-first branch and bound over node MBRs with a
// distance-ordered priority queue, visiting only the nodes whose MBR
// distance can still beat the current k-th neighbor — O(log |A| + k)
// node visits on well-separated data. Safe for arbitrary concurrent
// callers on a shared Index; steady-state serving allocates only the
// returned slice.
func (ix *Index) KNN(q Point, k int) ([]Neighbor, error) { return ix.KNNTraced(q, k, nil) }

// KNNTraced is KNN with per-request tracing; see RangeQueryTraced.
func (ix *Index) KNNTraced(q Point, k int, sp *Span) ([]Neighbor, error) {
	return ix.knn(q, k, nil, sp)
}

// knn is the one kNN entry point: KNNTraced over the indexed objects
// whose IDs are not in skip (ascending, may be nil). Overlay passes its
// tombstones, so the base search returns exactly the k live neighbors.
func (ix *Index) knn(q Point, k int, skip []ID, sp *Span) ([]Neighbor, error) {
	if k < 1 {
		return nil, fmt.Errorf("%w (got %d)", ErrInvalidK, k)
	}
	if err := checkPoint(q); err != nil {
		return nil, err
	}
	p := ix.probes.Get().(*core.Probe)
	defer ix.probes.Put(p)
	var c Stats
	if sp == nil {
		return slices.Clone(p.KNN(q, k, &c, skip...)), nil
	}
	start := time.Now()
	nbrs := slices.Clone(p.KNN(q, k, &c, skip...))
	sp.Add(trace.PhaseQuery, time.Since(start))
	c.Results = int64(len(nbrs))
	sp.Record(&c)
	return nbrs, nil
}
