package touch

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"touch/internal/core"
	"touch/internal/geom"
	"touch/internal/nl"
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
// single-probe questions through the same hierarchy. The read surface is
// the reader's, with nothing pending: an Index answers exactly as an
// Overlay with no inserts and no tombstones does, at the same cost.
//
// The tree is immutable after BuildIndex; everything a single join or
// query writes lives in a per-query probe object drawn from an internal
// sync.Pool. Join, DistanceJoin and all query methods are therefore
// safe for arbitrary concurrent callers on one shared Index, and
// steady-state serving recycles all probe state, allocating near zero
// per query.
type Index struct {
	reader
	maxID ID // largest indexed object ID, -1 when empty
}

// BuildIndex constructs the TOUCH tree on the dataset with the given
// configuration (zero value = paper defaults: 1024 partitions, fanout 2).
// cfg.Workers sets the default per-query parallelism; Options.Workers
// overrides it per call.
func BuildIndex(a Dataset, cfg TOUCHConfig) *Index {
	return indexFromTree(core.Build(a, cfg))
}

// reader is the one read surface of the package: a short list of
// immutable TOUCH trees — tiers, over ascending, disjoint ID ranges,
// tiers[0] being the base — plus a possibly-empty delta of pending
// updates. Index embeds it with one tier and nothing pending, Overlay
// with the tiers, the unindexed tail and the tombstones of one
// generation, and Mutable.View returns the current one; all ten query
// and join methods are declared here and answer bit-identically to an
// index rebuilt from the merged dataset.
//
// Reads fan over the tiers: a range query concatenates the tiers'
// answers, already ascending by the ID-range invariant; a kNN search
// runs base to top over one k-slot heap, so a tier beyond the k-th
// distance found so far costs its root test; a join runs one probe per
// tier. The delta is held as its two slices, as they are: the inserts no
// fold has indexed yet, which may contain tombstoned objects, and the
// tombstones — of tier objects and inserts alike — ascending. A
// tombstone is tested by binary search, and only on an object that is
// already a hit. Every delta pass starts by returning when its slice is
// empty, so with one tier and nothing pending a read runs the bare
// tree's instructions plus those branches, and its trace carries no
// delta or overlay phase.
//
// A reader is immutable and holds references only: safe for arbitrary
// concurrent callers, each call drawing a private probe from the pool of
// the tier it probes.
type reader struct {
	tiers   []tier
	upper   []*core.Tree // the trees of tiers[1:], as the engine's queries take them
	inserts Dataset
	tombs   []ID
}

// tier is one immutable tree of a reader with the objects it indexes.
type tier struct {
	// ds is the tier's dataset, ID-ascending: what a fold merges and an
	// update searches. A bare Index keeps none — its caller holds the
	// dataset — and only generations made by OverlayOf carry it.
	ds     Dataset
	tree   *core.Tree
	probes *sync.Pool // *core.Probe, shared by every reader over tree
}

// newReader returns the reader over tiers with nothing pending.
func newReader(tiers []tier) reader {
	r := reader{tiers: tiers}
	for _, t := range tiers[1:] {
		r.upper = append(r.upper, t.tree)
	}
	return r
}

// frozen reports whether nothing is pending.
func (r *reader) frozen() bool { return len(r.inserts) == 0 && len(r.tombs) == 0 }

// Join runs TOUCH's assignment and join phases against b, reusing the
// prebuilt trees. Result pairs are in (indexed dataset, b) orientation,
// every Options knob honored. Tier after tier is probed, the pairs
// filtered against the tombstones when there are any, and a brute-force
// pass joins the live inserts, so pair order is the engine's emission
// order tier by tier followed by the insert pass — arbitrary under
// parallelism; sort with Result.SortPairs for a canonical order. Safe to
// call concurrently: each call checks a private probe out of a tier's
// pool and no tree is ever written. It is JoinCtx with a background context —
// uncancellable, and free of any cancellation bookkeeping unless
// Options.Limit is set.
func (r *reader) Join(b Dataset, opt *Options) *Result {
	// A background context can never cancel, so the only abort cause is
	// a limit stop — not an error.
	res, _ := r.JoinCtx(context.Background(), b, opt)
	return res
}

// JoinCtx is Join under a context: cancelling ctx (or its deadline
// expiring) aborts the assignment and join phases and the insert pass
// cooperatively — every worker checkpoints at least once per CheckEvery
// comparisons — and returns ctx's error wrapped in ErrJoinCanceled. A
// join stopped by Options.Limit is not an error; it returns the
// truncated result, and the limit counts only live (delivered) pairs.
// The probe recycles cleanly either way: an aborted call leaves no
// state behind for the next join drawing the same probe from the pool.
func (r *reader) JoinCtx(ctx context.Context, b Dataset, opt *Options) (*Result, error) {
	o := opt.normalized()
	return collect(ctx, &o, false, func(ctl *stats.Control, c *Stats, sink Sink) {
		r.run(b, &o, ctl, c, sink)
	})
}

// run executes one join for JoinCtx: one probe per tier, with
// a tombstone filter in front of the delivery chain when there are
// tombstones, then — unless the join was stopped or nothing is unindexed
// — the brute-force pass over the live inserts into the same chain, one
// nl.Join per run of inserts between two dead ones. The engine counts
// every emission in c.Results before the filter can see it, so the
// dropped pairs are subtracted afterwards, keeping Stats.Results equal to
// the delivered (live) pair count. A non-nil o.Trace records the insert
// pass's wall time as PhaseDelta (the tombstone filter runs inline inside
// the join phase and is not timed separately).
func (r *reader) run(b Dataset, o *Options, ctl *stats.Control, c *Stats, sink Sink) {
	if len(r.tombs) == 0 {
		r.probeTiers(b, o.Workers, ctl, c, sink)
	} else {
		var dropped int64
		r.probeTiers(b, o.Workers, ctl, c, stats.FuncSink(func(a, bid ID) {
			if r.dead(a) {
				dropped++
				return
			}
			sink.Emit(a, bid)
		}))
		c.Results -= dropped
	}
	ins := r.inserts
	if len(ins) == 0 {
		return
	}
	var start time.Time
	if o.Trace != nil {
		start = time.Now()
	}
	for from, i := 0, 0; i <= len(ins); i++ {
		if i < len(ins) && !r.dead(ins[i].ID) {
			continue
		}
		if from < i {
			if ctl.Stopped() {
				break
			}
			nl.Join(ins[from:i], b, ctl, c, sink)
		}
		from = i + 1
	}
	if o.Trace != nil {
		o.Trace.Add(trace.PhaseDelta, time.Since(start))
	}
}

// probeTiers runs the engine over every tier in turn, unless the join is
// stopped on the way.
func (r *reader) probeTiers(b Dataset, workers int, ctl *stats.Control, c *Stats, sink Sink) {
	for i := range r.tiers {
		if i > 0 && ctl.Stopped() {
			return
		}
		r.tiers[i].runProbe(b, workers, ctl, c, sink)
	}
}

// runProbe is the engine block of run: draw a probe from the tier's pool,
// pin its worker count (a recycled probe keeps its previous count, so it
// is re-pinned to the build-time default unless the call overrides it),
// run the assignment and join phases with their timings, and account
// the memory.
func (t *tier) runProbe(b Dataset, workers int, ctl *stats.Control, c *Stats, sink Sink) {
	p := t.probes.Get().(*core.Probe)
	defer t.probes.Put(p)
	if workers > 1 {
		p.SetWorkers(workers)
	} else {
		p.SetWorkers(t.tree.Workers())
	}

	start := time.Now()
	p.Assign(b, ctl, c)
	c.AssignTime += time.Since(start)
	start = time.Now()
	p.JoinPhase(ctl, c, sink)
	c.JoinTime += time.Since(start)
	c.MemoryBytes += t.tree.StaticBytes() + p.MemoryBytes()
}

// DistanceJoin is Join with the probe dataset's boxes enlarged by eps —
// note that for a reusable index the expansion must be applied to the
// probe side (the identity at eps = 0, so base and insert passes see
// the same expanded probe), unlike the one-shot DistanceJoin which
// expands A. Like the one-shot DistanceJoin, a negative eps is
// rejected.
func (r *reader) DistanceJoin(b Dataset, eps float64, opt *Options) (*Result, error) {
	return r.DistanceJoinCtx(context.Background(), b, eps, opt)
}

// DistanceJoinCtx is DistanceJoin under a context, with the cancellation
// and limit semantics of JoinCtx.
func (r *reader) DistanceJoinCtx(ctx context.Context, b Dataset, eps float64, opt *Options) (*Result, error) {
	if err := checkEps(eps); err != nil {
		return nil, err
	}
	return r.JoinCtx(ctx, b.Expand(eps), opt)
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
	// artifact — the tree structure, the A references in the buckets
	// (§6.4) and the leaves' block directory. Per-query probe state is
	// accounted separately, in Stats.MemoryBytes of each join result.
	StaticBytes int64
}

// Stats reports the size and shape of the index. The values are fixed at
// BuildIndex time; calling Stats never touches per-query state, so it is
// safe concurrently with any queries.
func (ix *Index) Stats() IndexStats { return ix.tiers[0].stats() }

func (t *tier) stats() IndexStats {
	return IndexStats{
		Objects:     t.tree.SizeA,
		Nodes:       t.tree.Nodes,
		Leaves:      t.tree.Leaves,
		Height:      t.tree.Height,
		StaticBytes: t.tree.StaticBytes(),
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

// RangeQuery returns the IDs of every live object whose MBR intersects
// q, sorted ascending. Touching boundaries count as intersecting
// (closed-interval semantics, the same predicate the joins use). A
// malformed box — NaN coordinates or Min > Max in some dimension — is
// rejected with ErrInvalidBox; build boxes with NewBox to normalize
// corner order.
//
// The traversal is the best case O(log |A| + r) for r results: node
// MBRs prune disjoint subtrees, a subtree fully inside q is emitted as
// one contiguous arena scan with no per-object tests, and a leaf is
// read block by block under the same rule, tier after tier. Over a
// non-empty delta one pass over the inserts then appends the matches in
// ID order (no sort, no extra allocation) and the answer is filtered
// against the tombstones. Safe for arbitrary concurrent callers; steady-state
// serving allocates only the returned slice.
func (r *reader) RangeQuery(q Box) ([]ID, error) { return r.RangeQueryTraced(q, nil) }

// RangeQueryTraced is RangeQuery with per-request tracing: a non-nil
// span receives the descent wall time (PhaseQuery) and the traversal
// counters the query engine already maintains and, over a non-empty
// delta only, the pass over the pending inserts as PhaseDelta and the
// tombstone filter as PhaseOverlay. A nil span is exactly RangeQuery —
// no timing, no allocations.
func (r *reader) RangeQueryTraced(q Box, sp *Span) ([]ID, error) {
	if !q.Valid() {
		return nil, fmt.Errorf("%w %v", ErrInvalidBox, q)
	}
	probes := r.tiers[0].probes
	p := probes.Get().(*core.Probe)
	defer probes.Put(p)
	var c Stats
	if sp == nil {
		return r.merge(slices.Clone(p.RangeQuery(q, &c, r.upper...)), q, nil), nil
	}
	start := time.Now()
	ids := slices.Clone(p.RangeQuery(q, &c, r.upper...))
	sp.Add(trace.PhaseQuery, time.Since(start))
	c.Results = int64(len(ids))
	sp.Record(&c)
	return r.merge(ids, q, sp), nil
}

// PointQuery returns the IDs of every live object whose MBR contains
// the point (x, y, z), boundary included, sorted ascending. It is
// RangeQuery with a zero-extent box; NaN coordinates are rejected with
// ErrInvalidPoint.
func (r *reader) PointQuery(x, y, z float64) ([]ID, error) {
	return r.PointQueryTraced(x, y, z, nil)
}

// PointQueryTraced is PointQuery with per-request tracing; see
// RangeQueryTraced.
func (r *reader) PointQueryTraced(x, y, z float64, sp *Span) ([]ID, error) {
	pt := Point{x, y, z}
	if err := checkPoint(pt); err != nil {
		return nil, err
	}
	return r.RangeQueryTraced(geom.BoxAt(pt), sp)
}

// KNN returns the k live objects nearest to q by minimum Euclidean
// distance between the point and each object's MBR, ordered by
// (Distance, ID) ascending — equal distances resolve to the smaller
// object ID, so results are deterministic. Fewer than k neighbors are
// returned when fewer than k objects are live. k < 1 is rejected with
// ErrInvalidK and NaN coordinates with ErrInvalidPoint.
//
// The search is a bounded best-first branch and bound: a
// distance-ordered priority queue of nodes and leaf blocks, the best k
// objects so far in a k-slot heap, and everything strictly beyond the
// k-th distance dropped unseen — O(log |A| + k) node visits on
// well-separated data. The tiers are searched base to top over that one
// heap, so a tier wholly beyond the k-th distance found below it costs
// one node test, with the tombstones as the skip list, looked up only
// for an object that would enter the heap; one pass over the inserts
// then improves the same heap, touching it only when an insert beats
// the current k-th neighbor. Safe for
// arbitrary concurrent callers; steady-state serving allocates only the
// returned slice.
func (r *reader) KNN(q Point, k int) ([]Neighbor, error) { return r.KNNTraced(q, k, nil) }

// KNNTraced is KNN with per-request tracing; see RangeQueryTraced. The
// insert pass records PhaseDelta; the tombstone test runs inside the
// search.
func (r *reader) KNNTraced(q Point, k int, sp *Span) ([]Neighbor, error) {
	if k < 1 {
		return nil, fmt.Errorf("%w (got %d)", ErrInvalidK, k)
	}
	if err := checkPoint(q); err != nil {
		return nil, err
	}
	probes := r.tiers[0].probes
	p := probes.Get().(*core.Probe)
	defer probes.Put(p)
	var c Stats
	var start time.Time
	if sp != nil {
		start = time.Now()
	}
	p.Nearest(q, k, &c, r.tombs, r.upper...)
	if sp != nil {
		sp.Add(trace.PhaseQuery, time.Since(start))
	}
	if len(r.inserts) > 0 {
		if sp != nil {
			start = time.Now()
		}
		p.Offer(r.inserts, q, k, r.tombs)
		if sp != nil {
			sp.Add(trace.PhaseDelta, time.Since(start))
		}
	}
	nbrs := slices.Clone(p.Neighbors(&c))
	sp.Record(&c)
	return nbrs, nil
}
