package touch

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"touch/internal/core"
	"touch/internal/delta"
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
// single-probe questions through the same hierarchy. An Index is the
// dataset's first generation: an Overlay of one tier with nothing
// pending, which Apply and Fold step like any other when its IDs are
// distinct.
//
// The tree is immutable after BuildIndex; everything a single join or
// query writes lives in a per-query probe object drawn from an internal
// sync.Pool. Join and all query methods are therefore safe for
// arbitrary concurrent callers on one shared Index, and steady-state
// serving recycles all probe state, allocating near zero per query.
type Index = Overlay

// BuildIndex constructs the TOUCH tree on the dataset with the given
// configuration (zero value = paper defaults: 1024 partitions, fanout 2)
// and returns the dataset's first generation: the tree as the only tier
// and nothing pending. The configuration describes the tree only: each
// join picks its own parallelism with Options.Workers. The tree keeps
// its own copy of the objects: the index holds no reference to a, whose
// IDs may come in any order, and the first insert will receive an ID
// above every ID in it. Over a repeated ID the index answers every
// query and join, but it is read-only, as a NewOverlay generation is:
// Apply, Fold, Dataset and both EncodeSnapshot forms refuse it.
func BuildIndex(a Dataset, cfg TOUCHConfig) *Index {
	t := newTier(core.Build(a, cfg), delta.IDsOf(a))
	var d *delta.Delta
	if t.ids.Len() == len(a) {
		d = delta.Restored(nil, 0, t.ids.Max())
	}
	return over([]tier{t}, d)
}

// tier is one immutable tree of a generation. The tree's arena, in STR's
// order, is the tier's only copy of its objects; ids, their ID set,
// answers what an update, a fold and Tiers ask of the tier — membership,
// the ID range, and the rank that gathers the arena back into ID order
// (tier.gather).
type tier struct {
	tree   *core.Tree
	ids    delta.IDs
	probes *sync.Pool // *core.Probe, shared by every generation over tree
}

// gather appends the tier's objects to dst in ID order.
func (t *tier) gather(dst Dataset) Dataset { return t.ids.Gather(dst, t.tree.Arena()) }

// over returns the generation of tiers with d pending; a nil d makes it
// read-only with nothing pending.
func over(tiers []tier, d *delta.Delta) *Overlay {
	v := &Overlay{tiers: tiers, d: d}
	for _, t := range tiers[1:] {
		v.upper = append(v.upper, t.tree)
	}
	v.pend(d.Objects(), d.Runs(), d.Tombs())
	return v
}

// pend sets what is pending: inserts, runs sealing a prefix of them, and
// tombs.
func (v *Overlay) pend(inserts Dataset, runs []delta.Run, tombs []ID) {
	v.inserts, v.runs, v.rest, v.tombs = inserts, runs, inserts[delta.Sealed(runs):], tombs
}

// frozen reports whether nothing is pending.
func (v *Overlay) frozen() bool { return len(v.inserts) == 0 && len(v.tombs) == 0 }

// Join runs TOUCH's assignment and join phases against b, reusing the
// prebuilt trees: every pair (indexed object, b) whose boxes intersect
// with b's enlarged by Options.Eps, every other Options knob honored.
// The pairs and Stats of a distance join are those of the intersection
// join against b.Expand(Options.Eps), and b is not copied for it: each
// tier's probe grows the boxes of one node at a time, as that node's
// local join gathers them; only the brute-force pass over pending
// inserts, when there are any, joins an enlarged copy of b. A negative or
// NaN Eps is rejected with ErrNegativeDistance before the context is
// checked, as SpatialJoin rejects it.
//
// Tier after tier is probed, the pairs filtered against the tombstones
// when there are any, and a brute-force pass joins the live inserts, so
// pair order is the engine's emission order tier by tier followed by the
// insert pass — arbitrary under parallelism; sort with Result.SortPairs
// for a canonical order. Safe to call concurrently: each call checks a
// private probe out of a tier's pool and no tree is ever written.
//
// Cancelling ctx (or its deadline expiring) aborts the assignment and
// join phases and the insert pass cooperatively — every worker
// checkpoints at least once per CheckEvery comparisons — and returns
// ctx's error wrapped in ErrJoinCanceled. A join stopped by
// Options.Limit is not an error; it returns the truncated result, and
// the limit counts only live (delivered) pairs. The probe recycles
// cleanly either way: an aborted call leaves no state behind for the
// next join drawing the same probe from the pool.
func (v *Overlay) Join(ctx context.Context, b Dataset, opt *Options) (*Result, error) {
	o := opt.normalized()
	if err := checkEps(o.Eps); err != nil {
		return nil, err
	}
	return collect(ctx, &o, false, func(ctl *stats.Control, c *Stats, sink Sink) {
		v.run(b, &o, ctl, c, sink)
	})
}

// run executes one join for Join, b's boxes enlarged by o.Eps: one
// probe per tier, with a tombstone filter in front of the delivery chain
// when there are tombstones, then — unless the join was stopped or
// nothing is unindexed — the brute-force pass over the live inserts into
// the same chain, one nl.Join per run of inserts between two dead ones.
// The probes grow b's boxes as their local joins gather them; only the
// insert pass, when there is one, joins an enlarged copy of b. The engine counts
// every emission in c.Results before the filter can see it, so the
// dropped pairs are subtracted afterwards, keeping Stats.Results equal to
// the delivered (live) pair count. A non-nil o.Trace records the insert
// pass's wall time as PhaseDelta (the tombstone filter runs inline inside
// the join phase and is not timed separately).
func (v *Overlay) run(b Dataset, o *Options, ctl *stats.Control, c *Stats, sink Sink) {
	if len(v.tombs) == 0 {
		v.probeTiers(b, o.Eps, o.Workers, ctl, c, sink)
	} else {
		var dropped int64
		v.probeTiers(b, o.Eps, o.Workers, ctl, c, stats.FuncSink(func(a, bid ID) {
			if v.dead(a) {
				dropped++
				return
			}
			sink.Emit(a, bid)
		}))
		c.Results -= dropped
	}
	ins := v.inserts
	if len(ins) == 0 {
		return
	}
	var start time.Time
	if o.Trace != nil {
		start = time.Now()
	}
	var grown Dataset // b.Expand(o.Eps), made for the first live run
	for from, i := 0, 0; i <= len(ins); i++ {
		if i < len(ins) && !v.dead(ins[i].ID) {
			continue
		}
		if from < i {
			if ctl.Stopped() {
				break
			}
			if grown == nil {
				grown = b.Expand(o.Eps)
			}
			nl.Join(ins[from:i], grown, ctl, c, sink)
		}
		from = i + 1
	}
	if o.Trace != nil {
		o.Trace.Add(trace.PhaseDelta, time.Since(start))
	}
}

// probeTiers runs the engine over every tier in turn, unless the join is
// stopped on the way.
func (v *Overlay) probeTiers(b Dataset, eps float64, workers int, ctl *stats.Control, c *Stats, sink Sink) {
	for i := range v.tiers {
		if i > 0 && ctl.Stopped() {
			return
		}
		v.tiers[i].runProbe(b, eps, workers, ctl, c, sink)
	}
}

// runProbe is the engine block of run: draw a probe from the tier's pool,
// set the call's worker count (a recycled probe keeps its previous one),
// run the assignment — b's boxes enlarged by eps — and join phases with
// their timings, and account the memory.
func (t *tier) runProbe(b Dataset, eps float64, workers int, ctl *stats.Control, c *Stats, sink Sink) {
	p := t.probes.Get().(*core.Probe)
	defer t.probes.Put(p)
	p.SetWorkers(workers)

	start := time.Now()
	p.AssignExpanded(b, eps, ctl, c)
	c.AssignTime += time.Since(start)
	start = time.Now()
	p.JoinPhase(ctl, c, sink)
	c.JoinTime += time.Since(start)
	c.MemoryBytes += t.tree.StaticBytes() + p.MemoryBytes()
}

// DistanceJoin is Join under a background context with Options.Eps set
// to eps. It stays, as a wrapper, only because the committed benchmark
// (benchmark/) calls it; it goes once the benchmark moves to Join
// (ROADMAP item 1b (m)).
func (v *Overlay) DistanceJoin(b Dataset, eps float64, opt *Options) (*Result, error) {
	return v.Join(context.Background(), b, opt.withEps(eps))
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

// stats describes the tier's tree.
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
// non-empty delta the inserts' matches are appended in ID order — each
// sealed run tested only in the window of its x order that can reach q,
// the few unsealed inserts one by one — and the answer is filtered
// against the tombstones. Safe for arbitrary concurrent callers; steady-state
// serving allocates only the returned slice.
func (v *Overlay) RangeQuery(q Box) ([]ID, error) { return v.RangeQueryTraced(q, nil) }

// RangeQueryTraced is RangeQuery with per-request tracing: a non-nil
// span receives the descent wall time (PhaseQuery) and the traversal
// counters the query engine already maintains and, over a non-empty
// delta only, the read of the pending inserts as PhaseDelta and the
// tombstone filter as PhaseOverlay. A nil span is exactly RangeQuery —
// no timing, no allocations.
func (v *Overlay) RangeQueryTraced(q Box, sp *Span) ([]ID, error) {
	if !q.Valid() {
		return nil, fmt.Errorf("%w %v", ErrInvalidBox, q)
	}
	probes := v.tiers[0].probes
	p := probes.Get().(*core.Probe)
	defer probes.Put(p)
	var c Stats
	if sp == nil {
		return v.merge(slices.Clone(p.RangeQuery(q, &c, v.upper...)), q, nil), nil
	}
	start := time.Now()
	ids := slices.Clone(p.RangeQuery(q, &c, v.upper...))
	sp.Add(trace.PhaseQuery, time.Since(start))
	c.Results = int64(len(ids))
	sp.Record(&c)
	return v.merge(ids, q, sp), nil
}

// PointQuery returns the IDs of every live object whose MBR contains
// the point (x, y, z), boundary included, sorted ascending. It is
// RangeQuery with a zero-extent box; NaN coordinates are rejected with
// ErrInvalidPoint.
func (v *Overlay) PointQuery(x, y, z float64) ([]ID, error) {
	return v.PointQueryTraced(x, y, z, nil)
}

// PointQueryTraced is PointQuery with per-request tracing; see
// RangeQueryTraced.
func (v *Overlay) PointQueryTraced(x, y, z float64, sp *Span) ([]ID, error) {
	pt := Point{x, y, z}
	if err := checkPoint(pt); err != nil {
		return nil, err
	}
	return v.RangeQueryTraced(geom.BoxAt(pt), sp)
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
// for an object that would enter the heap; the inserts then improve the
// same heap, touching it only when an insert beats the current k-th
// neighbor — in each sealed run only the window around q's x that the
// x-gap alone does not put beyond that neighbor, the few unsealed
// inserts one by one. Safe for
// arbitrary concurrent callers; steady-state serving allocates only the
// returned slice.
func (v *Overlay) KNN(q Point, k int) ([]Neighbor, error) { return v.KNNTraced(q, k, nil) }

// KNNTraced is KNN with per-request tracing; see RangeQueryTraced. The
// insert pass records PhaseDelta; the tombstone test runs inside the
// search.
func (v *Overlay) KNNTraced(q Point, k int, sp *Span) ([]Neighbor, error) {
	if k < 1 {
		return nil, fmt.Errorf("%w (got %d)", ErrInvalidK, k)
	}
	if err := checkPoint(q); err != nil {
		return nil, err
	}
	probes := v.tiers[0].probes
	p := probes.Get().(*core.Probe)
	defer probes.Put(p)
	var c Stats
	var start time.Time
	if sp != nil {
		start = time.Now()
	}
	p.Nearest(q, k, &c, v.tombs, v.upper...)
	if sp != nil {
		sp.Add(trace.PhaseQuery, time.Since(start))
	}
	if len(v.inserts) > 0 {
		if sp != nil {
			start = time.Now()
		}
		for i := range v.runs {
			p.Offer(v.runs[i].Objects, v.runs[i].Ext, q, k, v.tombs)
		}
		p.Offer(v.rest, math.Inf(1), q, k, v.tombs)
		if sp != nil {
			sp.Add(trace.PhaseDelta, time.Since(start))
		}
	}
	nbrs := slices.Clone(p.Neighbors(&c))
	sp.Record(&c)
	return nbrs, nil
}
