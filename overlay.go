package touch

import (
	"context"
	"fmt"
	"iter"
	"slices"
	"sort"
	"time"

	"touch/internal/delta"
	"touch/internal/geom"
	"touch/internal/nl"
	"touch/internal/stats"
	"touch/internal/trace"
)

// Overlay combines an immutable base Index with a small set of pending
// updates — inserted objects and deleted (tombstoned) IDs — and
// presents the Index query and join surface over the merged state.
// Every answer is bit-identical to what an index rebuilt from the
// merged dataset would return.
//
// An Overlay holds the delta's two slices as they are: the inserts,
// which may contain tombstoned objects, and the tombstones, ascending
// and retained. A tombstone is tested by binary search, and only on an
// object that is already a hit. What each shape costs on top of the
// same query on the bare Index: a range or point query filters the base
// answer and makes one pass over the inserts, appending matches in ID
// order (no sort, no extra allocation); kNN is an exactly-k base search
// that drops tombstoned objects as they are popped, plus one pass over
// the inserts that touches the running top-k only when an insert beats
// its current k-th neighbor; a join filters the base pairs and runs the
// brute-force pass over the live inserts. Publishing an update is
// O(batch): nothing here is copied or rebuilt per generation.
//
// An Overlay is an immutable value: it holds references, never copies
// the base, and is safe for arbitrary concurrent callers, exactly like
// Index. The write side lives elsewhere (Mutable here, the serving
// catalog in touchserved); both publish a fresh Overlay per mutation
// through an atomic pointer, built by OverlayOf.
//
// The invariant the merges rest on: the inserts are strictly
// ID-ascending and every insert ID is greater than every ID the base
// index holds, so merged ID lists stay sorted by concatenation and an
// insert loses every distance tie against what is already in a top-k.
// A delta.Delta guarantees it; NewOverlay checks it once.
type Overlay struct {
	idx     *Index
	inserts Dataset
	tombs   []ID
}

// NewOverlay builds an Overlay over idx with the given inserted objects
// and deleted IDs. inserts must satisfy the Overlay invariant — checked
// here, once, and a violation panics — and may or may not still contain
// objects that deleted names. deleted may come in any order and is
// copied only if it has to be sorted; otherwise the slices are
// retained, not copied: treat them as frozen afterwards.
func NewOverlay(idx *Index, inserts Dataset, deleted []ID) *Overlay {
	last := idx.maxID
	for i := range inserts {
		if inserts[i].ID <= last {
			panic(fmt.Sprintf("touch: NewOverlay: insert ID %d is not above the base's and the earlier inserts' IDs (≤ %d)", inserts[i].ID, last))
		}
		last = inserts[i].ID
	}
	if !slices.IsSorted(deleted) {
		deleted = slices.Clone(deleted)
		slices.Sort(deleted)
	}
	return &Overlay{idx: idx, inserts: inserts, tombs: deleted}
}

// OverlayOf returns the Overlay of idx and the pending updates of d,
// sharing d's slices, or nil when d is empty — the caller then reads
// the bare index, which is exactly the frozen path. It is the one
// construction path of Mutable and the serving catalog.
func OverlayOf(idx *Index, d *delta.Delta) *Overlay {
	if d.Empty() {
		return nil
	}
	return &Overlay{idx: idx, inserts: d.Objects(), tombs: d.Tombs()}
}

// Base returns the underlying base index.
func (v *Overlay) Base() *Index { return v.idx }

// dead reports whether id is tombstoned.
func (v *Overlay) dead(id ID) bool {
	_, dead := slices.BinarySearch(v.tombs, id)
	return dead
}

// merge turns the base answer ids (ascending) for the box q into the
// merged answer: the inserts intersecting q are appended — in ID order
// and above every base ID, so the list stays ascending — and then the
// tombstoned IDs, base objects and inserts alike, are removed in place.
// A non-nil sp records the insert pass as PhaseDelta and the filter as
// PhaseOverlay.
func (v *Overlay) merge(ids []ID, q Box, sp *Span) []ID {
	var start time.Time
	if sp != nil {
		start = time.Now()
	}
	ins := v.inserts
	for i := range ins {
		// Box.Intersects, written out: its loop indexes the corner arrays
		// by a variable, which costs a copy of both boxes per call, and
		// this pass is that test and nothing else.
		b := &ins[i].Box
		if b.Min[0] > q.Max[0] || q.Min[0] > b.Max[0] ||
			b.Min[1] > q.Max[1] || q.Min[1] > b.Max[1] ||
			b.Min[2] > q.Max[2] || q.Min[2] > b.Max[2] {
			continue
		}
		ids = append(ids, ins[i].ID)
	}
	if sp != nil {
		sp.Add(trace.PhaseDelta, time.Since(start))
		start = time.Now()
	}
	if tombs := v.tombs; len(tombs) > 0 {
		live := ids[:0]
		for _, id := range ids {
			// ids ascend, so each search resumes where the last ended.
			at, dead := slices.BinarySearch(tombs, id)
			tombs = tombs[at:]
			if !dead {
				live = append(live, id)
			}
		}
		ids = live
	}
	if sp != nil {
		sp.Add(trace.PhaseOverlay, time.Since(start))
		sp.SetResults(int64(len(ids)))
	}
	return ids
}

// RangeQuery returns the IDs of every live object whose MBR intersects
// q, sorted ascending — Index.RangeQuery over the merged state, with
// identical validation and semantics.
func (v *Overlay) RangeQuery(q Box) ([]ID, error) { return v.RangeQueryTraced(q, nil) }

// RangeQueryTraced is RangeQuery with per-request tracing: the base
// descent records PhaseQuery (see Index.RangeQueryTraced), the pass
// over the pending inserts records PhaseDelta, and the tombstone filter
// records PhaseOverlay.
func (v *Overlay) RangeQueryTraced(q Box, sp *Span) ([]ID, error) {
	ids, err := v.idx.RangeQueryTraced(q, sp)
	if err != nil {
		return nil, err
	}
	return v.merge(ids, q, sp), nil
}

// PointQuery returns the IDs of every live object whose MBR contains
// the point, sorted ascending — Index.PointQuery over the merged state.
func (v *Overlay) PointQuery(x, y, z float64) ([]ID, error) {
	return v.PointQueryTraced(x, y, z, nil)
}

// PointQueryTraced is PointQuery with per-request tracing; see
// RangeQueryTraced.
func (v *Overlay) PointQueryTraced(x, y, z float64, sp *Span) ([]ID, error) {
	ids, err := v.idx.PointQueryTraced(x, y, z, sp)
	if err != nil {
		return nil, err
	}
	return v.merge(ids, geom.BoxAt(Point{x, y, z}), sp), nil
}

// KNN returns the k live objects nearest to q with Index.KNN's exact
// (Distance, ID) ordering and tie-breaking over the merged state. The
// base index is asked for exactly k neighbors with the tombstones as
// its skip list; they are the running top-k that one pass over the
// inserts then improves.
func (v *Overlay) KNN(q Point, k int) ([]Neighbor, error) { return v.KNNTraced(q, k, nil) }

// KNNTraced is KNN with per-request tracing; see RangeQueryTraced. The
// insert pass, merge included, records PhaseDelta; the tombstone test
// runs inside the base search.
func (v *Overlay) KNNTraced(q Point, k int, sp *Span) ([]Neighbor, error) {
	nbrs, err := v.idx.knn(q, k, v.tombs, sp)
	if err != nil {
		return nil, err
	}
	var start time.Time
	if sp != nil {
		start = time.Now()
	}
	ins := v.inserts
	for i := range ins {
		d := ins[i].Box.PointDistance(q)
		// An insert's ID is above every ID already in nbrs, so it ranks
		// after all of them at its distance: a tie with the k-th loses.
		if (len(nbrs) == k && d >= nbrs[k-1].Distance) || v.dead(ins[i].ID) {
			continue
		}
		at := sort.Search(len(nbrs), func(j int) bool { return nbrs[j].Distance > d })
		if len(nbrs) < k {
			nbrs = append(nbrs, Neighbor{})
		}
		copy(nbrs[at+1:], nbrs[at:])
		nbrs[at] = Neighbor{ID: ins[i].ID, Distance: d}
	}
	if sp != nil {
		sp.Add(trace.PhaseDelta, time.Since(start))
		sp.SetResults(int64(len(nbrs)))
	}
	return nbrs, nil
}

// runMerged executes one merged join: the base index probe with a
// tombstone filter in front of the delivery chain, then — unless the
// join was stopped — the brute-force pass over the live inserts into
// the same chain, one nl.Join per run of inserts between two dead ones.
// The engine counts every emission in c.Results before the filter can
// see it, so the dropped pairs are subtracted afterwards, keeping
// Stats.Results equal to the delivered (live) pair count. A non-nil sp
// records the insert pass's wall time as PhaseDelta (the tombstone
// filter runs inline inside the join phase and is not timed
// separately).
func (v *Overlay) runMerged(b Dataset, workers int, ctl *stats.Control, c *Stats, sink Sink, sp *trace.Span) {
	base := sink
	var dropped int64
	if len(v.tombs) > 0 {
		base = stats.FuncSink(func(a, bid geom.ID) {
			if v.dead(a) {
				dropped++
				return
			}
			sink.Emit(a, bid)
		})
	}
	v.idx.runProbe(b, workers, ctl, c, base)
	c.Results -= dropped
	var start time.Time
	if sp != nil {
		start = time.Now()
	}
	ins := v.inserts
	for from, i := 0, 0; i <= len(ins); i++ {
		if i < len(ins) && !v.dead(ins[i].ID) {
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
	if sp != nil && len(ins) > 0 {
		sp.Add(trace.PhaseDelta, time.Since(start))
	}
}

// Join is Index.Join over the merged state: pairs in (indexed dataset,
// b) orientation, every Options knob honored. Pair order is the base
// engine's emission order followed by the insert pass — arbitrary under
// parallelism, as with Index; sort with Result.SortPairs for a
// canonical order.
func (v *Overlay) Join(b Dataset, opt *Options) *Result {
	res, _ := v.JoinCtx(context.Background(), b, opt)
	return res
}

// JoinCtx is Join under a context, with Index.JoinCtx's cancellation
// and limit semantics: both the base probe and the insert pass abort
// cooperatively, and Options.Limit counts only live (delivered) pairs.
func (v *Overlay) JoinCtx(ctx context.Context, b Dataset, opt *Options) (*Result, error) {
	o := opt.normalized()
	if err := ctx.Err(); err != nil {
		return nil, canceled(err)
	}
	ctl := control(ctx, &o)
	res := &Result{}
	sink, finish := joinSink(&o, false, ctl, res)
	v.runMerged(b, o.Workers, ctl, &res.Stats, sink, o.Trace)
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

// DistanceJoin is Index.DistanceJoin over the merged state.
func (v *Overlay) DistanceJoin(b Dataset, eps float64, opt *Options) (*Result, error) {
	return v.DistanceJoinCtx(context.Background(), b, eps, opt)
}

// DistanceJoinCtx is DistanceJoin under a context. Like
// Index.DistanceJoinCtx it expands the probe side by eps (the identity
// at eps = 0), so base and insert passes see the same expanded probe.
func (v *Overlay) DistanceJoinCtx(ctx context.Context, b Dataset, eps float64, opt *Options) (*Result, error) {
	if err := checkEps(eps); err != nil {
		return nil, err
	}
	return v.JoinCtx(ctx, b.Expand(eps), opt)
}

// JoinSeq is Index.JoinSeq over the merged state: the streaming
// iterator form of JoinCtx, yielding base-probe pairs (tombstones
// filtered) followed by the insert pass.
func (v *Overlay) JoinSeq(ctx context.Context, b Dataset, opt *Options) iter.Seq2[Pair, error] {
	o := opt.normalized()
	return streamJoin(ctx, &o, false, func(ctl *stats.Control, c *Stats, sink Sink) {
		v.runMerged(b, o.Workers, ctl, c, sink, o.Trace)
	})
}

// DistanceJoinSeq is JoinSeq with the probe expanded by eps, mirroring
// Index.DistanceJoinSeq.
func (v *Overlay) DistanceJoinSeq(ctx context.Context, b Dataset, eps float64, opt *Options) iter.Seq2[Pair, error] {
	if err := checkEps(eps); err != nil {
		return func(yield func(Pair, error) bool) { yield(Pair{}, err) }
	}
	return v.JoinSeq(ctx, b.Expand(eps), opt)
}
