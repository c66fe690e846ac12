package touch

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"touch/internal/delta"
	"touch/internal/trace"
)

// Overlay combines an immutable base Index with a small set of pending
// updates — inserted objects and deleted (tombstoned) IDs — and
// presents the reader's query and join surface over the merged state.
// Every answer is bit-identical to what an index rebuilt from the
// merged dataset would return, and an Overlay with nothing pending
// reads exactly as its base Index does. What each shape costs over a
// non-empty delta is documented on the reader's methods. Publishing an
// update is O(batch): nothing here is copied or rebuilt per generation.
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
	reader
	idx *Index
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
	return idx.over(inserts, deleted)
}

// OverlayOf returns the Overlay of idx and the pending updates of d,
// sharing d's slices; never nil — an empty (or nil) d yields the reader
// with nothing pending. It is the one construction path of Mutable and
// the serving catalog.
func OverlayOf(idx *Index, d *delta.Delta) *Overlay {
	return idx.over(d.Objects(), d.Tombs())
}

// over returns the reader of ix's tree and probe pool with the given
// delta pending.
func (ix *Index) over(inserts Dataset, tombs []ID) *Overlay {
	return &Overlay{reader{tree: ix.tree, probes: ix.probes, inserts: inserts, tombs: tombs}, ix}
}

// Base returns the underlying base index.
func (v *Overlay) Base() *Index { return v.idx }

// dead reports whether id is tombstoned.
func (r *reader) dead(id ID) bool {
	_, dead := slices.BinarySearch(r.tombs, id)
	return dead
}

// merge turns the base answer ids (ascending) for the box q into the
// merged answer: the inserts intersecting q are appended — in ID order
// and above every base ID, so the list stays ascending — and then the
// tombstoned IDs, base objects and inserts alike, are removed in place.
// A non-nil sp records the insert pass as PhaseDelta and the filter as
// PhaseOverlay.
func (r *reader) merge(ids []ID, q Box, sp *Span) []ID {
	if r.frozen() {
		return ids
	}
	var start time.Time
	if sp != nil {
		start = time.Now()
	}
	ins := r.inserts
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
	if tombs := r.tombs; len(tombs) > 0 {
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

// mergeKNN improves nbrs — the k nearest live base objects of q, in
// (Distance, ID) order — with one pass over the inserts. A non-nil sp
// records the pass as PhaseDelta.
func (r *reader) mergeKNN(nbrs []Neighbor, q Point, k int, sp *Span) []Neighbor {
	if r.frozen() {
		return nbrs
	}
	var start time.Time
	if sp != nil {
		start = time.Now()
	}
	ins := r.inserts
	for i := range ins {
		d := ins[i].Box.PointDistance(q)
		// An insert's ID is above every ID already in nbrs, so it ranks
		// after all of them at its distance: a tie with the k-th loses.
		if (len(nbrs) == k && d >= nbrs[k-1].Distance) || r.dead(ins[i].ID) {
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
	return nbrs
}
