// Package sweep implements the plane-sweep spatial join (Preparata &
// Shamos), one of the two classic in-memory approaches evaluated by the
// TOUCH paper. Both datasets are sorted on the first dimension and
// scanned synchronously; objects overlapping on the sweep axis are tested
// on the remaining dimensions.
//
// The same routine serves as the local join of the disk-based baselines
// (PBSM cells, S3 cell pairs, R-tree leaf pairs), as in the paper's
// experimental setup.
package sweep

import (
	"cmp"
	"slices"
	"time"

	"touch/internal/geom"
	"touch/internal/stats"
)

// Join performs a plane-sweep join of a and b, emitting every pair of
// objects whose boxes overlap. It sorts private copies of the inputs
// (counted in the memory footprint) and then scans them synchronously.
// ctl (which may be nil) is polled through an amortized checkpoint; a
// stopped join unwinds with partial counters.
func Join(a, b geom.Dataset, ctl *stats.Control, c *stats.Counters, sink stats.Sink) {
	start := time.Now()
	as := SortByXMin(a)
	bs := SortByXMin(b)
	c.MemoryBytes += int64(len(as)+len(bs)) * stats.BytesPerObject
	c.BuildTime += time.Since(start)

	start = time.Now()
	tk := stats.NewTicker(ctl)
	JoinSorted(as, bs, &tk, c, func(x, y *geom.Object) {
		c.Results++
		sink.Emit(x.ID, y.ID)
	})
	c.JoinTime += time.Since(start)
}

// SortByXMin returns a copy of ds sorted by ascending box minimum in
// dimension 0 (the sweep axis).
func SortByXMin(ds geom.Dataset) geom.Dataset {
	out := make(geom.Dataset, len(ds))
	copy(out, ds)
	slices.SortFunc(out, byXMin)
	return out
}

func byXMin(a, b geom.Object) int { return cmp.Compare(a.Box.Min[0], b.Box.Min[0]) }

// JoinSorted performs the synchronous forward scan over two slices that
// are already sorted by Min[0]. Every pair that overlaps on the sweep
// axis is tested for full intersection (one comparison each, the paper's
// metric); overlapping pairs are passed to emit with the object from a
// first. It allocates nothing, so it is suitable as a per-cell local
// join — callers that sweep many cells pass one Ticker across all calls
// so the cancellation checkpoints amortize correctly (tk may be nil).
// Result counting is left to the emit callback, because callers such as
// PBSM may discard duplicate hits.
func JoinSorted(a, b []geom.Object, tk *stats.Ticker, c *stats.Counters, emit func(x, y *geom.Object)) {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if tk.Stopped() {
			return
		}
		if a[i].Box.Min[0] <= b[j].Box.Min[0] {
			sweepOne(&a[i], b[j:], tk, c, emit, false)
			i++
		} else {
			sweepOne(&b[j], a[i:], tk, c, emit, true)
			j++
		}
	}
}

// sweepOne compares cur against the prefix of other whose sweep-axis
// minimum does not pass cur's maximum. The pairs are known to overlap on
// dimension 0, so only the remaining dimensions are tested — but each
// test still counts as one object–object comparison. swapped indicates
// that cur comes from dataset B, so emit arguments must be reversed.
func sweepOne(cur *geom.Object, other []geom.Object, tk *stats.Ticker, c *stats.Counters, emit func(x, y *geom.Object), swapped bool) {
	curMax := cur.Box.Max[0]
	for k := range other {
		o := &other[k]
		if o.Box.Min[0] > curMax {
			break
		}
		if tk.Tick() {
			return
		}
		c.Comparisons++
		if overlapYZ(&cur.Box, &o.Box) {
			if swapped {
				emit(o, cur)
			} else {
				emit(cur, o)
			}
		}
	}
}

// overlapYZ tests intersection on dimensions 1..Dims-1 only; the sweep
// guarantees overlap on dimension 0.
func overlapYZ(a, b *geom.Box) bool {
	for d := 1; d < geom.Dims; d++ {
		if a.Min[d] > b.Max[d] || b.Min[d] > a.Max[d] {
			return false
		}
	}
	return true
}
