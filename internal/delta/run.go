package delta

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"touch/internal/geom"
)

// RunLen is how many consecutive unfolded inserts one Run seals. A read
// scans the fewer than RunLen unsealed inserts whole and, in each run,
// what two binary searches leave; the write that completes a run copies
// and sorts it. Measured with the benchmark's serve_mixed workload (2
// vCPUs, go1.24): 128, 256 and 512 read the same end to end —
// wire_range_p50_us medians 24.3, 24.3 and 24.6 µs, wire_knn_p50_us 29.5,
// 29.4 and 29.5 over six alternating runs each — while on the traced
// rung's fixed tail of 2,048 inserts, where every size seals everything,
// the delta phase of a range query read 3.0–3.4, 2.3–3.2 and 1.8–2.2 µs:
// fewer runs, fewer searches. 512 would win there only by leaving up to
// 511 inserts of a live tail (~1,200 on average in serve_mixed) to the
// whole scan, so the middle is kept.
const RunLen = 256

// Run is an immutable x-sorted copy of a stretch of consecutive unfolded
// inserts — the read side of that stretch for single-probe queries —
// held, as a tree holds its arena, in two columns of one order. Shared by
// every generation that holds the stretch; never written after it is
// sealed.
type Run struct {
	// Boxes and IDs are the stretch's objects ordered by (Min[0], ID),
	// NaN first as cmp.Compare orders it: object i's box is Boxes[i] and
	// its ID IDs[i].
	Boxes []geom.Box
	IDs   []geom.ID
	// Ext bounds every object's x-extent from above, in floating point:
	// Min[0] + Ext >= Max[0] for each one. It is +Inf when some object's
	// x-extent is not finite (a NaN or infinite corner on x), and then no
	// query may skip any part of the run by its x-gap.
	Ext float64
}

// seal returns the run of the objects whose boxes and IDs the two
// columns hold: a sorted copy, in two columns too, and its extent bound.
func seal(boxes []geom.Box, ids []geom.ID) Run {
	order := make([]int32, len(ids))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(i, j int32) int {
		if c := cmp.Compare(boxes[i].Min[0], boxes[j].Min[0]); c != 0 {
			return c
		}
		return cmp.Compare(ids[i], ids[j])
	})
	r := Run{Boxes: make([]geom.Box, len(ids)), IDs: make([]geom.ID, len(ids))}
	for k, i := range order {
		r.Boxes[k], r.IDs[k] = boxes[i], ids[i]
	}
	for i := range r.Boxes {
		b := &r.Boxes[i]
		ext := b.Max[0] - b.Min[0] // +Inf for an infinite corner, and so is Ext then
		if math.IsNaN(ext) {
			r.Ext = math.Inf(1)
			break
		}
		// The difference is rounded; step it up until adding it back
		// reaches Max[0] again, which is what the windows rest on.
		for b.Min[0]+ext < b.Max[0] {
			ext = math.Nextafter(ext, math.Inf(1))
		}
		r.Ext = max(r.Ext, ext)
	}
	return r
}

// Seal returns runs extended by one sealed run per whole stretch of
// RunLen objects of the columns boxes and ids, in order. The objects past
// the last whole stretch are left unsealed; Sealed counts what the runs
// cover.
func Seal(runs []Run, boxes []geom.Box, ids []geom.ID) []Run {
	for ; len(ids) >= RunLen; boxes, ids = boxes[RunLen:], ids[RunLen:] {
		runs = append(runs, seal(boxes[:RunLen], ids[:RunLen]))
	}
	return runs
}

// Sealed returns the number of objects runs cover.
func Sealed(runs []Run) int {
	n := 0
	for i := range runs {
		n += len(runs[i].IDs)
	}
	return n
}

// Window returns the boxes and IDs of the objects of r that can meet q:
// those whose Min[0] is at most q.Max[0] and whose Min[0] + Ext reaches
// q.Min[0], a contiguous stretch of the x order. Every object outside it
// misses q along x, so testing the window with Box.Meets answers as
// testing the whole run does. q must be a valid box.
func (r *Run) Window(q *geom.Box) ([]geom.Box, []geom.ID) {
	bs := r.Boxes
	hi := sort.Search(len(bs), func(i int) bool { return bs[i].Min[0] > q.Max[0] })
	lo := 0
	if !math.IsInf(r.Ext, 1) {
		lo = sort.Search(hi, func(i int) bool { return bs[i].Min[0]+r.Ext >= q.Min[0] })
	}
	return bs[lo:hi], r.IDs[lo:hi]
}
