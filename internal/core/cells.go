package core

import (
	"math"

	"touch/internal/geom"
	"touch/internal/stats"
)

// cellObjects is how many indexed objects one cell of a tree's cell
// table stands for: about two bytes of table per eight objects, under
// half a percent of a served tier's ≈55 bytes an object.
const cellObjects = 8

// cellSample is how many of a probe's first objects Assign tries against
// the cell table before it decides whether the table pays (cellTable.pays).
const cellSample = 256

// cellTable is a tree's cell table: a grid over the root MBR whose every
// cell holds the node where Algorithm 3's descent of the cell's own
// closed box stops, or -1 where that box dies in dead space. It lets the
// descent of a box that lies in one cell start at that node instead of
// the root, with the same answer, bit for bit:
//
//   - on the way down to the node m a cell's box C stops at, C meets one
//     child of every node it passes, and a box b inside C meets no child C
//     does not meet, so b follows C's path for as long as it meets it;
//   - a parent's MBR holds its children's, so b meets every node of that
//     path if it meets m, and reaches m; if it misses m it misses some
//     node of the path, where it meets no child at all and is filtered;
//   - so the descent of b from the root is one Meets of m — filtered on a
//     miss — and from there the descent as usual; and where C's descent
//     dies, so does b's.
//
// The argument asks nothing of the grid's bounds but that b lies between
// them: b is placed in a cell by arithmetic and then tested against the
// stored bounds of that cell exactly, so a box the arithmetic places
// wrongly, one in no single cell and one with a NaN or infinite corner
// all fail the test and descend from the root.
//
// Like the block directory it is derived state: index builds it over
// the table as it stands, after Build and in Thaw, and it is never
// serialized. A tree of height at most 2, or with a root MBR that is not
// finite, keeps none.
type cellTable struct {
	// edges[d] holds the n+1 ascending bounds of the n cells along
	// dimension d, the first and the last the root's own; scale[d] maps a
	// coordinate's offset from the first onto [0, n), 0 where n is 1.
	edges [geom.Dims][]float64
	scale [geom.Dims]float64
	// The cells, dimension 0 outermost: small holds node id + 1, 0 for
	// dead space, where every id fits, and wide the id, -1 for dead space,
	// where one does not.
	small []uint16
	wide  []int32
}

// buildCells returns the tree's cell table, or nil when it keeps none:
// about one cell per cellObjects objects, the same number of cells along
// every dimension in which the root has a positive, finite extent, and
// one along the others.
func (t *Tree) buildCells() *cellTable {
	root := &t.table[0].mbr
	if t.Height <= 2 || !root.Finite() {
		return nil
	}
	spread := 0
	for d := range geom.Dims {
		if w := root.Extent(d); w > 0 && !math.IsInf(w, 0) {
			spread++
		}
	}
	if spread == 0 {
		return nil
	}
	per := int(math.Round(math.Pow(float64(t.SizeA)/cellObjects, 1/float64(spread))))
	if per <= 1 {
		return nil
	}
	cl := &cellTable{}
	var n [geom.Dims]int32
	total := 1
	for d := range geom.Dims {
		lo, hi := root.Min[d], root.Max[d]
		w := hi - lo
		n[d] = 1
		if w > 0 && !math.IsInf(w, 0) {
			n[d] = int32(per)
			cl.scale[d] = float64(per) / w
		}
		// Each step of the sum rounds monotonically, so the bounds ascend.
		e := make([]float64, n[d]+1)
		e[0], e[n[d]] = lo, hi
		for k := int32(1); k < n[d]; k++ {
			e[k] = min(lo+w*float64(k)/float64(n[d]), hi)
		}
		cl.edges[d] = e
		total *= int(n[d])
	}
	if t.Nodes <= math.MaxUint16 {
		cl.small = make([]uint16, total)
	} else {
		cl.wide = make([]int32, total)
	}
	cl.fill(t, [geom.Dims]int32{}, n, 0)
	return cl
}

// fill sets the cells of the block [lo, hi) of cell coordinates to where
// the descent of each one's box stops, given that the descent of the
// block's box passes through node from, or dies where from is -1: it
// descends the block's box from there and splits the block in two along
// its longest side, until the block is one cell. By the argument on
// cellTable, every cell so holds the descent from the root of its own
// box, as each smaller block's box lies inside the larger's.
func (cl *cellTable) fill(t *Tree, lo, hi [geom.Dims]int32, from int32) {
	var box geom.Box
	d := 0
	for k := range geom.Dims {
		box.Min[k], box.Max[k] = cl.edges[k][lo[k]], cl.edges[k][hi[k]]
		if hi[k]-lo[k] > hi[d]-lo[d] {
			d = k
		}
	}
	var discard stats.Counters
	at := t.descend(&box, from, &discard)
	if hi[d]-lo[d] > 1 {
		mid := (lo[d] + hi[d]) / 2
		upper, lower := lo, hi
		upper[d], lower[d] = mid, mid
		cl.fill(t, lo, lower, at)
		cl.fill(t, upper, hi, at)
		return
	}
	k := 0
	for d := range geom.Dims {
		k = k*(len(cl.edges[d])-1) + int(lo[d])
	}
	if cl.small != nil {
		cl.small[k] = uint16(at + 1)
	} else {
		cl.wide[k] = at
	}
}

// cell returns the index of the one cell b lies in, tested exactly
// against its stored bounds, and false when b lies in no single cell,
// has a NaN or infinite corner, or the tree keeps no table.
func (cl *cellTable) cell(b *geom.Box) (int, bool) {
	if cl == nil {
		return 0, false
	}
	k := 0
	for d := range geom.Dims {
		e := cl.edges[d]
		n := len(e) - 1
		i := 0
		// Clamped before the conversion, which a NaN or an infinity would
		// leave undefined; both fail the test below.
		if f := (b.Min[d] - e[0]) * cl.scale[d]; f >= float64(n) {
			i = n - 1
		} else if f > 0 {
			i = int(f)
		}
		if !(e[i] <= b.Min[d] && b.Max[d] <= e[i+1]) {
			return 0, false
		}
		k = k*n + i
	}
	return k, true
}

// start returns the node the descent of b starts at: the node of the one
// cell b lies in, -1 when that cell's box dies in dead space, and the
// root when b lies in no single cell (cell).
func (cl *cellTable) start(b *geom.Box) int32 {
	k, ok := cl.cell(b)
	switch {
	case !ok:
		return 0
	case cl.small != nil:
		return int32(cl.small[k]) - 1
	default:
		return cl.wide[k]
	}
}

// pays reports whether looking b's boxes up in the table is worth it: at
// least a quarter of its first cellSample boxes, each grown by eps, lie
// in one cell. Boxes grown by a distance join's ε, or a probe of boxes
// larger than a cell, mostly lie in none, and each lookup would be a
// cost with nothing to show for it. Assign decides once for all of b,
// before it shards b, so its counts do not depend on the worker count.
func (cl *cellTable) pays(b geom.Dataset, eps float64) bool {
	if cl == nil {
		return false
	}
	n := min(len(b), cellSample)
	in := 0
	for i := range n {
		box := b[i].Box
		if eps != 0 {
			box.Grow(eps)
		}
		if _, ok := cl.cell(&box); ok {
			in++
		}
	}
	return 4*in >= n
}

// bytes is the table's size: its cells and its bounds.
func (cl *cellTable) bytes() int64 {
	if cl == nil {
		return 0
	}
	n := int64(len(cl.small))*2 + int64(len(cl.wide))*4
	for d := range geom.Dims {
		n += int64(len(cl.edges[d])) * 8
	}
	return n
}
