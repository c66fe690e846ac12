// Package str implements Sort-Tile-Recursive packing (Leutenegger, Lopez
// & Edgington, ICDE'97), the bulk-loading strategy the TOUCH paper uses
// to group dataset A into buckets (leaf nodes), and that the baseline
// R-tree uses for bulk loading, level after level.
//
// STR sorts items by the first dimension of their center, slices the
// sequence into ⌈P^(1/D)⌉ vertical slabs, and recursively tiles each slab
// on the remaining dimensions, producing P groups of at most groupSize
// items with small, mostly non-overlapping MBRs.
//
// The cuts nest — slabs hold runs, runs hold tiles, each an exact
// partition of the items by center — and PackStages reports them with the
// items in the order STR leaves them. TOUCH builds the upper levels of its
// tree along them instead of packing the buckets' centers again, which
// would cut across them; the R-tree packs level after level, as the STR
// paper does.
package str

import (
	"cmp"
	"math"
	"slices"

	"touch/internal/geom"
)

// sortRec is what pack sorts instead of the items themselves: 16 bytes
// that carry the sort key, so the sort — the dominant cost of tree
// building — neither calls back into the caller nor moves whole items.
type sortRec struct {
	key uint64 // sortKey of the item's center in the dimension being sorted
	idx int32  // index of the item in Pack's input
	pos int32  // position before this sort, the comparison sort's tie-break
}

// sortKey maps a coordinate to an unsigned integer that orders as
// cmp.Compare orders the floats: NaN before everything, every NaN equal,
// −0 equal to +0.
func sortKey(f float64) uint64 {
	if f != f {
		return 0
	}
	bits := math.Float64bits(f + 0) // −0 + 0 is +0
	if bits>>63 != 0 {
		return ^bits
	}
	return bits | 1<<63
}

// radixMin is the run length from which sortRecs sorts by radix; under
// it the comparison sort's lower fixed cost wins.
const radixMin = 512

// sortRecs sorts recs by (key, position before the sort), with tmp — as
// long as recs — for scratch. Long runs take a least-significant-digit
// radix sort over the key's eight bytes: every pass is stable, so tied
// keys keep the order they came in and pos is never read; a byte on
// which all keys agree (the exponent bytes, on most data) costs no pass.
func sortRecs(recs, tmp []sortRec) {
	if len(recs) < radixMin {
		for i := range recs {
			recs[i].pos = int32(i)
		}
		slices.SortFunc(recs, func(a, b sortRec) int {
			if c := cmp.Compare(a.key, b.key); c != 0 {
				return c
			}
			return cmp.Compare(a.pos, b.pos)
		})
		return
	}
	var counts [8][256]int32
	for i := range recs {
		k := recs[i].key
		for b := range counts {
			counts[b][byte(k>>(8*b))]++
		}
	}
	src, dst := recs, tmp
	for b := range counts {
		cnt, shift := &counts[b], 8*b
		if int(cnt[byte(src[0].key>>shift)]) == len(src) {
			continue
		}
		sum := int32(0)
		for i, c := range cnt {
			cnt[i], sum = sum, sum+c
		}
		for i := range src {
			d := byte(src[i].key >> shift)
			dst[cnt[d]] = src[i]
			cnt[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &recs[0] {
		copy(recs, src)
	}
}

// Pack groups items into tiles of at most groupSize elements using STR.
// The center function extracts the point used for sorting (typically the
// MBR center); it is called exactly once per item. The input slice is
// not modified. groupSize must be >= 1.
//
// Every input item appears in exactly one output group, and every group
// except possibly the last few is full.
//
// Ties: items whose centers are equal in the dimension being sorted keep
// the relative order they had before that sort — input order in the
// first dimension, the order the previous dimension's sort left them in
// afterwards. Every sort is therefore a total order and Pack is a pure
// function of (items, centers, groupSize): the same input always packs
// to the same groups in the same order.
//
// The groups are stretches of one array, end to end, each with its
// capacity clipped to its length: sorting one in place is safe, and an
// append to one copies it out.
func Pack[T any](items []T, center func(T) geom.Point, groupSize int) [][]T {
	ordered, stages := PackStages(items, center, groupSize)
	if len(ordered) == 0 {
		return nil
	}
	bounds := stages[geom.Dims-1]
	groups := make([][]T, len(bounds)-1)
	for i := range groups {
		groups[i] = ordered[bounds[i]:bounds[i+1]:bounds[i+1]]
	}
	return groups
}

// Stages tells where STR cut the items it ordered: Stages[d] lists,
// ascending from 0, the offsets at which the runs of the cut made along
// dimension d begin — Stages[0] the slabs, Stages[1] the runs of every
// slab, and so on down to the last, whose runs are the groups — and then
// the number of items, so run i of a cut is [Stages[d][i], Stages[d][i+1]).
// A run's centers precede the next run's of the same parent in dimension
// d (ties in the order the sort before left them), every run of cut d
// begins a run of cut d+1, and a run small enough to become one group
// uncut still counts as a run of every cut below it. No items, no runs:
// the lists are nil.
type Stages [geom.Dims][]int32

// PackStages is Pack in its flat form: the items in the order STR leaves
// them — the groups end to end, in one newly allocated slice — and where
// it cut them.
func PackStages[T any](items []T, center func(T) geom.Point, groupSize int) ([]T, Stages) {
	if groupSize < 1 {
		panic("str: groupSize must be >= 1")
	}
	if len(items) == 0 {
		return nil, Stages{}
	}
	if len(items) > math.MaxInt32 {
		panic("str: more than MaxInt32 items")
	}
	centers := make([]geom.Point, len(items))
	recs := make([]sortRec, len(items))
	for i, it := range items {
		centers[i] = center(it)
		recs[i].idx = int32(i)
	}
	p := packer[T]{items: items, centers: centers, groupSize: groupSize}
	p.out = make([]T, 0, len(items))
	var tmp []sortRec
	if len(items) >= radixMin {
		tmp = make([]sortRec, len(items))
	}
	p.pack(recs, tmp, 0)
	for d := range p.stages {
		p.stages[d] = append(p.stages[d], int32(len(items)))
	}
	return p.out, p.stages
}

// packer holds what every level of the recursion shares.
type packer[T any] struct {
	items     []T
	centers   []geom.Point
	groupSize int
	out       []T
	stages    Stages
}

// pack recursively tiles recs — one run of the cut along dim-1, or the
// whole input — on dimensions dim..Dims-1, appending the resulting groups
// to p.out and where the runs begin to p.stages. tmp is sortRecs'
// scratch, as long as recs.
func (p *packer[T]) pack(recs, tmp []sortRec, dim int) {
	n := len(recs)
	first := int32(len(p.out))
	if dim > 0 {
		p.stages[dim-1] = append(p.stages[dim-1], first)
	}
	if n <= p.groupSize {
		for d := dim; d < geom.Dims-1; d++ {
			p.stages[d] = append(p.stages[d], first)
		}
		p.extract(recs)
		return
	}
	for i := range recs {
		r := &recs[i]
		r.key = sortKey(p.centers[r.idx][dim])
	}
	sortRecs(recs, tmp)
	if dim == geom.Dims-1 {
		// Last dimension: chop the sorted run into consecutive groups.
		for i := 0; i < n; i += p.groupSize {
			p.extract(recs[i:min(i+p.groupSize, n)])
		}
		return
	}
	// groups = number of groups still to produce; s = slabs in this dimension.
	groups := (n + p.groupSize - 1) / p.groupSize
	remaining := geom.Dims - dim
	s := int(math.Ceil(math.Pow(float64(groups), 1/float64(remaining))))
	if s < 1 {
		s = 1
	}
	slabSize := (n + s - 1) / s
	for i := 0; i < n; i += slabSize {
		end := min(i+slabSize, n)
		var slabTmp []sortRec
		if tmp != nil {
			slabTmp = tmp[i:end]
		}
		p.pack(recs[i:end], slabTmp, dim+1)
	}
}

// extract materializes one group, gathering the items by index.
func (p *packer[T]) extract(recs []sortRec) {
	start := len(p.out)
	p.stages[geom.Dims-1] = append(p.stages[geom.Dims-1], int32(start))
	p.out = p.out[:start+len(recs)]
	for i, r := range recs {
		p.out[start+i] = p.items[r.idx]
	}
}

// PackObjects is Pack specialized to spatial objects, grouping by MBR
// center.
func PackObjects(objs []geom.Object, groupSize int) [][]geom.Object {
	return Pack(objs, func(o geom.Object) geom.Point { return o.Box.Center() }, groupSize)
}

// GroupSizeFor returns the bucket size needed to split n items into (at
// most) the requested number of partitions: ⌈n / partitions⌉, minimum 1.
// This converts the paper's "number of partitions" TOUCH parameter
// (default 1024) into an STR group size.
func GroupSizeFor(n, partitions int) int {
	if partitions < 1 {
		panic("str: partitions must be >= 1")
	}
	g := (n + partitions - 1) / partitions
	if g < 1 {
		g = 1
	}
	return g
}
