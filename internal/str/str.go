// Package str implements Sort-Tile-Recursive packing (Leutenegger, Lopez
// & Edgington, ICDE'97), the bulk-loading strategy the TOUCH paper uses
// to group dataset A into buckets (leaf nodes), and that the baseline
// R-tree uses for bulk loading, level after level.
//
// STR orders items by the first dimension of their center, slices the
// sequence into ⌈P^(1/D)⌉ vertical slabs, and recursively tiles each slab
// on the remaining dimensions, producing P groups of at most groupSize
// items with small, mostly non-overlapping MBRs.
//
// Only the last cut needs a sorted sequence: a slab is a range of ranks,
// so an outer cut only selects — it moves the items of each rank range
// into their slab and leaves them in any order there. Selection and sort
// are one most-significant-digit radix routine over a permuted index
// (arrange): a pass buckets a range by up to 11 bits of key and descends
// only into the buckets a cut falls strictly inside, which for a sort is
// every bucket of two items or more; a bucket whose keys all tie goes on
// to the previous dimension's key, and then to the input index.
//
// The cuts nest — slabs hold runs, runs hold tiles, each an exact
// partition of the items by center — and PackStages reports them with the
// items in the order STR leaves them. TOUCH builds the upper levels of its
// tree along them instead of packing the buckets' centers again, which
// would cut across them; the R-tree packs level after level, as the STR
// paper does.
package str

import (
	"math"
	"math/bits"
	"slices"

	"touch/internal/geom"
)

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

// Pack groups items into tiles of at most groupSize elements using STR.
// The center function extracts the point used for sorting (typically the
// MBR center); it is called exactly once per item. The input slice is
// not modified. groupSize must be >= 1.
//
// Every input item appears in exactly one output group, and every group
// except possibly the last few is full.
//
// Ties: the cut along dimension d ranks the items of a run of the cut
// before it lexicographically by (key_d, key_{d−1}, …, key_0, input
// index), key_i being the center's coordinate in dimension i — the order
// a stable sort along each dimension in turn would leave. A run too small
// to be cut again keeps the order of the cut before it (input order at
// the first). The order is total, so Pack is a pure function of (items,
// centers, groupSize): the same input always packs to the same groups in
// the same order.
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
// d (ties broken as Pack says), every run of cut d begins a run of cut
// d+1, and a run small enough to become one group uncut still counts as
// a run of every cut below it. No items, no runs: the lists are nil.
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
	n := len(items)
	out := make([]T, n)
	p := packer{groupSize: groupSize, order: make([]int32, n), tmp: make([]int32, n)}
	keys := make([]uint64, geom.Dims*n)
	for d := range p.keys {
		p.keys[d] = keys[d*n : (d+1)*n]
	}
	for i, it := range items {
		c := center(it)
		for d := range c {
			p.keys[d][i] = sortKey(c[d])
		}
		p.order[i] = int32(i)
	}
	p.pack(0, n, 0)
	for i, j := range p.order {
		out[i] = items[j]
	}
	for d := range p.stages {
		p.stages[d] = append(p.stages[d], int32(n))
	}
	return out, p.stages
}

// packer holds what every level of the recursion shares.
type packer struct {
	keys      [geom.Dims][]uint64 // keys[d][i]: sortKey of item i's center in dimension d
	order     []int32             // the items' indices, arranged in place
	tmp       []int32             // scatter space, as long as order
	groupSize int
	stages    Stages
}

// pack tiles order[lo:hi] — one run of the cut along dim-1, or the whole
// input — on dimensions dim..Dims-1, recording where the runs begin.
func (p *packer) pack(lo, hi, dim int) {
	n := hi - lo
	if dim > 0 {
		p.stages[dim-1] = append(p.stages[dim-1], int32(lo))
	}
	if n <= p.groupSize {
		for d := dim; d < geom.Dims; d++ {
			p.stages[d] = append(p.stages[d], int32(lo))
		}
		// Uncut, the run keeps the previous cut's order; the whole input,
		// when it fits one group, keeps its own.
		if dim > 0 {
			p.arrange(lo, hi, dim-1, lo, 1)
		}
		return
	}
	if dim == geom.Dims-1 {
		// Last dimension: sort the run and chop it into consecutive groups.
		p.arrange(lo, hi, dim, lo, 1)
		for i := lo; i < hi; i += p.groupSize {
			p.stages[dim] = append(p.stages[dim], int32(i))
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
	p.arrange(lo, hi, dim, lo, slabSize) // select: each slab its ranks, in any order
	for i := lo; i < hi; i += slabSize {
		p.pack(i, min(i+slabSize, hi), dim+1)
	}
}

const (
	smallRun  = 24 // the range length up to which arrange sorts by insertion
	digitBits = 11 // the widest digit a radix pass buckets by: 2,048 buckets
)

// arrange puts order[a:b] in place for the cuts at base+k·step: every
// item before a cut precedes every item after it in the order that ranks
// by key levels l, l−1, …, 0 and then by index, levels above l being
// equal across the range. step 1 sorts the range; between cuts the order
// is unspecified otherwise.
func (p *packer) arrange(a, b, l, base, step int) {
	for b-a > smallRun {
		if l < 0 {
			slices.Sort(p.order[a:b]) // every key ties: the index decides
			return
		}
		keys, order := p.keys[l], p.order[a:b]
		least, most := keys[order[0]], keys[order[0]]
		for _, j := range order {
			least, most = min(least, keys[j]), max(most, keys[j])
		}
		if least == most {
			l--
			continue
		}
		// The digit is the top bits of key−least: a range whose keys span
		// a few exponents still fills every bucket, and a short range
		// takes about as many buckets as it has items.
		width := min(digitBits, bits.Len(uint(b-a)))
		shift := max(bits.Len64(most-least)-width, 0)
		var next [1 << digitBits]int32 // bucket sizes, then where each bucket's next item goes
		for _, j := range order {
			next[(keys[j]-least)>>shift]++
		}
		sum := int32(a)
		for d, c := range next[:1<<width] {
			next[d], sum = sum, sum+c
		}
		for _, j := range order {
			d := (keys[j] - least) >> shift
			p.tmp[next[d]] = j
			next[d]++
		}
		copy(order, p.tmp[a:b])
		// next[d] is now where bucket d ends; cut is the first cut after lo.
		lo, cut := a, base+((a-base)/step+1)*step
		for _, hi := range next[:1<<width] {
			if int(hi) > cut {
				p.arrange(lo, int(hi), l, base, step)
			}
			lo = int(hi)
			for cut <= lo {
				cut += step
			}
		}
		return
	}
	for i := a + 1; i < b; i++ {
		x, j := p.order[i], i
		for ; j > a && p.less(x, p.order[j-1], l); j-- {
			p.order[j] = p.order[j-1]
		}
		p.order[j] = x
	}
}

// less ranks item i before item j by key levels l..0, then by index.
func (p *packer) less(i, j int32, l int) bool {
	for ; l >= 0; l-- {
		if a, b := p.keys[l][i], p.keys[l][j]; a != b {
			return a < b
		}
	}
	return i < j
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
