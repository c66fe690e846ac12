package core

import (
	"math"
	"slices"

	"touch/internal/geom"
	"touch/internal/stats"
)

// Single-probe queries over the built tree. The join phases stream a
// whole dataset B through the hierarchy; the queries here answer one
// box, point or k-nearest-neighbor question at a time against the
// indexed dataset A, reusing the same immutable structure: node MBRs
// prune the descent, the dense-DFS arena layout turns every subtree
// into one contiguous [aStart, aEnd) scan, and inside a leaf the block
// directory prunes once more, leafBlock objects at a time. Pre-order with
// skip links (entry) needs no stack, so the range walk is one forward
// pass over the node table and all that is left of the traversal state —
// the kNN queue, the result buffers, the sort's scratch — lives in the
// Probe's queryScratch and recycles across queries; steady-state serving
// allocates nothing inside the traversal.
//
// None of that state belongs to a particular tree, so one probe can walk
// several: a tiered index — immutable trees over ascending, disjoint ID
// ranges, the probe's own tree being the lowest — answers a range query
// as the concatenation of its tiers' answers and a kNN search as one
// search over one k-slot heap, each tier starting from the neighbours
// the tiers before it found.

// queryScratch is the per-probe traversal state of the single-probe
// queries: the queue of nodes and leaf blocks of the best-first kNN
// search, the result buffers the queries append into (nbrs doubles as the
// kNN search's k-slot heap) and the second buffer and digit counters of
// the range answer's radix sort. All slices recycle across queries.
type queryScratch struct {
	queue  []knnItem
	ids    []geom.ID
	nbrs   []geom.Neighbor
	sorted []geom.ID
	counts [1 << radixBits]int32
}

// RangeQuery returns the IDs of every indexed A object whose MBR
// intersects q (closed-interval semantics: touching boundaries count),
// sorted ascending by ID. A subtree or a leaf block that q contains is
// emitted without per-object tests, a leaf block that misses q is skipped
// whole, and only the remaining blocks are scanned. The returned slice
// aliases probe-owned scratch and is only valid until the probe's next
// query or join — callers that retain results must copy them. Node-MBR
// and block-MBR tests are charged to c.NodeTests (a leaf of a single
// block has been tested already and is not tested again), object tests
// to c.Comparisons, and emitted matches to c.Results.
//
// upper lists the trees above the probe's own in a tiered index, lowest
// first; each tier's answer is sorted on its own and follows the answer
// of the tier below, which is the ascending order of the whole because
// the tiers' ID ranges ascend.
func (p *Probe) RangeQuery(q geom.Box, c *stats.Counters, upper ...*Tree) []geom.ID {
	s := &p.query
	s.ids = s.ids[:0]
	s.rangeQuery(p.tree, &q, c)
	for _, t := range upper {
		s.rangeQuery(t, &q, c)
	}
	return s.ids
}

// rangeQuery appends t's answer to q, ascending, to s.ids. It walks the
// node table front to back: a node that misses q is left by its skip
// link, and so is one q contains, after its arena range is emitted; any
// other inner node is followed by its first child, any other leaf is
// scanned block by block and followed by its skip link, the next entry.
func (s *queryScratch) rangeQuery(t *Tree, q *geom.Box, c *stats.Counters) {
	from := len(s.ids)
	nodeTests, comparisons := 0, 0
	for i := int32(0); int(i) < len(t.table); {
		e := &t.table[i]
		nodeTests++
		switch {
		case !e.mbr.Meets(q):
			i = e.skip
		case q.Covers(&e.mbr):
			s.emit(t.arena[e.aStart:e.aEnd])
			i = e.skip
		case !e.leaf(i):
			i++
		default:
			blocks := e.blocks()
			for bi := int32(0); bi < blocks; bi++ {
				es := t.block(e, bi)
				if blocks > 1 {
					nodeTests++
					blk := &t.blocks[e.block+bi]
					if !blk.Meets(q) {
						continue
					}
					if q.Covers(blk) {
						s.emit(es)
						continue
					}
				}
				comparisons += len(es)
				for j := range es {
					if es[j].Box.Meets(q) {
						s.ids = append(s.ids, es[j].ID)
					}
				}
			}
			i = e.skip
		}
	}
	c.NodeTests += int64(nodeTests)
	c.Comparisons += int64(comparisons)
	c.Results += int64(len(s.ids) - from)
	s.sortIDs(s.ids[from:])
}

// emit appends the IDs of es, objects q contains whole — a subtree's
// arena range or a block — without per-object tests.
func (s *queryScratch) emit(es []geom.Object) {
	for i := range es {
		s.ids = append(s.ids, es[i].ID)
	}
}

// blocks returns how many blocks the leaf entry e has in the directory
// (an inner node has none of its own; its entry's count means nothing).
func (e *entry) blocks() int32 {
	return (e.aEnd - e.aStart + leafBlock - 1) / leafBlock
}

// block returns the objects of block bi of the leaf entry e.
func (t *Tree) block(e *entry, bi int32) []geom.Object {
	start := e.aStart + bi*leafBlock
	return t.arena[start:min(start+leafBlock, e.aEnd)]
}

// PointQuery returns the IDs of every indexed A object whose MBR
// contains the point (boundary included), sorted ascending by ID. It is
// RangeQuery with a zero-extent box. The returned slice aliases
// probe-owned scratch; see RangeQuery.
func (p *Probe) PointQuery(pt geom.Point, c *stats.Counters) []geom.ID {
	return p.RangeQuery(geom.BoxAt(pt), c)
}

// knnItem is one entry of the kNN search queue: a tree node (blk < 0) or
// one block of a leaf, with the distance of its MBR from the query point.
type knnItem struct {
	dist      float64
	node, blk int32
}

// before orders the kNN queue: nearest first, then by node id and block
// so the traversal — and with it the counters — is deterministic.
func (a knnItem) before(b knnItem) bool {
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	return a.node < b.node || (a.node == b.node && a.blk < b.blk)
}

// after is the (Distance, ID) order of kNN results, reversed: the k-slot
// heap keeps the worst of the best k on top.
func after(a, b geom.Neighbor) bool {
	return a.Distance > b.Distance || (a.Distance == b.Distance && a.ID > b.ID)
}

// siftUp and siftDown restore the order of a binary heap h, whose root is
// the element no other is less than, after h[i] changed.
func siftUp[T any](h []T, i int, less func(a, b T) bool) {
	for i > 0 {
		parent := (i - 1) / 2
		if !less(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func siftDown[T any](h []T, i int, less func(a, b T) bool) {
	for {
		l, r, m := 2*i+1, 2*i+2, i
		if l < len(h) && less(h[l], h[m]) {
			m = l
		}
		if r < len(h) && less(h[r], h[m]) {
			m = r
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// beyond reports whether something at distance d from the query point can
// be dropped unseen: k neighbors are held and d is strictly beyond the
// worst of them. At the k-th distance itself it cannot — it may hold an
// object whose smaller ID wins the tie.
func (s *queryScratch) beyond(d float64, k int) bool {
	return len(s.nbrs) == k && d > s.nbrs[0].Distance
}

// enqueue adds a node or block to the kNN queue unless it is beyond the
// bound.
func (s *queryScratch) enqueue(mbr *geom.Box, q geom.Point, k int, node, blk int32) {
	d := mbr.PointDistance(q)
	if s.beyond(d, k) {
		return
	}
	s.queue = append(s.queue, knnItem{dist: d, node: node, blk: blk})
	siftUp(s.queue, len(s.queue)-1, knnItem.before)
}

// offer runs the objects es past the k-slot heap s.nbrs: an object enters
// when fewer than k are held or it precedes the worst of them in
// (Distance, ID) order — and only then is it looked up in skip. The
// distance is Box.PointDistance's, its sum of squared gaps cut short: the
// partial sums only grow, so the first one past the bound (farther)
// settles that the object is strictly beyond the worst neighbour held,
// which is most objects of a long unindexed stretch after one dimension.
func (s *queryScratch) offer(es []geom.Object, q geom.Point, k int, skip []geom.ID) {
	limit := math.Inf(1)
	if len(s.nbrs) == k {
		limit = farther(s.nbrs[0].Distance)
	}
	for i := range es {
		b := &es[i].Box
		sum := 0.0
		for d := 0; d < geom.Dims && sum <= limit; d++ {
			if gap := max(b.Min[d]-q[d], q[d]-b.Max[d]); gap > 0 {
				sum += gap * gap
			}
		}
		if sum > limit {
			continue
		}
		nb := geom.Neighbor{ID: es[i].ID, Distance: math.Sqrt(sum)}
		full := len(s.nbrs) == k
		if full && !after(s.nbrs[0], nb) {
			continue
		}
		if len(skip) > 0 {
			if _, dead := slices.BinarySearch(skip, nb.ID); dead {
				continue
			}
		}
		if full {
			s.nbrs[0] = nb
			siftDown(s.nbrs, 0, after)
		} else {
			s.nbrs = append(s.nbrs, nb)
			siftUp(s.nbrs, len(s.nbrs)-1, after)
		}
		if len(s.nbrs) == k {
			limit = farther(s.nbrs[0].Distance)
		}
	}
}

// farther returns a bound on squared distances: a sum of squared gaps
// above it has a root strictly above d. It is d² with a margin of 2⁻⁴⁰,
// which swallows the rounding of the square and of the root (2⁻⁵³ each),
// so the comparison of the roots never needs to be made to know it.
func farther(d float64) float64 { return d * d * (1 + 0x1p-40) }

// KNN returns the k indexed A objects nearest to q by minimum Euclidean
// box distance, ordered by (Distance, ID) ascending — ties at the k-th
// distance resolve to the smaller object IDs, deterministically. Fewer
// than k results are returned when the index holds fewer than k
// objects. The returned slice aliases probe-owned scratch; see
// RangeQuery.
//
// The search is a bounded best-first branch and bound. A priority queue
// holds tree nodes and, below an opened leaf of several blocks, its
// blocks — never objects — nearest MBR first; the best k objects seen so
// far sit in a k-slot max-heap on (Distance, ID), and once it is full its
// top is the bound: a node, a block or an object *strictly* beyond the
// k-th distance is dropped unseen, and the search ends when the nearest
// queued entry is. At the k-th distance itself nothing is pruned by
// distance alone — a node or block there may still hold an object whose
// smaller ID wins the tie — and an object enters exactly when it precedes
// the current k-th in (Distance, ID) order. Distances are the
// PointDistance values the results carry, compared as they are: squared
// distances that differ can round to one Distance, and ordering by them
// would reorder that tie. The answer is therefore the first k of the full
// (Distance, ID) order, whatever order the objects were met in.
//
// Child-MBR and block-MBR distance evaluations are charged to
// c.NodeTests (a single-block leaf's block is its MBR and is not tested
// again), object distance evaluations to c.Comparisons.
//
// skip, when given, lists object IDs (ascending) to treat as absent. It
// is consulted only for an object that would otherwise enter the heap —
// a skipped object never tightens the bound — so the answer is the first
// k unskipped objects of the full order. The delta layer passes its
// tombstones here instead of over-asking by one neighbor per tombstone.
//
// KNN is Nearest over the probe's own tree alone, then Neighbors.
func (p *Probe) KNN(q geom.Point, k int, c *stats.Counters, skip ...geom.ID) []geom.Neighbor {
	p.Nearest(q, k, c, skip)
	return p.Neighbors(c)
}

// Nearest runs KNN's search over the probe's own tree and then, in
// order, over the upper trees of a tiered index, and leaves the k best
// objects in the probe — unordered, for Offer to improve and Neighbors to
// return. The k-slot heap is one across the tiers: each search starts
// from the neighbours already held, so a tier whose root lies strictly
// beyond the k-th distance found below it costs that one node test.
func (p *Probe) Nearest(q geom.Point, k int, c *stats.Counters, skip []geom.ID, upper ...*Tree) {
	s := &p.query
	s.nbrs = s.nbrs[:0]
	if k <= 0 {
		return
	}
	s.nearest(p.tree, q, k, c, skip)
	for _, t := range upper {
		s.nearest(t, q, k, c, skip)
	}
}

// Offer improves the neighbours Nearest left in the probe with objs,
// objects no tree holds — the unindexed tail of a tiered index — under
// the same k, skip list and (Distance, ID) order. Distance evaluations
// here are not charged to any counter.
func (p *Probe) Offer(objs []geom.Object, q geom.Point, k int, skip []geom.ID) {
	if k > 0 {
		p.query.offer(objs, q, k, skip)
	}
}

// Neighbors returns what Nearest and Offer have gathered, ordered by
// (Distance, ID) ascending, and charges their count to c.Results. The
// slice aliases probe-owned scratch; see RangeQuery.
func (p *Probe) Neighbors(c *stats.Counters) []geom.Neighbor {
	s := &p.query
	// Heap sort in place: the worst of what is left moves behind it, so
	// the slice ends up ascending in (Distance, ID).
	for end := len(s.nbrs) - 1; end > 0; end-- {
		s.nbrs[0], s.nbrs[end] = s.nbrs[end], s.nbrs[0]
		siftDown(s.nbrs[:end], 0, after)
	}
	c.Results += int64(len(s.nbrs))
	return s.nbrs
}

// nearest improves the k-slot heap s.nbrs with the objects of t.
func (s *queryScratch) nearest(t *Tree, q geom.Point, k int, c *stats.Counters, skip []geom.ID) {
	tab := t.table
	s.queue = s.queue[:0]
	c.NodeTests++
	s.enqueue(&tab[0].mbr, q, k, 0, -1)
	for len(s.queue) > 0 {
		it := s.queue[0]
		if s.beyond(it.dist, k) {
			break
		}
		last := len(s.queue) - 1
		s.queue[0] = s.queue[last]
		s.queue = s.queue[:last]
		siftDown(s.queue, 0, knnItem.before)
		e := &tab[it.node]
		blocks := e.blocks()
		switch {
		case it.blk >= 0:
			es := t.block(e, it.blk)
			c.Comparisons += int64(len(es))
			s.offer(es, q, k, skip)
		case !e.leaf(it.node):
			for ch := it.node + 1; ch < e.skip; ch = tab[ch].skip {
				c.NodeTests++
				s.enqueue(&tab[ch].mbr, q, k, ch, -1)
			}
		case blocks > 1:
			c.NodeTests += int64(blocks)
			for bi := int32(0); bi < blocks; bi++ {
				s.enqueue(&t.blocks[e.block+bi], q, k, it.node, bi)
			}
		default:
			es := t.arena[e.aStart:e.aEnd]
			c.Comparisons += int64(len(es))
			s.offer(es, q, k, skip)
		}
	}
}
