package core

import (
	"slices"

	"touch/internal/geom"
	"touch/internal/stats"
)

// Single-probe queries over the built tree. The join phases stream a
// whole dataset B through the hierarchy; the queries here answer one
// box, point or k-nearest-neighbor question at a time against the
// indexed dataset A, reusing the same immutable structure: node MBRs
// prune the descent and the dense-DFS arena layout turns every subtree
// into one contiguous [aStart, aEnd) scan. Queries only read the Tree;
// all traversal state (DFS stack, kNN heap, result buffers) lives in
// the Probe's queryScratch and recycles across queries, so steady-state
// serving allocates nothing inside the traversal.

// queryScratch is the per-probe traversal state of the single-probe
// queries: a node-id stack for the range/point descent, a binary heap
// for the best-first kNN search and the result buffers the queries
// append into. All slices recycle across queries.
type queryScratch struct {
	stack []int32
	heap  []knnItem
	ids   []geom.ID
	nbrs  []geom.Neighbor
}

// RangeQuery returns the IDs of every indexed A object whose MBR
// intersects q (closed-interval semantics: touching boundaries count),
// sorted ascending by ID. The returned slice aliases probe-owned
// scratch and is only valid until the probe's next query or join —
// callers that retain results must copy them. Node-MBR tests are
// charged to c.NodeTests, object tests to c.Comparisons, and emitted
// matches to c.Results.
func (p *Probe) RangeQuery(q geom.Box, c *stats.Counters) []geom.ID {
	t := p.tree
	s := &p.query
	s.ids = s.ids[:0]
	s.stack = append(s.stack[:0], t.Root.id)
	for len(s.stack) > 0 {
		id := s.stack[len(s.stack)-1]
		s.stack = s.stack[:len(s.stack)-1]
		n := t.nodes[id]
		c.NodeTests++
		if !n.MBR.Intersects(q) {
			continue
		}
		if q.Contains(n.MBR) {
			// The whole subtree matches: emit its arena range without
			// per-object tests.
			for _, o := range t.subtreeA(n) {
				s.ids = append(s.ids, o.ID)
			}
			c.Results += int64(n.aCount())
			continue
		}
		if n.Leaf() {
			for i := range n.Entries {
				c.Comparisons++
				if n.Entries[i].Box.Intersects(q) {
					s.ids = append(s.ids, n.Entries[i].ID)
					c.Results++
				}
			}
			continue
		}
		for _, ch := range n.Children {
			s.stack = append(s.stack, ch.id)
		}
	}
	slices.Sort(s.ids)
	return s.ids
}

// PointQuery returns the IDs of every indexed A object whose MBR
// contains the point (boundary included), sorted ascending by ID. It is
// RangeQuery with a zero-extent box. The returned slice aliases
// probe-owned scratch; see RangeQuery.
func (p *Probe) PointQuery(pt geom.Point, c *stats.Counters) []geom.ID {
	return p.RangeQuery(geom.BoxAt(pt), c)
}

// knnItem is one entry of the kNN search heap: either a tree node (id =
// dense node id) or an indexed object (obj = true, id = object ID), with
// its minimum distance from the query point.
type knnItem struct {
	dist float64
	id   int32
	obj  bool
}

// knnLess orders the kNN heap: by distance first, then nodes before
// objects, then by ascending id. Popping an equal-distance node before
// an object guarantees that any smaller-id object inside that node
// enters the heap before the tie is consumed, which makes the
// (Distance, ID) order of the results exact — not just the distances.
func knnLess(a, b knnItem) bool {
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	if a.obj != b.obj {
		return !a.obj
	}
	return a.id < b.id
}

// push adds an item to the heap, restoring the heap order.
func (s *queryScratch) push(it knnItem) {
	s.heap = append(s.heap, it)
	i := len(s.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !knnLess(s.heap[i], s.heap[parent]) {
			break
		}
		s.heap[i], s.heap[parent] = s.heap[parent], s.heap[i]
		i = parent
	}
}

// pop removes and returns the minimum item of the heap.
func (s *queryScratch) pop() knnItem {
	top := s.heap[0]
	last := len(s.heap) - 1
	s.heap[0] = s.heap[last]
	s.heap = s.heap[:last]
	i := 0
	for {
		l, r, m := 2*i+1, 2*i+2, i
		if l < len(s.heap) && knnLess(s.heap[l], s.heap[m]) {
			m = l
		}
		if r < len(s.heap) && knnLess(s.heap[r], s.heap[m]) {
			m = r
		}
		if m == i {
			break
		}
		s.heap[i], s.heap[m] = s.heap[m], s.heap[i]
		i = m
	}
	return top
}

// KNN returns the k indexed A objects nearest to q by minimum Euclidean
// box distance, ordered by (Distance, ID) ascending — ties at the k-th
// distance resolve to the smaller object IDs, deterministically. Fewer
// than k results are returned when the index holds fewer than k
// objects. The search is the classic best-first branch and bound over
// node MBRs: a distance-ordered priority queue holds nodes and objects
// together, a node's MBR distance lower-bounding everything below it,
// so the k-th object pops before any node that could still beat it is
// discarded. The returned slice aliases probe-owned scratch; see
// RangeQuery.
//
// skip, when given, lists object IDs (ascending) to treat as absent: a
// skipped object is dropped when it is popped, so the search order — and
// with it the (Distance, ID) order and the tie rule — is that of the
// unfiltered search, and the answer is the first k unskipped objects of
// it. The delta layer passes its tombstones here instead of over-asking
// by one neighbor per tombstone.
func (p *Probe) KNN(q geom.Point, k int, c *stats.Counters, skip ...geom.ID) []geom.Neighbor {
	t := p.tree
	s := &p.query
	s.nbrs = s.nbrs[:0]
	if k <= 0 || t.SizeA == 0 {
		return s.nbrs
	}
	s.heap = s.heap[:0]
	c.NodeTests++
	s.push(knnItem{dist: t.Root.MBR.PointDistance(q), id: t.Root.id})
	for len(s.heap) > 0 {
		it := s.pop()
		if it.obj {
			if len(skip) > 0 {
				if _, dead := slices.BinarySearch(skip, geom.ID(it.id)); dead {
					continue
				}
			}
			s.nbrs = append(s.nbrs, geom.Neighbor{ID: geom.ID(it.id), Distance: it.dist})
			if len(s.nbrs) == k {
				break
			}
			continue
		}
		n := t.nodes[it.id]
		if n.Leaf() {
			for i := range n.Entries {
				c.Comparisons++
				s.push(knnItem{
					dist: n.Entries[i].Box.PointDistance(q),
					id:   int32(n.Entries[i].ID),
					obj:  true,
				})
			}
			continue
		}
		for _, ch := range n.Children {
			c.NodeTests++
			s.push(knnItem{dist: ch.MBR.PointDistance(q), id: ch.id})
		}
	}
	c.Results += int64(len(s.nbrs))
	return s.nbrs
}
