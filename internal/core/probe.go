package core

import (
	"math"

	"touch/internal/geom"
	"touch/internal/stats"
)

// Probe is the per-query state of one join or single-probe query
// against a shared, immutable Tree: the B assignments, the worker
// count, the local-join scratch, the query traversal scratch and the
// transient memory high-water marks. A Probe must not be shared by
// concurrent callers — give every goroutine its own (they are cheap,
// and all buffers recycle) — but a single Probe is freely reusable
// across sequential joins and queries: each Assign or query fully
// overwrites the previous state, no reset step needed.
//
// The B assignments are a flat CSR over the tree's dense node ids: the
// input indexes of all assigned B objects in one contiguous slice
// grouped by node, with per-node end offsets. The probe keeps the
// caller's B between Assign and JoinPhase and copies none of it: each
// local join gathers its node's objects into the calling worker's
// scratch just before it runs (nodeB).
type Probe struct {
	tree    *Tree
	workers int

	// b is the dataset of the last Assign, its boxes grown by eps where
	// nodeB gathers them; JoinPhase drops it. bIdx holds the input
	// indexes of the assigned objects grouped by node id (the CSR value
	// array); nodeOff[id] is the end offset of node id's segment (its
	// start is nodeOff[id-1], 0 for id 0). active lists the ids with a
	// non-empty segment in ascending order — DFS pre-order, the
	// sequential processing order.
	b       geom.Dataset
	eps     float64
	bIdx    []int32
	nodeOff []int32
	active  []int32

	// Reused scratch: per-B-object destination ids for the assignment
	// merge, per-worker counters, big/small node-id partitions of the
	// parallel join, and per-worker local-join buffer arenas.
	dest      []int32
	counters  []stats.Counters
	big       []int32
	small     []int32
	scratches []*joinScratch

	// query holds the single-probe traversal state (RangeQuery / KNN);
	// see query.go.
	query queryScratch

	peakGridBytes int64 // largest transient local-join grid of the last join
}

// NewProbe returns a fresh, single-threaded probe for joining against
// the tree.
func (t *Tree) NewProbe() *Probe {
	return &Probe{tree: t}
}

// SetWorkers sets the number of goroutines Assign and JoinPhase use (0
// or 1 = single-threaded, the paper's setting and a fresh probe's).
// Per-probe: concurrent joins on one tree may each pick their own
// parallelism. Unlike the slab driver in internal/parallel, it needs no
// object replication or boundary-ownership filtering: B is sharded
// across the workers for the assignment and tree nodes are dispatched
// to a worker pool for the join.
func (p *Probe) SetWorkers(n int) { p.workers = n }

// nodeIdx returns the input indexes of node id's assigned B objects,
// in input order.
func (p *Probe) nodeIdx(id int32) []int32 {
	start := int32(0)
	if id > 0 {
		start = p.nodeOff[id-1]
	}
	return p.bIdx[start:p.nodeOff[id]]
}

// nodeB gathers node id's assigned B objects into ws, in input order,
// each box grown in place by the probe's ε, bit for bit the box the
// assignment tested. The slice is ws's and rewritten by its next nodeB,
// so local joins may reorder it in place.
func (p *Probe) nodeB(id int32, ws *joinScratch) []geom.Object {
	idx := p.nodeIdx(id)
	ws.bObjs = sized(ws.bObjs, len(idx))
	bs, b, eps := ws.bObjs, p.b, p.eps
	for i, bi := range idx {
		bs[i] = b[bi]
		if eps != 0 {
			bs[i].Box.Grow(eps)
		}
	}
	return bs
}

// Assigned returns the number of B objects the last Assign placed in the
// tree (the probe dataset size minus the filtered objects).
func (p *Probe) Assigned() int { return len(p.bIdx) }

// LevelStats is one tree depth of Probe.Levels.
type LevelStats struct {
	Nodes     int // nodes at this depth
	Active    int // of them, the nodes holding B objects
	AssignedB int // B objects assigned at this depth
	ActiveA   int // A objects below the nodes holding B objects

	// Split counts the inner nodes at this depth by the dimension their
	// children are separated along — read off the children's MBRs as the
	// dimension in which neighbouring siblings have the smallest share of
	// the node's extent in common, the tree keeping no record of its cuts —
	// and Overlap is that share, averaged over those nodes: 0 when no
	// sibling reaches into the next, 1 when each spans the whole node.
	Split   [geom.Dims]int
	Overlap float64
}

// Levels reports where the last Assign placed the B objects, one entry
// per tree depth from the root (0) down: how well the hierarchy
// partitions the probe, how much of the index each level's local joins
// have below them, and how cleanly each level's nodes split. Leaves may
// sit at different depths; the last entry is the deepest's.
func (p *Probe) Levels() []LevelStats {
	t := p.tree
	levels := make([]LevelStats, t.Height)
	// Parents precede their children, so one pass front to back knows
	// every node's depth by the time it reaches it.
	depth := make([]int, len(t.table))
	for i := range t.table {
		id, e := int32(i), &t.table[i]
		l := &levels[depth[i]]
		l.Nodes++
		if e.leaf(id) {
			continue
		}
		dim, share := t.split(id)
		l.Split[dim]++
		l.Overlap += share
		for ch := id + 1; ch < e.skip; ch = t.table[ch].skip {
			depth[ch] = depth[i] + 1
		}
	}
	for d := range levels {
		l := &levels[d]
		inner := 0
		for _, nodes := range l.Split {
			inner += nodes
		}
		if inner > 0 {
			l.Overlap /= float64(inner)
		}
	}
	for _, id := range p.active {
		l := &levels[depth[id]]
		l.Active++
		l.AssignedB += len(p.nodeIdx(id))
		l.ActiveA += t.table[id].aCount()
	}
	return levels
}

// split returns the dimension in which the inner node i's neighbouring
// children have the least in common, and how much that is as a share of
// the node's extent there (0 for a node of no extent).
func (t *Tree) split(i int32) (dim int, share float64) {
	e := &t.table[i]
	share = math.Inf(1)
	for d := 0; d < geom.Dims; d++ {
		common := 0.0
		prev := &t.table[i+1]
		for ch := prev.skip; ch < e.skip; ch = prev.skip {
			next := &t.table[ch]
			common += max(0, min(prev.mbr.Max[d], next.mbr.Max[d])-max(prev.mbr.Min[d], next.mbr.Min[d]))
			prev = next
		}
		if ext := e.mbr.Extent(d); ext > 0 {
			common /= ext
		}
		if common < share {
			dim, share = d, common
		}
	}
	return dim, share
}

// MemoryBytes is the analytic footprint of the probe's last join: the
// assigned B references plus the peak transient local-join grid. Valid
// after JoinPhase; together with Tree.StaticBytes it reproduces the
// paper's TOUCH memory accounting (§6.4).
func (p *Probe) MemoryBytes() int64 {
	return int64(len(p.bIdx))*stats.BytesPerRef + p.peakGridBytes
}

// Assign runs the assignment phase for all of dataset B, overwriting any
// previous assignment held by the probe. With more than one worker the
// dataset is sharded across goroutines; the per-node B order is
// identical to the sequential assignment (input order) either way.
//
// ctl (which may be nil) is polled once per assigned object; an aborted
// assignment leaves the probe holding an empty assignment (JoinPhase
// then has nothing to do) — never a partially merged one — and the next
// Assign recycles it as usual.
func (p *Probe) Assign(b geom.Dataset, ctl *stats.Control, c *stats.Counters) {
	p.AssignExpanded(b, 0, ctl, c)
}

// AssignExpanded is Assign over b with every box enlarged by eps
// (geom.Box.Expand), without copying b: the descent tests each grown box
// and each local join grows its node's objects as it gathers them, so
// the join sees bit for bit the boxes of Assign(b.Expand(eps)). eps = 0
// is Assign, with no arithmetic on the boxes. The probe keeps b until
// JoinPhase returns; b must not change in between.
func (p *Probe) AssignExpanded(b geom.Dataset, eps float64, ctl *stats.Control, c *stats.Counters) {
	if cap(p.dest) < len(b) {
		p.dest = make([]int32, len(b))
	}
	dest := p.dest[:len(b)]
	cl := p.tree.cells
	if !cl.pays(b, eps) {
		cl = nil
	}
	if p.workers > 1 && len(b) >= minParallelAssign {
		p.assignParallel(b, eps, cl, dest, ctl, c)
	} else {
		p.tree.assignRange(b, eps, cl, dest, 0, len(b), ctl, c)
	}
	if ctl.Stopped() {
		// The tail of dest was never written this round (it may hold a
		// previous assignment's ids); merging it would corrupt the CSR.
		p.b, p.bIdx = nil, p.bIdx[:0]
		p.active = p.active[:0]
		return
	}
	p.merge(b, eps, dest)
}

// assignRange assigns b[lo:hi], every box enlarged by eps, recording the
// destination of b[i] in dest[i] and charging c, until ctl stops it. Each
// descent starts where cl sends the box, at the root when cl is nil.
func (t *Tree) assignRange(b geom.Dataset, eps float64, cl *cellTable, dest []int32, lo, hi int, ctl *stats.Control, c *stats.Counters) {
	tk := stats.NewTicker(ctl)
	for i := lo; i < hi; i++ {
		if tk.Tick() {
			return
		}
		box := &b[i].Box
		if eps != 0 {
			grown := box.Expand(eps)
			box = &grown
		}
		dest[i] = t.descend(box, cl.start(box), c)
		if dest[i] < 0 {
			c.Filtered++
		}
	}
}

// merge builds the CSR from the per-object destinations: a counting sort
// by node id whose scatter of input indexes runs in input order, so every
// node gathers its objects in the order a sequential append would have
// left them.
func (p *Probe) merge(b geom.Dataset, eps float64, dest []int32) {
	t := p.tree
	if cap(p.nodeOff) < t.Nodes {
		p.nodeOff = make([]int32, t.Nodes)
	}
	off := p.nodeOff[:t.Nodes]
	p.nodeOff = off
	clear(off)
	assigned := 0
	for _, id := range dest {
		if id >= 0 {
			off[id]++
			assigned++
		}
	}
	p.active = p.active[:0]
	total := int32(0)
	for id := range off {
		cnt := off[id]
		if cnt > 0 {
			p.active = append(p.active, int32(id))
		}
		off[id] = total
		total += cnt
	}
	p.bIdx = sized(p.bIdx, assigned)
	for i, id := range dest {
		if id >= 0 {
			p.bIdx[off[id]] = int32(i)
			off[id]++
		}
	}
	// After the scatter, off[id] is the end offset of node id's segment
	// — exactly the CSR form nodeIdx reads.
	p.b, p.eps = b, eps
}

// JoinPhase runs the third phase: every node holding B objects is joined
// with the A objects of its descendant leaves via the tree's configured
// local join, across the probe's workers when > 1. ctl (which may be
// nil) is polled through amortized checkpoints inside every local join;
// a stopped phase unwinds with partial counters and whatever pairs were
// already emitted. It drops the probe's reference to the assigned
// dataset when it returns, so a probe kept for reuse does not keep the
// caller's B alive; the next join needs its own Assign.
func (p *Probe) JoinPhase(ctl *stats.Control, c *stats.Counters, sink stats.Sink) {
	defer func() { p.b = nil }()
	p.peakGridBytes = 0
	if len(p.active) == 0 || ctl.Stopped() {
		return
	}
	if p.workers > 1 {
		p.joinParallel(ctl, c, sink)
		return
	}
	t := p.tree
	ws := p.scratch(0)
	ws.peakBytes = 0
	tk := stats.NewTicker(ctl)
	for _, id := range p.active {
		if tk.Stopped() {
			break
		}
		t.localJoin(id, p.nodeB(id, ws), &tk, c, sink, ws)
	}
	p.peakGridBytes = ws.peakBytes
}

// joinCost estimates node id's local-join work for this probe.
func (p *Probe) joinCost(id int32) int64 {
	return int64(len(p.nodeIdx(id))) * int64(p.tree.table[id].aCount())
}

// scratch returns worker w's reusable buffer arena, growing the pool on
// first use of a new worker slot.
func (p *Probe) scratch(w int) *joinScratch {
	for len(p.scratches) <= w {
		p.scratches = append(p.scratches, &joinScratch{})
	}
	return p.scratches[w]
}

// counterSlice returns n zeroed per-worker counters from reusable
// storage.
func (p *Probe) counterSlice(n int) []stats.Counters {
	if cap(p.counters) < n {
		p.counters = make([]stats.Counters, n)
	}
	s := p.counters[:n]
	for i := range s {
		s[i] = stats.Counters{}
	}
	return s
}
