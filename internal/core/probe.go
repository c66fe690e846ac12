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
// The B assignments are a flat CSR over the tree's dense node ids: all
// assigned B objects live in one contiguous slice grouped by node, with
// per-node end offsets, replacing the per-node slices the tree itself
// used to carry.
type Probe struct {
	tree    *Tree
	workers int

	// bObjs holds the assigned B objects grouped by node id (the CSR
	// value array); nodeOff[id] is the end offset of node id's segment
	// (its start is nodeOff[id-1], 0 for id 0). active lists the ids
	// with a non-empty segment in ascending order — DFS pre-order, the
	// sequential processing order.
	bObjs   []geom.Object
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

	// query holds the single-probe traversal state (RangeQuery /
	// PointQuery / KNN); see query.go.
	query queryScratch

	peakGridBytes int64 // largest transient local-join grid of the last join
}

// NewProbe returns a fresh probe for joining against the tree, with the
// tree's default worker count.
func (t *Tree) NewProbe() *Probe {
	return &Probe{tree: t, workers: t.cfg.Workers}
}

// Tree returns the shared tree the probe joins against.
func (p *Probe) Tree() *Tree { return p.tree }

// Workers returns the probe's worker count.
func (p *Probe) Workers() int { return p.workers }

// SetWorkers sets the number of goroutines Assign and JoinPhase use (0
// or 1 = single-threaded). Per-probe: concurrent joins on one tree may
// each pick their own parallelism.
func (p *Probe) SetWorkers(n int) { p.workers = n }

// nodeB returns node id's segment of assigned B objects. The segment is
// probe-private and rewritten by the next Assign, so local joins may
// reorder it in place.
func (p *Probe) nodeB(id int32) []geom.Object {
	start := int32(0)
	if id > 0 {
		start = p.nodeOff[id-1]
	}
	end := p.nodeOff[id]
	return p.bObjs[start:end:end]
}

// Assigned returns the number of B objects the last Assign placed in the
// tree (the probe dataset size minus the filtered objects).
func (p *Probe) Assigned() int { return len(p.bObjs) }

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
		l.AssignedB += len(p.nodeB(id))
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
	return int64(len(p.bObjs))*stats.BytesPerRef + p.peakGridBytes
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
	t := p.tree
	if cap(p.dest) < len(b) {
		p.dest = make([]int32, len(b))
	}
	dest := p.dest[:len(b)]
	if p.workers > 1 && len(b) >= minParallelAssign {
		p.assignParallel(b, dest, ctl, c)
	} else {
		tk := stats.NewTicker(ctl)
		for i := range b {
			if tk.Tick() {
				break
			}
			dest[i] = t.AssignOne(&b[i].Box, c)
			if dest[i] < 0 {
				c.Filtered++
			}
		}
	}
	if ctl.Stopped() {
		// The tail of dest was never written this round (it may hold a
		// previous assignment's ids); merging it would corrupt the CSR.
		p.bObjs = p.bObjs[:0]
		p.active = p.active[:0]
		return
	}
	p.merge(b, dest)
}

// merge builds the CSR from the per-object destinations: a counting sort
// by node id whose scatter runs in input order, making every node
// segment bit-identical to a sequential append.
func (p *Probe) merge(b geom.Dataset, dest []int32) {
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
	if cap(p.bObjs) < assigned {
		p.bObjs = make([]geom.Object, assigned)
	}
	p.bObjs = p.bObjs[:assigned]
	for i, id := range dest {
		if id < 0 {
			continue
		}
		p.bObjs[off[id]] = b[i]
		off[id]++
	}
	// After the scatter, off[id] is the end offset of node id's segment
	// — exactly the CSR form nodeB reads.
}

// JoinPhase runs the third phase: every node holding B objects is joined
// with the A objects of its descendant leaves via the tree's configured
// local join, across the probe's workers when > 1. ctl (which may be
// nil) is polled through amortized checkpoints inside every local join;
// a stopped phase unwinds with partial counters and whatever pairs were
// already emitted.
func (p *Probe) JoinPhase(ctl *stats.Control, c *stats.Counters, sink stats.Sink) {
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
		t.localJoin(id, p.nodeB(id), &tk, c, sink, ws)
	}
	p.peakGridBytes = ws.peakBytes
}

// joinCost estimates node id's local-join work for this probe.
func (p *Probe) joinCost(id int32) int64 {
	return int64(len(p.nodeB(id))) * int64(p.tree.table[id].aCount())
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
