package core

import (
	"cmp"
	"math"
	"slices"

	"touch/internal/geom"
	"touch/internal/grid"
	"touch/internal/stats"
	"touch/internal/sweep"
)

// LocalJoinKind selects how each node's B objects are joined with the A
// objects of its descendant leaves — the design choice behind the
// paper's Algorithm 4, exposed for ablation studies.
type LocalJoinKind int

const (
	// LocalJoinGrid is the paper's Algorithm 4: an equi-width grid over
	// the node MBR, with the canonical-cell rule testing each candidate
	// pair exactly once *before* the intersection test. The default.
	LocalJoinGrid LocalJoinKind = iota
	// LocalJoinGridPostDedup is Algorithm 4 as the paper evaluates it:
	// pairs sharing several cells are tested in every one of them and
	// duplicates are discarded only after a positive test (reference
	// point method). Comparisons are inflated accordingly — this mode
	// quantifies what the pre-test rule saves.
	LocalJoinGridPostDedup
	// LocalJoinSweep replaces the grid with a plane-sweep between the
	// node's B objects and the subtree's A objects (the local join the
	// paper's *other* baselines use). Like LocalJoinNested it is one of
	// the ablation's strawmen and walks the node's whole subtree; only
	// the grid kinds prune it to probe tasks.
	LocalJoinSweep
	// LocalJoinNested compares every B object of the node against every
	// A object below it — Algorithm 1's literal join(in.entities,
	// leaf.entities) without any space partitioning or pruning.
	LocalJoinNested
)

// String implements fmt.Stringer.
func (k LocalJoinKind) String() string {
	switch k {
	case LocalJoinGrid:
		return "grid"
	case LocalJoinGridPostDedup:
		return "grid-postdedup"
	case LocalJoinSweep:
		return "sweep"
	case LocalJoinNested:
		return "nested"
	default:
		return "unknown"
	}
}

// localJoin dispatches one node's local join according to the
// configuration. bs is the probe's B segment for the node and ws the
// calling worker's scratch arena; the tree itself is only read. tk is
// the worker's cancellation ticker, threaded through every node the
// worker processes so the checkpoints amortize across nodes.
func (t *Tree) localJoin(id int32, bs []geom.Object, tk *stats.Ticker, c *stats.Counters, sink stats.Sink, ws *joinScratch) {
	switch t.cfg.LocalJoin {
	case LocalJoinGrid, LocalJoinGridPostDedup:
		t.gridJoin(id, bs, tk, c, sink, ws)
	case LocalJoinSweep:
		t.sweepJoin(id, bs, tk, c, sink, ws)
	case LocalJoinNested:
		t.nestedJoin(id, bs, tk, c, sink)
	default:
		panic("core: unknown local join kind")
	}
}

// gridJoin implements Algorithm 4: the node's B objects are hashed into
// an equi-width grid over the node's MBR (a flat CSR layout, see
// csr.go), and the A objects that can meet one of them — the node's
// probe tasks, see probeTasks — probe the cells they overlap. Depending
// on the configuration, duplicate candidates are skipped before the test
// (canonical-cell rule) or discarded after it (reference-point method).
func (t *Tree) gridJoin(id int32, bs []geom.Object, tk *stats.Ticker, c *stats.Counters, sink stats.Sink, ws *joinScratch) {
	tasks := ws.probeTasks(t, id, bs, tk, c)
	if tk.Stopped() {
		return
	}
	g, csr := t.nodeGrid(id, bs, c, ws)
	for i := range tasks {
		t.gridProbe(g, csr, bs, &tasks[i], tk, c, sink)
	}
}

// nodeGrid sizes and builds one node's grid in ws, charging its replicas
// to c and its analytic footprint to the scratch's peak.
func (t *Tree) nodeGrid(id int32, bs []geom.Object, c *stats.Counters, ws *joinScratch) (*grid.Grid, *csrGrid) {
	g, replicas := t.boundedGrid(id, bs, ws)
	csr := ws.buildCSR(g, replicas)
	c.Replicas += csr.replicas
	// Transient per-node grid footprint: remember the peak; Join adds it
	// on top of the static structure bytes. A replica, an int32 index and
	// its ownership byte, fits the BytesPerRef it is priced at.
	gridBytes := csr.occupied*stats.BytesPerCell + csr.replicas*stats.BytesPerRef
	if gridBytes > ws.peakBytes {
		ws.peakBytes = gridBytes
	}
	return g, csr
}

// replicaSlack is how many times the work localGrid priced for a whole
// local join the replicas of its grid alone may cost before boundedGrid
// coarsens it. Measured over every node of the benchmark's join inputs
// and of uniform, Gaussian and clustered joins at three seeds, a grid's
// replicas never exceed 0.65 of that work (0.54 on the benchmark's), so
// only an estimate that is off by most of an order of magnitude coarsens
// anything.
const replicaSlack = 4

// boundedGrid is localGrid held to its own estimate. The cell side comes
// from mean extents, so a few objects far larger than the mean — one
// universe-sized box among thousands of points is a legal probe — can
// overlap millions of cells the estimate never priced. The replicas are
// counted before anything is allocated for them (cellRanges, the CSR
// build's first pass): while they exceed replicaSlack times the estimated
// work of the whole join, the resolution is halved and they are counted
// again, each pass as cheap as one filter pass of probeTasks. An estimate
// that is not finite coarsens nothing. The cell ranges of the grid
// returned are left in ws for buildCSR.
func (t *Tree) boundedGrid(id int32, bs []geom.Object, ws *joinScratch) (*grid.Grid, int64) {
	g, work := t.localGrid(id, bs)
	replicas := ws.cellRanges(g, bs)
	for float64(replicas) > replicaSlack*work && g.Cells() > 1 {
		res := g.Res
		for d := range res {
			res[d] = (res[d] + 1) / 2
		}
		g = grid.NewRes(t.table[id].mbr, res)
		replicas = ws.cellRanges(g, bs)
	}
	return g, replicas
}

// probeTask is one stretch [aStart, aEnd) of a node's arena range whose A
// objects may meet the node's B objects, with the MBR of the B objects
// that can reach it.
type probeTask struct {
	aStart, aEnd int32
	mbr          geom.Box
}

// probeTasks filters the node's B objects down its subtree before any A
// object is probed, so the join's cost follows the probe, not the index.
// An A object below a node m lies inside m's MBR and can only meet the B
// objects whose box meets that MBR: starting from the whole B segment,
// the descent keeps, child by child, the B objects that meet the child's
// MBR (each test charged to c.NodeTests; the survivors' indexes live on
// the ws.idx stack). A child none meets is skipped with its whole arena
// range. The descent emits a task as soon as more B objects than A
// objects are left — one more filter pass then costs more than the
// probes it can save — and does not stop at a leaf: while no more B
// objects are left than a block holds, the leaf's blocks are its
// children, so a small probe's tasks are blocks, not buckets. Tasks come
// out disjoint and in ascending arena order, so probing them in turn
// visits the surviving A objects in the order a scan of the whole subtree
// would.
//
// The ticker is charged one unit per test, a filter pass at a time: a
// cancelled join gives up within one pass over the node's B objects. The
// tasks live in ws and are valid until its next probeTasks call.
func (ws *joinScratch) probeTasks(t *Tree, id int32, bs []geom.Object, tk *stats.Ticker, c *stats.Counters) []probeTask {
	ws.tasks = ws.tasks[:0]
	ws.idx = slices.Grow(ws.idx[:0], len(bs))
	for i := range bs {
		ws.idx = append(ws.idx, int32(i))
	}
	ws.descend(t, id, bs, 0, tk, c)
	return ws.tasks
}

// descend is probeTasks below node id, for the B objects ws.idx[from:].
func (ws *joinScratch) descend(t *Tree, id int32, bs []geom.Object, from int, tk *stats.Ticker, c *stats.Counters) {
	e := &t.table[id]
	end := len(ws.idx)
	leaf := e.leaf(id)
	if end-from > e.aCount() || (leaf && (end-from > leafBlock || e.blocks() < 2)) {
		ws.emit(e.aStart, e.aEnd, bs, from)
		return
	}
	if leaf {
		for bi := int32(0); bi < e.blocks(); bi++ {
			if ws.meeting(&t.blocks[e.block+bi], bs, from, end, tk, c) {
				start := e.aStart + bi*leafBlock
				ws.emit(start, min(start+leafBlock, e.aEnd), bs, end)
			}
			ws.idx = ws.idx[:end]
		}
		return
	}
	for ch := id + 1; ch < e.skip; ch = t.table[ch].skip {
		if ws.meeting(&t.table[ch].mbr, bs, from, end, tk, c) {
			ws.descend(t, ch, bs, end, tk, c)
		}
		ws.idx = ws.idx[:end]
	}
}

// meeting is one filter pass of descend: it pushes the B objects of
// ws.idx[from:end] that meet mbr onto the stack and reports whether any
// does. A stopped ticker reads as none.
func (ws *joinScratch) meeting(mbr *geom.Box, bs []geom.Object, from, end int, tk *stats.Ticker, c *stats.Counters) bool {
	if tk.TickN(end - from) {
		return false
	}
	c.NodeTests += int64(end - from)
	for _, bi := range ws.idx[from:end] {
		if bs[bi].Box.Meets(mbr) {
			ws.idx = append(ws.idx, bi)
		}
	}
	return len(ws.idx) > end
}

// emit appends the task [aStart, aEnd) for the B objects ws.idx[from:].
func (ws *joinScratch) emit(aStart, aEnd int32, bs []geom.Object, from int) {
	mbr := geom.EmptyBox()
	for _, bi := range ws.idx[from:] {
		mbr.Extend(&bs[bi].Box)
	}
	ws.tasks = append(ws.tasks, probeTask{aStart: aStart, aEnd: aEnd, mbr: mbr})
}

// gridProbe runs the probe side of Algorithm 4 for one task: every A
// object of the task that meets the task's MBR probes the cells it
// overlaps in the built CSR grid (the others are rejected before their
// cell range is computed; like that computation, the rejection is not a
// counted test). The grid and csr are read-only here, so joinParallel can
// fan the tasks of one huge node out across workers, each probing its own
// share. The worker's ticker is charged one unit per candidate run entry,
// so a cancelled join aborts within CheckEvery comparisons plus one cell
// run.
//
// A pair sharing several cells belongs to exactly one of them: the cell
// where, in every dimension, one of the two objects begins (Tsitsigkos
// et al., arXiv 2307.09256). That is the reference-point rule without
// the arithmetic: grid.RefCell clamps the componentwise max of the two
// minimum corners, and the clamp is monotone, so the cell of the max is
// the max of the two objects' first cells. Inside a cell both overlap,
// x >= aLo and x >= bLo already, so x == max(aLo, bLo) iff x == aLo or
// x == bLo. Which dimensions b begins in at this cell was decided when
// the replica was written — its ownership byte (see ownX) — so the
// probe only forms need, the dimensions in which this cell is not a's
// first, and keeps a candidate whose byte has all of them: one test on a
// byte streamed beside the run, exact by the argument above. In a's own
// first cell need is empty and the whole run passes. The cells are
// walked with an inlined triple loop for the reason buildDense gives.
func (t *Tree) gridProbe(g *grid.Grid, csr *csrGrid, bs []geom.Object, task *probeTask, tk *stats.Ticker, c *stats.Counters, sink stats.Sink) {
	postDedup := t.cfg.LocalJoin == LocalJoinGridPostDedup
	r1, r2 := int64(g.Res[1]), int64(g.Res[2])
	as := t.arena[task.aStart:task.aEnd]
	for ai := range as {
		if tk.Stopped() {
			return
		}
		a := &as[ai]
		if !a.Box.Meets(&task.mbr) {
			continue
		}
		aLo, aHi := g.Range(a.Box)
		// need: the dimensions in which the cell is not a's first, where
		// b must begin; each bit joins after its loop's first pass.
		needX := uint8(0)
		for x := aLo[0]; x <= aHi[0]; x++ {
			needXY := needX
			for y := aLo[1]; y <= aHi[1]; y++ {
				base := (int64(x)*r1 + int64(y)) * r2
				need := needXY
				for z := aLo[2]; z <= aHi[2]; z, need = z+1, needXY|ownZ {
					run, own := csr.run(base + int64(z))
					if len(run) == 0 {
						continue
					}
					if tk.TickN(len(run)) {
						return
					}
					own = own[:len(run)]
					for j, bi := range run {
						b := &bs[bi]
						owns := own[j]&need == need
						if postDedup {
							// Paper mode: test in every shared cell, keep
							// the hit only in the owning cell.
							c.Comparisons++
							if a.Box.Meets(&b.Box) && owns {
								c.Results++
								sink.Emit(a.ID, b.ID)
							}
							continue
						}
						// Canonical-cell rule: test the pair only once.
						if !owns {
							continue
						}
						c.Comparisons++
						if a.Box.Meets(&b.Box) {
							c.Results++
							sink.Emit(a.ID, b.ID)
						}
					}
				}
				needXY = needX | ownY
			}
			needX = ownX
		}
	}
}

// cellHalvings is how many times localGrid may halve the paper's cell
// side. The candidates are counted, not compared against a floor: a
// mean extent that overflowed to +Inf halves to +Inf forever.
const cellHalvings = 4

// localGrid sizes the grid for one node. The paper's rule is the
// coarsest candidate: a cell side "considerably larger than the average
// object" (§5.2.2), CellFactor × the larger of the two datasets' mean
// extents — of either dataset, since probe objects (A, possibly
// ε-expanded) that span many cells multiply grid lookups — with the
// resolution capped at LocalCells per dimension. In memory a replica
// costs a word and a candidate costs a box test (Tsitsigkos & Mamoulis,
// arXiv 1908.11740), so that side is often far too coarse: localGrid
// prices it and its cellHalvings halvings with gridWork and takes the
// cheapest, the coarser on a tie. A finer grid is therefore built only
// where the estimate expects the comparisons to shrink by more than the
// replicas and cell lookups it adds; an estimate that is not finite
// keeps the paper's side. The estimate of the side taken is returned with
// the grid.
func (t *Tree) localGrid(id int32, bs []geom.Object) (*grid.Grid, float64) {
	n := &t.table[id]
	extB := geom.Dataset(bs).AverageExtent()
	extA := 0.0
	if n.aCount() > 0 {
		extA = t.extSum[id] / float64(n.aCount())
	}
	side := max(extA, extB) * t.cfg.CellFactor
	if side <= 0 {
		// Degenerate (point) objects: fall back to the resolution cap.
		maxExt := 0.0
		for d := 0; d < geom.Dims; d++ {
			if e := n.mbr.Extent(d); e > maxExt {
				maxExt = e
			}
		}
		side = maxExt / float64(t.cfg.LocalCells)
		if side <= 0 {
			side = 1
		}
	}
	// csr.go keeps cell coordinates in int32.
	maxRes := min(t.cfg.LocalCells, math.MaxInt32)
	work := func(s float64) float64 {
		return gridWork(n.mbr, grid.ResFor(n.mbr, s, maxRes), float64(n.aCount()), float64(len(bs)), extA, extB)
	}
	best, bestWork := side, work(side)
	if !math.IsInf(bestWork, 0) && !math.IsNaN(bestWork) {
		// s > 0: a denormal side halves to zero.
		for i, s := 0, side/2; i < cellHalvings && s > 0; i, s = i+1, s/2 {
			if w := work(s); w < bestWork {
				best, bestWork = s, w
			}
		}
	}
	return grid.NewCellSize(n.mbr, best, maxRes), bestWork
}

// gridWork estimates a node's local-join work on a grid of the given
// resolution over its MBR, from numbers the node already has: replicas
// written + cells looked up + pairs compared, each counted once.
//
//	nB·Π min(res, 1+extB/cell) + nA·Π min(res, 1+extA/cell) + nA·nB·Π min(1, (cell+extA+extB)/X)
//
// with the products over the dimensions of non-zero MBR extent X (the
// others collapse to one cell): an object of mean extent e overlaps
// 1 + e/cell cells per dimension, and two objects share a cell when
// their begins are within cell + extA + extB of each other.
func gridWork(mbr geom.Box, res grid.Coords, nA, nB, extA, extB float64) float64 {
	replicas, lookups, pairs := nB, nA, nA*nB
	for d := 0; d < geom.Dims; d++ {
		x := mbr.Extent(d)
		if !(x > 0) {
			continue
		}
		r := float64(res[d])
		cell := x / r
		replicas *= min(r, 1+extB/cell)
		lookups *= min(r, 1+extA/cell)
		pairs *= min(1, (cell+extA+extB)/x)
	}
	return replicas + lookups + pairs
}

// sweepJoin plane-sweeps the subtree's A objects against the node's B
// objects. The A objects are copied into worker scratch before sorting
// (the arena must stay in leaf order); the B segment is private to the
// probe and rewritten by its next Assign, so it is sorted in place.
func (t *Tree) sweepJoin(id int32, bs []geom.Object, tk *stats.Ticker, c *stats.Counters, sink stats.Sink, ws *joinScratch) {
	byXMin := func(a, b geom.Object) int { return cmp.Compare(a.Box.Min[0], b.Box.Min[0]) }
	as := append(ws.aObjs[:0], t.subtreeA(id)...)
	ws.aObjs = as
	slices.SortFunc(as, byXMin)
	slices.SortFunc(bs, byXMin)
	if bytes := int64(len(as)+len(bs)) * stats.BytesPerObject; bytes > ws.peakBytes {
		ws.peakBytes = bytes
	}
	sweep.JoinSorted(as, bs, tk, c, func(x, y *geom.Object) {
		c.Results++
		sink.Emit(x.ID, y.ID)
	})
}

// nestedJoin is the unpartitioned local join: all pairs.
func (t *Tree) nestedJoin(id int32, bs []geom.Object, tk *stats.Ticker, c *stats.Counters, sink stats.Sink) {
	as := t.subtreeA(id)
	for ai := range as {
		a := &as[ai]
		for i := range bs {
			if tk.Tick() {
				return
			}
			c.Comparisons++
			if a.Box.Meets(&bs[i].Box) {
				c.Results++
				sink.Emit(a.ID, bs[i].ID)
			}
		}
	}
}
