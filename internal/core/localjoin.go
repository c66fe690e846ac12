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
// configuration. bs is the node's B objects, gathered into ws, the
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
// A task one B object reaches alone needs no grid: with pre-test dedup it
// is a scan of its A objects against that box (joinTask), and a node all
// of whose tasks are lone builds none (taskGrid).
func (t *Tree) gridJoin(id int32, bs []geom.Object, tk *stats.Ticker, c *stats.Counters, sink stats.Sink, ws *joinScratch) {
	tasks := ws.probeTasks(t, id, bs, tk, c)
	if tk.Stopped() {
		return
	}
	g, csr := t.taskGrid(id, bs, tasks, c, ws)
	for i := range tasks {
		t.joinTask(g, csr, bs, &tasks[i], tk, c, sink)
	}
}

// scans reports whether joinTask scans task instead of probing a grid:
// it is lone and the dedup is pre-test. Post-test dedup, the paper's
// mode, keeps a grid for every task, so its counts are Algorithm 4's.
func (t *Tree) scans(task *probeTask) bool {
	return task.lone >= 0 && t.cfg.LocalJoin == LocalJoinGrid
}

// taskGrid builds node id's grid (nodeGrid) when one of its tasks needs
// it, and returns nil for both when joinTask scans every task, or there
// is none. Post-test dedup builds every node's grid, as Algorithm 4 does.
func (t *Tree) taskGrid(id int32, bs []geom.Object, tasks []probeTask, c *stats.Counters, ws *joinScratch) (*grid.Grid, *csrGrid) {
	need := t.cfg.LocalJoin != LocalJoinGrid
	for i := 0; i < len(tasks) && !need; i++ {
		need = !t.scans(&tasks[i])
	}
	if !need {
		return nil, nil
	}
	return t.nodeGrid(id, bs, c, ws)
}

// joinTask joins one probe task, or any stretch of one: the one dispatch
// of the sequential join and of joinParallel's shares. A task one B
// object reaches alone is a range scan of its A objects against the box:
// each is one comparison, hit or miss, and each that meets the box one
// result, emitted in A order, as gridProbe would emit them. The scan is
// charged to the ticker and to the comparisons once, for the task's
// length. That length is a z window, not a leaf block: probeTasks cut the
// task down to the run of its block that the block's keys bound for the
// box's z extent grown by the block's largest half extent (zRun), the only
// objects of the block that can meet the box along z. A lone task that is
// not exactly one block keeps its whole length, as does a box whose window
// bounds are not ordered; and a stretch joinParallel cuts from a task is
// a stretch of the window. Any other task probes g and csr, built by
// taskGrid.
func (t *Tree) joinTask(g *grid.Grid, csr *csrGrid, bs []geom.Object, task *probeTask, tk *stats.Ticker, c *stats.Counters, sink stats.Sink) {
	if !t.scans(task) {
		t.gridProbe(g, csr, bs, task, tk, c, sink)
		return
	}
	n := int(task.aEnd - task.aStart)
	if tk.TickN(n) {
		return
	}
	c.Comparisons += int64(n)
	b := &bs[task.lone]
	boxes, ids := t.span(task.aStart, task.aEnd)
	for ai := range boxes {
		if boxes[ai].Meets(&task.mbr) {
			c.Results++
			sink.Emit(ids[ai], b.ID)
		}
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
// that is not finite coarsens nothing. The grid returned is ws's, and
// the cell ranges of it are left in ws for buildCSR.
func (t *Tree) boundedGrid(id int32, bs []geom.Object, ws *joinScratch) (*grid.Grid, int64) {
	g := &ws.grid
	var work float64
	*g, work = t.localGrid(id, bs)
	replicas := ws.cellRanges(g, bs)
	for float64(replicas) > replicaSlack*work && g.Cells() > 1 {
		res := g.Res
		for d := range res {
			res[d] = (res[d] + 1) / 2
		}
		*g = grid.NewRes(t.table[id].mbr, res)
		replicas = ws.cellRanges(g, bs)
	}
	return g, replicas
}

// probeTask is one stretch [aStart, aEnd) of a node's arena range whose A
// objects may meet the node's B objects, with the MBR of the B objects
// that can reach it. When exactly one can, lone is its index in the
// node's B objects and mbr is its box; otherwise lone is -1.
type probeTask struct {
	aStart, aEnd int32
	lone         int32
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
// children, so a small probe's tasks are blocks, not buckets. A task
// the filter passes left one B object for is lone (see emit). Tasks come
// out disjoint and in ascending arena order, so probing them in turn
// visits the surviving A objects in the order a scan of the whole
// subtree would.
//
// One pass is not run: that of the node's own B objects against the
// children of a node that has exactly two. Algorithm 3 leaves a box at
// an inner node only when it meets two of its children (Tree.descend), so
// there it meets both, and nodeB hands the join bit for bit the box the
// assignment tested; the pass would keep every object. The tasks are the
// ones every pass gives, with 2·|B| fewer node tests. At a node of three
// or more children a box may miss one, so the pass runs there.
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

// descend is probeTasks below node id, for the B objects ws.idx[from:];
// from is 0 for the node's own objects, the only ones it may trust to
// meet both children of a node that has two.
func (ws *joinScratch) descend(t *Tree, id int32, bs []geom.Object, from int, tk *stats.Ticker, c *stats.Counters) {
	e := &t.table[id]
	end := len(ws.idx)
	leaf := e.leaf(id)
	if end-from > e.aCount() || (leaf && (end-from > leafBlock || e.blocks() < 2)) {
		blk := int32(-1)
		if leaf && e.blocks() == 1 {
			blk = e.block
		}
		ws.emit(t, e.aStart, e.aEnd, blk, bs, from)
		return
	}
	if leaf {
		for bi := int32(0); bi < e.blocks(); bi++ {
			if ws.meeting(&t.blocks[e.block+bi], bs, from, end, tk, c) {
				start := e.aStart + bi*leafBlock
				ws.emit(t, start, min(start+leafBlock, e.aEnd), e.block+bi, bs, end)
			}
			ws.idx = ws.idx[:end]
		}
		return
	}
	// The node's own B objects at a node of two children meet both:
	// Algorithm 3 left each here for that reason, so a filter pass would
	// keep them all and is skipped.
	second := t.table[id+1].skip
	trusted := from == 0 && second < e.skip && t.table[second].skip == e.skip
	for ch := id + 1; ch < e.skip; ch = t.table[ch].skip {
		if trusted {
			ws.idx = append(ws.idx, ws.idx[:end]...)
			ws.descend(t, ch, bs, end, tk, c)
		} else if ws.meeting(&t.table[ch].mbr, bs, from, end, tk, c) {
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

// emit appends the task [aStart, aEnd) for the B objects ws.idx[from:],
// lone when there is one of them. blk is the index of the block the
// stretch is, exactly, or -1: a lone task joinTask scans is cut down to
// its block's z window for the box (zRun), and not appended at all when
// that is empty.
func (ws *joinScratch) emit(t *Tree, aStart, aEnd, blk int32, bs []geom.Object, from int) {
	task := probeTask{aStart: aStart, aEnd: aEnd, lone: -1, mbr: geom.EmptyBox()}
	if len(ws.idx)-from == 1 {
		task.lone = ws.idx[from]
	}
	for _, bi := range ws.idx[from:] {
		task.mbr.Extend(&bs[bi].Box)
	}
	if blk >= 0 && t.scans(&task) {
		lo, hi := t.zRun(blk, aEnd-aStart, &task.mbr)
		if lo == hi {
			return
		}
		task.aStart, task.aEnd = aStart+lo, aStart+hi
	}
	ws.tasks = append(ws.tasks, task)
}

// gridProbe runs the probe side of Algorithm 4 for one task: every A
// object of the task that meets the task's MBR probes the cells it
// overlaps in the built CSR grid (the others are rejected before their
// cell range is computed). The task's MBR stands for its B objects, so
// that pre-filter's tests are node tests, added to c.NodeTests once, for
// the task's length. joinTask sends it every task two or more B objects
// reach, and in post-test dedup mode every task. The grid and csr are
// read-only here, so joinParallel can fan the tasks of one huge node out
// across workers, each probing its own share. The worker's ticker is
// charged one unit per candidate run entry, so a cancelled join aborts
// within CheckEvery comparisons plus one cell run.
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
// byte streamed beside the run, exact by the argument above. The cells are
// walked with an inlined triple loop for the reason buildDense gives.
//
// In a's first cell need is empty, in either dedup mode: a owns every
// candidate there, so the run is tested whole, with no ownership byte
// loaded, 64 at a time with geom.Meeting, which gathers the hits by their
// meet bits, not by a jump per test: a hit (a third of the candidates on
// the neuroscience join) comes at no position a predictor can learn. An A
// object that lies in one cell reads only that run. Every later cell's
// candidates go through one loop, where the dedup mode decides one thing:
// whether a candidate a does not own is tested. Pre-test dedup skips it;
// post-test dedup, the paper's, tests it and drops the hit.
func (t *Tree) gridProbe(g *grid.Grid, csr *csrGrid, bs []geom.Object, task *probeTask, tk *stats.Ticker, c *stats.Counters, sink stats.Sink) {
	postDedup := t.cfg.LocalJoin == LocalJoinGridPostDedup
	r1, r2 := int64(g.Res[1]), int64(g.Res[2])
	boxes, ids := t.span(task.aStart, task.aEnd)
	c.NodeTests += int64(len(boxes))
	var hits [64]int32
	for ai := range boxes {
		if tk.Stopped() {
			return
		}
		a := &boxes[ai]
		if !a.Meets(&task.mbr) {
			continue
		}
		aID := ids[ai]
		aLo, aHi := g.Range(*a)
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
					if need == 0 {
						c.Comparisons += int64(len(run))
						for len(run) > 0 {
							k := min(len(run), len(hits))
							n := geom.Meeting(hits[:k], run[:k], bs, a)
							c.Results += int64(n)
							for _, bi := range hits[:n] {
								sink.Emit(aID, bs[bi].ID)
							}
							run = run[k:]
						}
						continue
					}
					own = own[:len(run)]
					for j, bi := range run {
						owns := own[j]&need == need
						if !owns && !postDedup {
							continue
						}
						c.Comparisons++
						if b := &bs[bi]; a.Meets(&b.Box) && owns {
							c.Results++
							sink.Emit(aID, b.ID)
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
func (t *Tree) localGrid(id int32, bs []geom.Object) (grid.Grid, float64) {
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
// objects. The A objects are gathered from the arena's two columns into
// worker scratch before sorting (the arena must stay in leaf order); the
// B objects were gathered into that scratch already (Probe.nodeB), so
// they are sorted in place.
func (t *Tree) sweepJoin(id int32, bs []geom.Object, tk *stats.Ticker, c *stats.Counters, sink stats.Sink, ws *joinScratch) {
	byXMin := func(a, b geom.Object) int { return cmp.Compare(a.Box.Min[0], b.Box.Min[0]) }
	e := &t.table[id]
	boxes, ids := t.span(e.aStart, e.aEnd)
	as := slices.Grow(ws.aObjs[:0], len(boxes))
	for i := range boxes {
		as = append(as, geom.Object{ID: ids[i], Box: boxes[i]})
	}
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
	e := &t.table[id]
	boxes, ids := t.span(e.aStart, e.aEnd)
	for ai := range boxes {
		a := &boxes[ai]
		for i := range bs {
			if tk.Tick() {
				return
			}
			c.Comparisons++
			if a.Meets(&bs[i].Box) {
				c.Results++
				sink.Emit(ids[ai], bs[i].ID)
			}
		}
	}
}
