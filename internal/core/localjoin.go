package core

import (
	"cmp"
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
	// paper's *other* baselines use).
	LocalJoinSweep
	// LocalJoinNested compares every B object of the node against every
	// A object below it — Algorithm 1's literal join(in.entities,
	// leaf.entities) without any space partitioning.
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
func (t *Tree) localJoin(n *Node, bs []geom.Object, tk *stats.Ticker, c *stats.Counters, sink stats.Sink, ws *joinScratch) {
	switch t.cfg.LocalJoin {
	case LocalJoinGrid, LocalJoinGridPostDedup:
		t.gridJoin(n, bs, tk, c, sink, ws)
	case LocalJoinSweep:
		t.sweepJoin(n, bs, tk, c, sink, ws)
	case LocalJoinNested:
		t.nestedJoin(n, bs, tk, c, sink)
	default:
		panic("core: unknown local join kind")
	}
}

// gridJoin implements Algorithm 4: the node's B objects are hashed into
// an equi-width grid over the node's MBR (a flat CSR layout, see
// csr.go), and every A object in the node's arena range probes the
// cells it overlaps. Depending on the configuration, duplicate
// candidates are skipped before the test (canonical-cell rule) or
// discarded after it (reference-point method).
func (t *Tree) gridJoin(n *Node, bs []geom.Object, tk *stats.Ticker, c *stats.Counters, sink stats.Sink, ws *joinScratch) {
	g := t.localGrid(n, bs)

	csr := ws.buildCSR(g, bs)
	c.Replicas += csr.replicas
	// Transient per-node grid footprint: remember the peak; Join adds it
	// on top of the static structure bytes.
	gridBytes := csr.occupied*stats.BytesPerCell + csr.replicas*stats.BytesPerRef
	if gridBytes > ws.peakBytes {
		ws.peakBytes = gridBytes
	}

	t.gridProbe(g, csr, bs, t.subtreeA(n), tk, c, sink)
}

// gridProbe runs the probe side of Algorithm 4: every A object in as
// probes the cells it overlaps in the built CSR grid. The grid and csr
// are read-only here, so joinParallel can fan the A objects of one huge
// node out across workers, each probing its own chunk. The worker's
// ticker is charged one unit per candidate run entry, so a cancelled
// join aborts within CheckEvery comparisons plus one cell run.
//
// A pair sharing several cells belongs to exactly one of them: the cell
// where, in every dimension, one of the two objects begins (Tsitsigkos
// et al., arXiv 2307.09256). That is the reference-point rule without
// the arithmetic. grid.RefCell clamps the componentwise max of the two
// minimum corners; the clamp is monotone, so the cell of the max is the
// max of the cells, i.e. of the two objects' first cells — a's from its
// Range, b's cached in csr.ranges by buildCSR. Inside a cell both hold a
// and b, x >= aLo and x >= bLo already, so x == max(aLo, bLo) iff
// x == aLo or x == bLo; and in a's own first cell the whole run passes
// unchecked. The cells are walked with an inlined triple loop for the
// reason buildDense gives.
func (t *Tree) gridProbe(g *grid.Grid, csr *csrGrid, bs, as []geom.Object, tk *stats.Ticker, c *stats.Counters, sink stats.Sink) {
	postDedup := t.cfg.LocalJoin == LocalJoinGridPostDedup
	r1, r2 := int64(g.Res[1]), int64(g.Res[2])
	for ai := range as {
		if tk.Stopped() {
			return
		}
		a := &as[ai]
		aLo, aHi := g.Range(a.Box)
		for x := aLo[0]; x <= aHi[0]; x++ {
			for y := aLo[1]; y <= aHi[1]; y++ {
				base := (int64(x)*r1 + int64(y)) * r2
				// b must begin in this cell in every dimension a does not.
				needX, needY := x != aLo[0], y != aLo[1]
				for z := aLo[2]; z <= aHi[2]; z++ {
					run := csr.run(base + int64(z))
					if len(run) == 0 {
						continue
					}
					if tk.TickN(len(run)) {
						return
					}
					needZ := z != aLo[2]
					check := needX || needY || needZ
					for _, bi := range run {
						b := &bs[bi]
						owns := true
						if check {
							bLo := &csr.ranges[bi].lo
							owns = (!needX || bLo[0] == x) && (!needY || bLo[1] == y) && (!needZ || bLo[2] == z)
						}
						if postDedup {
							// Paper mode: test in every shared cell, keep
							// the hit only in the owning cell.
							c.Comparisons++
							if a.Box.Intersects(b.Box) && owns {
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
						if a.Box.Intersects(b.Box) {
							c.Results++
							sink.Emit(a.ID, b.ID)
						}
					}
				}
			}
		}
	}
}

// localGrid sizes the grid for one node: the cell side stays
// considerably larger than the average object (§5.2.2) — of either
// dataset, since probe objects (A, possibly ε-expanded) that span many
// cells would multiply grid lookups — and the resolution is capped at
// LocalCells per dimension.
func (t *Tree) localGrid(n *Node, bs []geom.Object) *grid.Grid {
	avg := geom.Dataset(bs).AverageExtent()
	if n.aCount() > 0 {
		if avgA := n.extSumA / float64(n.aCount()); avgA > avg {
			avg = avgA
		}
	}
	side := avg * t.cfg.CellFactor
	if side <= 0 {
		// Degenerate (point) objects: fall back to the resolution cap.
		maxExt := 0.0
		for d := 0; d < geom.Dims; d++ {
			if e := n.MBR.Extent(d); e > maxExt {
				maxExt = e
			}
		}
		side = maxExt / float64(t.cfg.LocalCells)
		if side <= 0 {
			side = 1
		}
	}
	return grid.NewCellSize(n.MBR, side, t.cfg.LocalCells)
}

// sweepJoin plane-sweeps the subtree's A objects against the node's B
// objects. The A objects are copied into worker scratch before sorting
// (the arena must stay in leaf order); the B segment is private to the
// probe and rewritten by its next Assign, so it is sorted in place.
func (t *Tree) sweepJoin(n *Node, bs []geom.Object, tk *stats.Ticker, c *stats.Counters, sink stats.Sink, ws *joinScratch) {
	byXMin := func(a, b geom.Object) int { return cmp.Compare(a.Box.Min[0], b.Box.Min[0]) }
	as := append(ws.aObjs[:0], t.subtreeA(n)...)
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
func (t *Tree) nestedJoin(n *Node, bs []geom.Object, tk *stats.Ticker, c *stats.Counters, sink stats.Sink) {
	as := t.subtreeA(n)
	for ai := range as {
		a := &as[ai]
		for i := range bs {
			if tk.Tick() {
				return
			}
			c.Comparisons++
			if a.Box.Intersects(bs[i].Box) {
				c.Results++
				sink.Emit(a.ID, bs[i].ID)
			}
		}
	}
}
