package core

import (
	"cmp"
	"math"
	"slices"

	"touch/internal/geom"
	"touch/internal/grid"
)

// This file holds the CSR (compressed sparse row) representation of the
// local-join grid. The seed implementation hashed every B replica into a
// map[int64][]int32, paying a map allocation plus per-cell slice growth
// for every node; the CSR build is two counting-sort passes into flat
// offsets/ids arrays that live in a per-worker joinScratch and are
// reused across all nodes the worker processes, with the node's gathered
// B objects, its grid and the CSR header beside them, so the
// steady-state local join allocates nothing.

const (
	// maxDenseCells bounds the dense offsets array a worker will hold
	// (int32 per cell).
	maxDenseCells = 1 << 22
	// denseSlack caps how much larger than the replica count the cell
	// space may be before the dense two-pass build (whose zeroing and
	// prefix sum are O(cells)) loses to the sparse sort-based build.
	denseSlackFactor = 8
	denseSlackBase   = 1024
)

// cellRange caches one B object's overlapped cell-coordinate range so
// the build's passes don't recompute it. It is build-time state: what the
// probe needs of lo, the cell the object begins in, the build writes
// beside every replica as its ownership byte (see ownX). int32 holds any
// coordinate: a resolution is at most LocalCells, and the cell count of a
// grid is an int.
type cellRange struct{ lo, hi [geom.Dims]int32 }

// The ownership byte of a replica: bit d is set when the cell's
// coordinate along dimension d is the first one its B object overlaps
// there, i.e. the object begins in this cell along d.
const (
	ownX uint8 = 1 << iota
	ownY
	ownZ
)

func newCellRange(lo, hi grid.Coords) cellRange {
	var r cellRange
	for d := 0; d < geom.Dims; d++ {
		r.lo[d], r.hi[d] = int32(lo[d]), int32(hi[d])
	}
	return r
}

// cellEntry is one replica on the sparse path: B object index idx in
// cell key, with its ownership byte.
type cellEntry struct {
	key int64
	idx int32
	own uint8
}

// joinScratch is the per-worker buffer arena of the join phase. All
// slices grow to the high-water mark of the nodes a worker processes
// and are reused; see gridJoin and sweepJoin. The ones whose length is
// known before they are filled (ranges, ids, own, entries) are sized to
// it in one step, not appended to: a slice regrown across nodes of slowly
// rising size copies itself every time.
type joinScratch struct {
	bObjs   []geom.Object // the current node's B objects, see Probe.nodeB
	tasks   []probeTask   // the current node's probe tasks, see probeTasks
	idx     []int32       // probeTasks' stack of surviving B object indexes
	ranges  []cellRange   // build only: each B object's cell range, see cellRanges
	counts  []int32       // dense path: per-cell counts → end offsets
	ids     []int32       // B object indexes grouped by cell
	own     []uint8       // ownership byte of each replica in ids, see ownX
	entries []cellEntry   // sparse path: (key, idx, own) triples, sorted
	keys    []int64       // sparse path: distinct occupied cell keys
	offs    []int32       // sparse path: run offsets into ids, len(keys)+1
	aObjs   []geom.Object

	// The current node's grid and its CSR, by value: nodeGrid hands out
	// pointers to them, valid until the worker's next node.
	grid grid.Grid
	csr  csrGrid

	peakBytes int64 // largest analytic grid footprint seen (merged into Tree.peakGridBytes)
}

// csrGrid is the built grid for one node: B object indexes grouped by
// cell in one flat ids array, each with its ownership byte at the same
// position of own, and either dense per-cell offsets (counts) or a
// sorted distinct-key directory (keys/offs). All storage belongs to the
// joinScratch that built it.
type csrGrid struct {
	dense    bool
	counts   []int32 // dense: counts[k] = end offset of cell k; start = counts[k-1] (0 for k=0)
	ids      []int32
	own      []uint8
	keys     []int64
	offs     []int32
	replicas int64
	occupied int64
}

// sized returns s with length n, reallocated (contents dropped) only when
// its capacity is short.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// cellRanges is the first pass of the CSR build: it caches the cell range
// each B object overlaps in ws.ranges and returns how many replicas
// hashing them into g would write, before anything is allocated for them.
func (ws *joinScratch) cellRanges(g *grid.Grid, bs []geom.Object) int64 {
	ws.ranges = sized(ws.ranges, len(bs))
	replicas := int64(0)
	for i := range bs {
		lo, hi := g.Range(bs[i].Box)
		ws.ranges[i] = newCellRange(lo, hi)
		replicas += grid.RangeCells(lo, hi)
	}
	return replicas
}

// buildCSR hashes the node's B objects into the grid, from the ranges and
// the replica count cellRanges left. The dense path is a classic two-pass
// counting sort over the cell space; when the cell space is much larger
// than the replica count (huge node MBR, few B objects) the sparse path
// sorts (key, idx) pairs instead, keeping the work proportional to the
// replicas rather than the cells. Both write every replica's ownership
// byte beside it, so the grid they return does not hold the ranges.
func (ws *joinScratch) buildCSR(g *grid.Grid, replicas int64) *csrGrid {
	cells := int64(g.Cells())
	if cells <= maxDenseCells && replicas < math.MaxInt32 &&
		cells <= denseSlackFactor*replicas+denseSlackBase {
		return ws.buildDense(g, int(cells), replicas)
	}
	return ws.buildSparse(g, replicas)
}

func (ws *joinScratch) buildDense(g *grid.Grid, cells int, replicas int64) *csrGrid {
	ws.counts = sized(ws.counts, cells)
	counts := ws.counts
	clear(counts)
	ws.ids = sized(ws.ids, int(replicas))
	ws.own = sized(ws.own, int(replicas))
	ids, own := ws.ids, ws.own

	// The count and scatter passes iterate cell keys with inlined loops
	// (instead of Grid.ForEachKey) — the callback indirection costs more
	// than the loop body at hundreds of replicas per node. The scatter
	// writes each replica's ownership byte as it goes: a dimension's bit
	// is set on the first pass of its loop, the object's first cell along
	// it, and cleared after.
	r1, r2 := int64(g.Res[1]), int64(g.Res[2])
	occupied := int64(0)
	for _, r := range ws.ranges {
		for x := int64(r.lo[0]); x <= int64(r.hi[0]); x++ {
			for y := int64(r.lo[1]); y <= int64(r.hi[1]); y++ {
				base := (x*r1 + y) * r2
				for k := base + int64(r.lo[2]); k <= base+int64(r.hi[2]); k++ {
					if counts[k] == 0 {
						occupied++
					}
					counts[k]++
				}
			}
		}
	}
	total := int32(0)
	for k := range counts {
		counts[k], total = total, total+counts[k]
	}
	for i, r := range ws.ranges {
		bi := int32(i)
		oX := ownX
		for x := int64(r.lo[0]); x <= int64(r.hi[0]); x++ {
			oXY := oX | ownY
			for y := int64(r.lo[1]); y <= int64(r.hi[1]); y++ {
				base := (x*r1 + y) * r2
				o := oXY | ownZ
				for k := base + int64(r.lo[2]); k <= base+int64(r.hi[2]); k++ {
					at := counts[k]
					ids[at], own[at] = bi, o
					counts[k]++
					o = oXY
				}
				oXY = oX
			}
			oX = 0
		}
	}
	// After the scatter pass counts[k] is the *end* offset of cell k
	// (and counts[k-1] its start), exactly the CSR offsets run() needs.
	ws.csr = csrGrid{dense: true, counts: counts, ids: ids, own: own, replicas: replicas, occupied: occupied}
	return &ws.csr
}

func (ws *joinScratch) buildSparse(g *grid.Grid, replicas int64) *csrGrid {
	ws.entries = slices.Grow(ws.entries[:0], int(replicas))
	r1, r2 := int64(g.Res[1]), int64(g.Res[2])
	// The ownership bytes as buildDense writes them.
	for i, r := range ws.ranges {
		bi := int32(i)
		oX := ownX
		for x := int64(r.lo[0]); x <= int64(r.hi[0]); x++ {
			oXY := oX | ownY
			for y := int64(r.lo[1]); y <= int64(r.hi[1]); y++ {
				base := (x*r1 + y) * r2
				o := oXY | ownZ
				for k := base + int64(r.lo[2]); k <= base+int64(r.hi[2]); k++ {
					ws.entries = append(ws.entries, cellEntry{key: k, idx: bi, own: o})
					o = oXY
				}
				oXY = oX
			}
			oX = 0
		}
	}
	// Sorting by (key, idx) groups each cell's replicas contiguously and
	// keeps the build deterministic without relying on sort stability.
	slices.SortFunc(ws.entries, func(a, b cellEntry) int {
		if a.key != b.key {
			return cmp.Compare(a.key, b.key)
		}
		return cmp.Compare(a.idx, b.idx)
	})
	ws.keys = ws.keys[:0]
	ws.offs = ws.offs[:0]
	ws.ids = sized(ws.ids, len(ws.entries))
	ws.own = sized(ws.own, len(ws.entries))
	ids, own := ws.ids, ws.own
	for i, e := range ws.entries {
		if len(ws.keys) == 0 || ws.keys[len(ws.keys)-1] != e.key {
			ws.keys = append(ws.keys, e.key)
			ws.offs = append(ws.offs, int32(i))
		}
		ids[i], own[i] = e.idx, e.own
	}
	ws.offs = append(ws.offs, int32(len(ws.entries)))
	ws.csr = csrGrid{
		dense: false, ids: ids, own: own, keys: ws.keys, offs: ws.offs,
		replicas: replicas, occupied: int64(len(ws.keys)),
	}
	return &ws.csr
}

// run returns the B object indexes hashed into the cell with the given
// key and their ownership bytes, two slices of one length (nil when the
// cell is empty).
func (c *csrGrid) run(key int64) ([]int32, []uint8) {
	if c.dense {
		end := c.counts[key]
		start := int32(0)
		if key > 0 {
			start = c.counts[key-1]
		}
		if start == end {
			return nil, nil
		}
		return c.ids[start:end], c.own[start:end]
	}
	// Binary search the distinct-key directory.
	lo, hi := 0, len(c.keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c.keys[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(c.keys) || c.keys[lo] != key {
		return nil, nil
	}
	start, end := c.offs[lo], c.offs[lo+1]
	return c.ids[start:end], c.own[start:end]
}
