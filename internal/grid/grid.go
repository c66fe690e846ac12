// Package grid provides the uniform space-partitioning grid shared by
// PBSM (global partitioning) and TOUCH's local join (Algorithm 4 of the
// paper), including the cell-coordinate arithmetic behind the
// reference-point duplicate-avoidance rule.
package grid

import (
	"fmt"

	"touch/internal/geom"
)

// Coords identifies a grid cell by its integer coordinates per dimension.
type Coords [geom.Dims]int

// Grid is a uniform equi-width grid over a rectangular universe. Cells
// are half-open along every dimension except the last cell of each row,
// which absorbs the universe's upper boundary, so every point of the
// universe maps to exactly one cell.
type Grid struct {
	Universe geom.Box
	Res      Coords             // number of cells per dimension (>= 1)
	cell     [geom.Dims]float64 // cell side length per dimension
}

// New creates a grid with res cells in every dimension over the given
// universe. res must be >= 1; a degenerate universe (zero extent in some
// dimension) is allowed and collapses that dimension to a single cell.
func New(universe geom.Box, res int) *Grid {
	if res < 1 {
		panic(fmt.Sprintf("grid: resolution %d < 1", res))
	}
	var r Coords
	for d := 0; d < geom.Dims; d++ {
		r[d] = res
	}
	return NewRes(universe, r)
}

// NewRes creates a grid with a separate resolution per dimension.
func NewRes(universe geom.Box, res Coords) *Grid {
	g := &Grid{Universe: universe, Res: res}
	for d := 0; d < geom.Dims; d++ {
		if res[d] < 1 {
			panic(fmt.Sprintf("grid: resolution %d < 1 in dim %d", res[d], d))
		}
		ext := universe.Extent(d)
		if ext <= 0 {
			g.Res[d] = 1
			g.cell[d] = 1 // any positive value; everything maps to cell 0
			continue
		}
		g.cell[d] = ext / float64(res[d])
	}
	return g
}

// NewCellSize creates a grid whose cells are cubes of (at least) the
// given side length, clamping the per-dimension resolution to maxRes.
// Used by TOUCH's local join to keep cells "considerably larger than the
// average size of the objects" (§5.2.2).
func NewCellSize(universe geom.Box, side float64, maxRes int) *Grid {
	return NewRes(universe, ResFor(universe, side, maxRes))
}

// ResFor returns the per-dimension resolution NewCellSize gives a grid
// of the given cell side, so a caller weighing several sides can price
// each without building its grid.
func ResFor(universe geom.Box, side float64, maxRes int) Coords {
	if side <= 0 {
		panic(fmt.Sprintf("grid: cell side %g <= 0", side))
	}
	if maxRes < 1 {
		maxRes = 1
	}
	var res Coords
	for d := 0; d < geom.Dims; d++ {
		res[d] = max(1, clampFloor(universe.Extent(d)/side, maxRes+1))
	}
	return res
}

// Cells returns the total number of cells in the grid.
func (g *Grid) Cells() int {
	n := 1
	for d := 0; d < geom.Dims; d++ {
		n *= g.Res[d]
	}
	return n
}

// clampFloor truncates f to an integer in [0, n-1], clamping before it
// converts: int(f) of a value beyond ±2⁶³ is implementation-defined in
// Go (MinInt64 on amd64, so a far-right coordinate would land in cell 0),
// and NaN compares false with everything, so it goes to 0 as well.
func clampFloor(f float64, n int) int {
	if !(f > 0) {
		return 0
	}
	if f >= float64(n) {
		return n - 1
	}
	return int(f)
}

// clampIndex returns the index in dimension d of the cell containing v,
// clamped to the grid: points outside the universe map to the nearest
// border cell, which is what both PBSM and the local join need for
// clamped ranges.
func (g *Grid) clampIndex(d int, v float64) int {
	return clampFloor((v-g.Universe.Min[d])/g.cell[d], g.Res[d])
}

// Range returns the inclusive cell-coordinate range overlapped by the
// box, clamped to the grid.
func (g *Grid) Range(b geom.Box) (lo, hi Coords) {
	for d := 0; d < geom.Dims; d++ {
		lo[d] = g.clampIndex(d, b.Min[d])
		hi[d] = g.clampIndex(d, b.Max[d])
	}
	return lo, hi
}

// Key linearizes cell coordinates into a single comparable key.
func (g *Grid) Key(c Coords) int64 {
	return (int64(c[0])*int64(g.Res[1])+int64(c[1]))*int64(g.Res[2]) + int64(c[2])
}

// KeyCoords is the inverse of Key.
func (g *Grid) KeyCoords(k int64) Coords {
	var c Coords
	c[2] = int(k % int64(g.Res[2]))
	k /= int64(g.Res[2])
	c[1] = int(k % int64(g.Res[1]))
	c[0] = int(k / int64(g.Res[1]))
	return c
}

// RefCell returns the cell of the canonical reference point of the pair
// of boxes — the componentwise maximum of the two minimum corners,
// clamped to the grid. When the boxes overlap, that point lies in their
// intersection (it is the intersection's minimum corner), so the pair is
// processed exactly once: in this cell. When they do not overlap the
// point is still well defined, letting local joins skip duplicate *tests*
// before paying for the intersection check.
//
// clampIndex is monotone, so the result equals the componentwise max of
// the two boxes' first cells (Range's lo): a caller that knows, per cell,
// whether each box begins there — TOUCH's local-join grid records it
// beside every replica — needs no arithmetic at all.
func (g *Grid) RefCell(a, b *geom.Box) Coords {
	var c Coords
	for d := 0; d < geom.Dims; d++ {
		v := a.Min[d]
		if b.Min[d] > v {
			v = b.Min[d]
		}
		c[d] = g.clampIndex(d, v)
	}
	return c
}

// ForEachKey visits every cell in the inclusive coordinate range
// [lo, hi] in row-major order, passing the linearized cell key (the
// value Key would return for those coordinates). The keys are computed
// incrementally, saving the two multiplications per cell that calling
// Key on each cell's coordinates would cost — the difference is
// measurable in replica-heavy loops (PBSM assignment, TOUCH's CSR grid
// build).
func (g *Grid) ForEachKey(lo, hi Coords, visit func(int64)) {
	r1, r2 := int64(g.Res[1]), int64(g.Res[2])
	for x := int64(lo[0]); x <= int64(hi[0]); x++ {
		rowX := x * r1
		for y := int64(lo[1]); y <= int64(hi[1]); y++ {
			base := (rowX + y) * r2
			for z := int64(lo[2]); z <= int64(hi[2]); z++ {
				visit(base + z)
			}
		}
	}
}

// RangeCells returns the number of cells in the inclusive range [lo, hi].
func RangeCells(lo, hi Coords) int64 {
	n := int64(1)
	for d := 0; d < geom.Dims; d++ {
		n *= int64(hi[d] - lo[d] + 1)
	}
	return n
}
