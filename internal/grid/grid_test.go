package grid

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"touch/internal/geom"
)

func universe() geom.Box {
	return geom.NewBox(geom.Point{0, 0, 0}, geom.Point{100, 100, 100})
}

func TestNewBasics(t *testing.T) {
	g := New(universe(), 10)
	if g.Cells() != 1000 {
		t.Fatalf("Cells = %d, want 1000", g.Cells())
	}
	for d := 0; d < geom.Dims; d++ {
		if g.cell[d] != 10 {
			t.Fatalf("cell side in dimension %d = %g", d, g.cell[d])
		}
	}
}

func TestNewPanicsOnBadRes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("resolution 0 must panic")
		}
	}()
	New(universe(), 0)
}

func TestDegenerateUniverseCollapses(t *testing.T) {
	flat := geom.NewBox(geom.Point{0, 0, 5}, geom.Point{100, 100, 5})
	g := New(flat, 10)
	if g.Res[2] != 1 {
		t.Fatalf("flat dimension should collapse to 1 cell, got %d", g.Res[2])
	}
	lo, hi := g.Range(geom.NewBox(geom.Point{1, 1, 5}, geom.Point{2, 2, 5}))
	if lo[2] != 0 || hi[2] != 0 {
		t.Fatal("all boxes must map to cell 0 in a degenerate dimension")
	}
}

// cellOf returns the cell containing p: the first cell of the range of
// the degenerate box at p.
func cellOf(g *Grid, p geom.Point) Coords {
	lo, _ := g.Range(geom.Box{Min: p, Max: p})
	return lo
}

func TestCoordsOfAndClamping(t *testing.T) {
	g := New(universe(), 10)
	cases := []struct {
		p    geom.Point
		want Coords
	}{
		{geom.Point{0, 0, 0}, Coords{0, 0, 0}},
		{geom.Point{9.999, 0, 0}, Coords{0, 0, 0}},
		{geom.Point{10, 0, 0}, Coords{1, 0, 0}},
		{geom.Point{99.9, 99.9, 99.9}, Coords{9, 9, 9}},
		{geom.Point{100, 100, 100}, Coords{9, 9, 9}}, // upper edge absorbed
		{geom.Point{-5, 50, 200}, Coords{0, 5, 9}},   // clamped outside
	}
	for _, tc := range cases {
		if got := cellOf(g, tc.p); got != tc.want {
			t.Errorf("cell of %v = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestRange(t *testing.T) {
	g := New(universe(), 10)
	lo, hi := g.Range(geom.NewBox(geom.Point{5, 15, 25}, geom.Point{25, 15, 39.9}))
	if lo != (Coords{0, 1, 2}) || hi != (Coords{2, 1, 3}) {
		t.Fatalf("Range = %v..%v", lo, hi)
	}
	if RangeCells(lo, hi) != 3*1*2 {
		t.Fatalf("RangeCells = %d", RangeCells(lo, hi))
	}
}

func TestKeyRoundTrip(t *testing.T) {
	g := New(universe(), 7)
	for x := 0; x < 7; x++ {
		for y := 0; y < 7; y++ {
			for z := 0; z < 7; z++ {
				c := Coords{x, y, z}
				if got := g.KeyCoords(g.Key(c)); got != c {
					t.Fatalf("round trip %v -> %d -> %v", c, g.Key(c), got)
				}
			}
		}
	}
}

func TestKeyUnique(t *testing.T) {
	g := NewRes(universe(), Coords{3, 5, 7})
	seen := make(map[int64]bool)
	var c Coords
	for c[0] = 0; c[0] < 3; c[0]++ {
		for c[1] = 0; c[1] < 5; c[1]++ {
			for c[2] = 0; c[2] < 7; c[2]++ {
				k := g.Key(c)
				if seen[k] {
					t.Fatalf("duplicate key %d for %v", k, c)
				}
				seen[k] = true
			}
		}
	}
}

func TestNewCellSize(t *testing.T) {
	g := NewCellSize(universe(), 7, 500)
	for d := 0; d < geom.Dims; d++ {
		if g.cell[d] < 7 {
			t.Fatalf("cell side %g below requested 7", g.cell[d])
		}
	}
	// Cap applies.
	g = NewCellSize(universe(), 0.001, 16)
	for d := 0; d < geom.Dims; d++ {
		if g.Res[d] != 16 {
			t.Fatalf("resolution %d not capped to 16", g.Res[d])
		}
	}
	// Huge cell side collapses to one cell.
	g = NewCellSize(universe(), 1e6, 500)
	if g.Cells() != 1 {
		t.Fatalf("Cells = %d, want 1", g.Cells())
	}
}

func TestNewCellSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("cell side 0 must panic")
		}
	}()
	NewCellSize(universe(), 0, 10)
}

func TestRefCellProperties(t *testing.T) {
	g := New(universe(), 10)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 5000; i++ {
		a := randBox(rng)
		b := randBox(rng)
		rc := g.RefCell(&a, &b)
		if rc != g.RefCell(&b, &a) {
			t.Fatal("RefCell must be symmetric")
		}
		if a.Intersects(b) {
			// The reference cell must lie within both boxes' cell ranges,
			// so both sides visit it.
			loA, hiA := g.Range(a)
			loB, hiB := g.Range(b)
			for d := 0; d < geom.Dims; d++ {
				if rc[d] < loA[d] || rc[d] > hiA[d] || rc[d] < loB[d] || rc[d] > hiB[d] {
					t.Fatalf("ref cell %v outside ranges %v..%v and %v..%v", rc, loA, hiA, loB, hiB)
				}
			}
		}
	}
}

// TestPropRefCellIsMaxOfFirstCells: clampIndex is monotone, so the cell
// of the componentwise max of two minimum corners is the componentwise
// max of the two boxes' first cells. TOUCH's grid probe decides pair
// ownership from the first cells alone and relies on exactly this. The
// grids include a collapsed dimension; the boxes reach outside the
// universe (clamped) and put faces exactly on cell boundaries.
func TestPropRefCellIsMaxOfFirstCells(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 200; trial++ {
		var u geom.Box
		var res Coords
		for d := 0; d < geom.Dims; d++ {
			u.Min[d] = rng.Float64()*200 - 100
			u.Max[d] = u.Min[d] + 1 + rng.Float64()*100
			res[d] = 1 + rng.Intn(12)
		}
		if trial%4 == 0 {
			d := rng.Intn(geom.Dims)
			u.Max[d] = u.Min[d] // zero extent: the dimension collapses to one cell
		}
		g := NewRes(u, res)
		coord := func(d int) float64 {
			switch ext := u.Extent(d); rng.Intn(3) {
			case 0: // exactly on a cell boundary, the universe's faces included
				return u.Min[d] + float64(rng.Intn(g.Res[d]+1))*g.cell[d]
			case 1: // anywhere within half an extent outside the universe
				return u.Min[d] - ext/2 - 1 + rng.Float64()*(2*ext+2)
			default:
				return u.Min[d] + rng.Float64()*ext
			}
		}
		box := func() geom.Box {
			var p, q geom.Point
			for d := 0; d < geom.Dims; d++ {
				p[d], q[d] = coord(d), coord(d)
			}
			return geom.NewBox(p, q)
		}
		for i := 0; i < 200; i++ {
			a, b := box(), box()
			loA, _ := g.Range(a)
			loB, _ := g.Range(b)
			var want Coords
			for d := 0; d < geom.Dims; d++ {
				want[d] = max(loA[d], loB[d])
			}
			if got := g.RefCell(&a, &b); got != want {
				t.Fatalf("grid %v res %v: RefCell(%v, %v) = %v, max of first cells %v and %v = %v",
					u, g.Res, a, b, got, loA, loB, want)
			}
		}
	}
}

func TestForEachCellVisitsAllOnce(t *testing.T) {
	g := NewRes(universe(), Coords{4, 3, 7})
	lo, hi := Coords{1, 2, 3}, Coords{3, 2, 5}
	seen := make(map[Coords]int)
	g.ForEachKey(lo, hi, func(k int64) { seen[g.KeyCoords(k)]++ })
	if int64(len(seen)) != RangeCells(lo, hi) {
		t.Fatalf("visited %d cells, want %d", len(seen), RangeCells(lo, hi))
	}
	for c, k := range seen {
		if k != 1 {
			t.Fatalf("cell %v visited %d times", c, k)
		}
	}
}

func TestPropCoordsWithinRes(t *testing.T) {
	g := NewRes(universe(), Coords{4, 9, 13})
	f := func(x, y, z float64) bool {
		c := cellOf(g, geom.Point{x * 200, y * 200, z * 200})
		for d := 0; d < geom.Dims; d++ {
			if c[d] < 0 || c[d] >= g.Res[d] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func randBox(rng *rand.Rand) geom.Box {
	var c, h geom.Point
	for d := 0; d < geom.Dims; d++ {
		c[d] = rng.Float64() * 100
		h[d] = rng.Float64() * 10
	}
	return geom.NewBox(geom.Sub(c, h), geom.Add(c, h))
}

// TestRangeClampsBeforeConverting: a quotient beyond ±2⁶³ (or ±Inf, or
// NaN) must clamp to the border cell on its own side; converting first
// is implementation-defined and wraps a far-right coordinate to cell 0
// on amd64.
func TestRangeClampsBeforeConverting(t *testing.T) {
	inf := math.Inf(1)
	g := New(geom.NewBox(geom.Point{0, 0, 0}, geom.Point{10, 10, 10}), 10)
	for _, tc := range []struct {
		name   string
		box    geom.Box
		lo, hi Coords
	}{
		{
			name: "beyond-int64",
			box:  geom.Box{Min: geom.Point{-1e300, 5, 5}, Max: geom.Point{1e300, 5.5, 2e19}},
			lo:   Coords{0, 5, 5}, hi: Coords{9, 5, 9},
		},
		{
			name: "infinite",
			box:  geom.Box{Min: geom.Point{-inf, -inf, 3}, Max: geom.Point{inf, 2, inf}},
			lo:   Coords{0, 0, 3}, hi: Coords{9, 2, 9},
		},
		{
			name: "in-range-unchanged",
			box:  geom.Box{Min: geom.Point{0, 9.999, 10}, Max: geom.Point{0.5, 10, 11}},
			lo:   Coords{0, 9, 9}, hi: Coords{0, 9, 9},
		},
	} {
		if lo, hi := g.Range(tc.box); lo != tc.lo || hi != tc.hi {
			t.Errorf("%s: Range = %v %v, want %v %v", tc.name, lo, hi, tc.lo, tc.hi)
		}
	}

	// A collapsed dimension has one cell whatever the coordinate, and an
	// infinite universe (cell side +Inf, quotients 0 or NaN) maps every
	// coordinate to cell 0 instead of panicking or wrapping.
	flat := New(geom.NewBox(geom.Point{0, 0, 7}, geom.Point{10, 10, 7}), 10)
	lo, hi := flat.Range(geom.Box{Min: geom.Point{1, 1, -1e300}, Max: geom.Point{2, 2, 1e300}})
	if lo != (Coords{1, 1, 0}) || hi != (Coords{2, 2, 0}) {
		t.Errorf("collapsed dimension: Range = %v %v", lo, hi)
	}
	huge := NewCellSize(geom.Box{Min: geom.Point{-1e308, 0, 0}, Max: geom.Point{1e308, 10, 10}}, 1, 10)
	lo, hi = huge.Range(geom.Box{Min: geom.Point{-1e308, 0, 0}, Max: geom.Point{1e308, 10, 10}})
	if lo != (Coords{0, 0, 0}) || hi != (Coords{0, 9, 9}) {
		t.Errorf("infinite extent: Range = %v %v (res %v)", lo, hi, huge.Res)
	}
}
