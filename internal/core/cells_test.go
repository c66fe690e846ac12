package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"touch/internal/datagen"
	"touch/internal/geom"
	"touch/internal/stats"
)

// plainDescent is Algorithm 3's descent of b from the root, as written:
// the reference every destination of the cell table is held to.
func plainDescent(tr *Tree, b *geom.Box) int32 {
	tab := tr.table
	if !tab[0].mbr.Meets(b) {
		return -1
	}
	p := int32(0)
	for !tab[p].leaf(p) {
		hit := int32(-1)
		for ch := p + 1; ch < tab[p].skip; ch = tab[ch].skip {
			if tab[ch].mbr.Meets(b) {
				if hit >= 0 {
					return p
				}
				hit = ch
			}
		}
		if hit < 0 {
			return -1
		}
		p = hit
	}
	return p
}

// cellBox returns the closed box of the cells [lo, hi) of the table.
func cellBox(cl *cellTable, lo, hi [geom.Dims]int) geom.Box {
	var b geom.Box
	for d := range geom.Dims {
		b.Min[d], b.Max[d] = cl.edges[d][lo[d]], cl.edges[d][hi[d]]
	}
	return b
}

// onBounds returns boxes that lie on the table's cell bounds: every
// third cell's own box, a point at its lower corner, a point at its
// upper corner, the box of it and its neighbour along each dimension,
// and a sliver of zero width along one dimension on the bound between
// them.
func onBounds(cl *cellTable) geom.Dataset {
	var out geom.Dataset
	var n [geom.Dims]int
	for d := range geom.Dims {
		n[d] = len(cl.edges[d]) - 1
	}
	for k := 0; k < n[0]*n[1]*n[2]; k += 3 {
		lo := [geom.Dims]int{k / (n[1] * n[2]), k / n[2] % n[1], k % n[2]}
		hi := [geom.Dims]int{lo[0] + 1, lo[1] + 1, lo[2] + 1}
		c := cellBox(cl, lo, hi)
		out = append(out,
			geom.Object{Box: c},
			geom.Object{Box: geom.BoxAt(c.Min)},
			geom.Object{Box: geom.BoxAt(c.Max)})
		for d := range geom.Dims {
			if hi[d] < n[d] {
				two := hi
				two[d]++
				out = append(out, geom.Object{Box: cellBox(cl, lo, two)})
				sliver := c
				sliver.Min[d] = c.Max[d]
				out = append(out, geom.Object{Box: sliver})
			}
		}
	}
	for i := range out {
		out[i].ID = geom.ID(i)
	}
	return out
}

// hostile returns boxes with infinite and NaN corners, and boxes reaching
// past the root.
func hostile(root geom.Box) geom.Dataset {
	inf, nan := math.Inf(1), math.NaN()
	c := root.Center()
	out := geom.Dataset{
		{Box: geom.Box{Min: geom.Point{-inf, c[1], c[2]}, Max: c}},
		{Box: geom.Box{Min: c, Max: geom.Point{c[0], inf, c[2]}}},
		{Box: geom.Box{Min: geom.Point{-inf, -inf, -inf}, Max: geom.Point{inf, inf, inf}}},
		{Box: geom.Box{Min: geom.Point{inf, inf, inf}, Max: geom.Point{inf, inf, inf}}},
		{Box: geom.Box{Min: geom.Point{nan, c[1], c[2]}, Max: c}},
		{Box: geom.Box{Min: c, Max: geom.Point{c[0], c[1], nan}}},
		{Box: geom.Box{Min: geom.Point{nan, nan, nan}, Max: geom.Point{nan, nan, nan}}},
		{Box: geom.BoxAt(root.Min)},
		{Box: geom.BoxAt(root.Max)},
		{Box: root},
		{Box: geom.BoxAt(geom.Point{root.Max[0] + 1, c[1], c[2]})},
		// Inverted along one dimension, inside one cell.
		{Box: geom.Box{Min: c, Max: geom.Point{c[0] - 1e-9, c[1], c[2]}}},
	}
	for i := range out {
		out[i].ID = geom.ID(i)
	}
	return out
}

// flatten returns ds with every box's z range set to [z, z].
func flatten(ds geom.Dataset, z float64) geom.Dataset {
	out := append(geom.Dataset(nil), ds...)
	for i := range out {
		out[i].Box.Min[2], out[i].Box.Max[2] = z, z
	}
	return out
}

// TestCellTableDestinations holds the cell table to the plain descent:
// for every B object, the destination Assign records (at 1 and 2
// workers), AssignOne's and the plain descent from the root of the box
// grown by ε are one node, and every cell holds the plain descent of
// its own box. Filtered counts follow. The uniform rows must send most
// of their B through the table (cellsPay) and the rows marked so must
// keep one, so the test is not won by a table that is never read.
func TestCellTableDestinations(t *testing.T) {
	axons, dendrites := datagen.GenerateNeuro(datagen.ScaledNeuroConfig(42, 1.0/50))
	uniA := datagen.UniformSet(20_000, 42)
	flatA := flatten(datagen.UniformSet(20_000, 3), 500)
	for _, tc := range []struct {
		name     string
		a, b     geom.Dataset
		epsA     float64
		epsB     float64
		cfg      Config
		table    bool // the tree keeps a cell table
		cellsPay bool // Assign reads it
		edges    bool // add boxes on the cell bounds to b
	}{
		{name: "uniform", a: uniA, b: datagen.UniformSet(30_000, 43), table: true, cellsPay: true, edges: true},
		{name: "uniform-epsA", a: uniA, epsA: 5, b: datagen.UniformSet(30_000, 43), table: true, cellsPay: true},
		{name: "uniform-epsB", a: uniA, b: datagen.UniformSet(30_000, 43), epsB: 5, table: true, cellsPay: true},
		{name: "uniform-epsB-wide", a: uniA, b: datagen.UniformSet(5_000, 43), epsB: 60, table: true},
		{name: "gaussian", a: datagen.GaussianSet(20_000, 44), b: datagen.GaussianSet(30_000, 45), epsB: 2, table: true, cellsPay: true, edges: true},
		{name: "clustered", a: datagen.ClusteredSet(20_000, 46), epsA: 3, b: datagen.ClusteredSet(30_000, 47), table: true, cellsPay: true, edges: true},
		{name: "neuro", a: axons.Objects(), b: dendrites.Objects(), epsB: 5, table: true},
		{name: "neuro-epsA", a: axons.Objects(), epsA: 5, b: dendrites.Objects(), table: true, cellsPay: true},
		{name: "point-boxes", a: uniA, b: flatten(datagen.UniformSet(5_000, 48), 250), table: true, cellsPay: true, edges: true},
		{name: "flat-root", a: flatA, b: append(flatten(datagen.UniformSet(5_000, 49), 500), datagen.UniformSet(500, 50)...), table: true, cellsPay: true, edges: true},
		{name: "single-leaf", a: datagen.UniformSet(100, 51), b: datagen.UniformSet(5_000, 52), cfg: Config{Partitions: 1}},
		{name: "small-buckets", a: datagen.UniformSet(4_000, 53), b: datagen.UniformSet(5_000, 54), cfg: Config{Partitions: 2048}, table: true, cellsPay: true, edges: true},
	} {
		built := BuildExpanded(tc.a, tc.epsA, tc.cfg, 1)
		thawed, err := Thaw(built.Freeze())
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !reflect.DeepEqual(thawed.cells, built.cells) {
			t.Fatalf("%s: the thawed tree's cell table differs from the built one's", tc.name)
		}
		if (built.cells != nil) != tc.table {
			t.Fatalf("%s: cell table kept %v, want %v (height %d)", tc.name, built.cells != nil, tc.table, built.Height)
		}
		b := append(tc.b, hostile(built.table[0].mbr)...)
		if tc.edges {
			b = append(b, onBounds(built.cells)...)
		}
		if got := built.cells.pays(b, tc.epsB); got != tc.cellsPay {
			t.Fatalf("%s: the table pays %v, want %v", tc.name, got, tc.cellsPay)
		}
		for _, tr := range []struct {
			name string
			tree *Tree
		}{{"built", built}, {"thawed", thawed}} {
			checkCells(t, tc.name+"/"+tr.name, tr.tree)
			want := make([]int32, len(b))
			filtered, viaCell := int64(0), 0
			for i := range b {
				box := b[i].Box.Expand(tc.epsB)
				want[i] = plainDescent(tr.tree, &box)
				if want[i] < 0 {
					filtered++
				}
				if got := tr.tree.AssignOne(&box, &stats.Counters{}); got != want[i] {
					t.Fatalf("%s/%s: AssignOne(%v) = %d, the plain descent %d", tc.name, tr.name, box, got, want[i])
				}
				if _, ok := tr.tree.cells.cell(&box); ok {
					viaCell++
				}
			}
			if tc.cellsPay && 2*viaCell < len(b) {
				t.Fatalf("%s/%s: only %d of %d boxes lie in one cell", tc.name, tr.name, viaCell, len(b))
			}
			for _, workers := range []int{1, 2} {
				p := tr.tree.NewProbe()
				p.SetWorkers(workers)
				var c stats.Counters
				p.AssignExpanded(b, tc.epsB, nil, &c)
				if got := p.dest[:len(b)]; !reflect.DeepEqual(got, want) {
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%s/%s workers=%d: object %d %v assigned to %d, the plain descent %d",
								tc.name, tr.name, workers, i, b[i].Box, got[i], want[i])
						}
					}
				}
				if c.Filtered != filtered {
					t.Fatalf("%s/%s workers=%d: %d filtered, the plain descent %d", tc.name, tr.name, workers, c.Filtered, filtered)
				}
			}
		}
	}
}

// checkCells asserts that every cell of tr's table holds the plain
// descent of its own box, that its bounds ascend from the root's lower
// corner to its upper one, and that a cell's box, when the arithmetic
// places it at all, is placed in its own cell.
func checkCells(t *testing.T, name string, tr *Tree) {
	t.Helper()
	cl := tr.cells
	if cl == nil {
		return
	}
	root := tr.table[0].mbr
	var n [geom.Dims]int
	for d := range geom.Dims {
		e := cl.edges[d]
		n[d] = len(e) - 1
		if e[0] != root.Min[d] || e[n[d]] != root.Max[d] {
			t.Fatalf("%s: bounds along %d run %g..%g, the root %g..%g", name, d, e[0], e[n[d]], root.Min[d], root.Max[d])
		}
		for k := 1; k <= n[d]; k++ {
			if !(e[k-1] <= e[k]) {
				t.Fatalf("%s: bounds along %d descend at %d", name, d, k)
			}
		}
	}
	if (cl.small == nil) != (tr.Nodes > math.MaxUint16) {
		t.Fatalf("%s: %d nodes kept in the wide table %v", name, tr.Nodes, cl.small == nil)
	}
	k := 0
	for i := 0; i < n[0]; i++ {
		for j := 0; j < n[1]; j++ {
			for l := 0; l < n[2]; l++ {
				c := cellBox(cl, [geom.Dims]int{i, j, l}, [geom.Dims]int{i + 1, j + 1, l + 1})
				got := int32(-1)
				if cl.small != nil {
					got = int32(cl.small[k]) - 1
				} else {
					got = cl.wide[k]
				}
				if want := plainDescent(tr, &c); got != want {
					t.Fatalf("%s: cell (%d,%d,%d) holds %d, its box descends to %d", name, i, j, l, got, want)
				}
				if got, ok := cl.cell(&c); ok && got != k {
					t.Fatalf("%s: cell (%d,%d,%d)'s box placed in cell %d", name, i, j, l, got)
				}
				k++
			}
		}
	}
}

// TestCellTableWide builds a tree of more nodes than a uint16 holds, so
// its cells keep int32 ids, and holds them to the plain descent.
func TestCellTableWide(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 140K-object tree")
	}
	tr := Build(datagen.UniformSet(140_000, 55), Config{Partitions: 40_000})
	if tr.Nodes <= math.MaxUint16 || tr.cells == nil || tr.cells.wide == nil {
		t.Fatalf("%d nodes: want a wide cell table", tr.Nodes)
	}
	checkCells(t, "wide", tr)
	r := rand.New(rand.NewSource(56))
	for _, o := range datagen.UniformSet(20_000, 57) {
		box := o.Box
		if r.Intn(2) == 0 {
			box = geom.BoxAt(box.Min)
		}
		if got, want := tr.AssignOne(&box, &stats.Counters{}), plainDescent(tr, &box); got != want {
			t.Fatalf("AssignOne(%v) = %d, the plain descent %d", box, got, want)
		}
	}
}
