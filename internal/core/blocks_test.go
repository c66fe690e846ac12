package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"touch/internal/datagen"
	"touch/internal/geom"
	"touch/internal/nl"
	"touch/internal/stats"
)

// checkDirectory asserts the block directory invariants of a tree: the
// leaves' blocks, in arena order, are exactly the directory; a leaf's
// blocks partition its [aStart, aEnd) into consecutive runs of leafBlock
// objects (the last one shorter); every block MBR is bit-equal to the
// union of its objects; a leaf of at most leafBlock objects has one
// block, equal to its own MBR; and every block's z window is right for
// its objects (checkWindow).
func checkDirectory(t *testing.T, name string, tr *Tree) {
	t.Helper()
	next := 0 // next unclaimed entry of tr.blocks
	for i := range tr.table {
		id, n := int32(i), &tr.table[i]
		if int(n.block) != next {
			t.Fatalf("%s: node %d's blocks do not start at directory entry %d", name, id, next)
		}
		if !n.leaf(id) {
			continue
		}
		blocks := tr.blocks[n.block : n.block+n.blocks()]
		next += len(blocks)
		covered := n.aStart
		for bi, blk := range blocks {
			es := tr.block(n, int32(bi))
			if len(es) == 0 || (len(es) != leafBlock && bi != len(blocks)-1) {
				t.Fatalf("%s: leaf %d block %d holds %d objects", name, id, bi, len(es))
			}
			if &es[0] != &tr.arena[covered] {
				t.Fatalf("%s: leaf %d block %d does not start at arena %d", name, id, bi, covered)
			}
			covered += int32(len(es))
			if want := geom.Dataset(es).MBR(); blk != want {
				t.Fatalf("%s: leaf %d block %d MBR %v, its objects' %v", name, id, bi, blk, want)
			}
			checkWindow(t, name, tr, n.block+int32(bi), es)
		}
		if covered != n.aEnd {
			t.Fatalf("%s: leaf %d [%d,%d): blocks end at %d", name, id, n.aStart, n.aEnd, covered)
		}
		if len(blocks) == 1 && blocks[0] != n.mbr {
			t.Fatalf("%s: leaf %d's only block %v differs from its MBR %v", name, id, blocks[0], n.mbr)
		}
	}
	if next != len(tr.blocks) || cap(tr.blocks) != len(tr.blocks) || len(tr.windows) != next || cap(tr.windows) != next {
		t.Fatalf("%s: leaves claim %d blocks, the directory holds %d (cap %d) and %d windows (cap %d)",
			name, next, len(tr.blocks), cap(tr.blocks), len(tr.windows), cap(tr.windows))
	}
	// One 64-byte entry and one 8-byte extent sum per node; one 48-byte
	// MBR and one 24-byte z window per block.
	if want := int64(tr.Nodes)*(64+8) + int64(tr.SizeA)*stats.BytesPerRef + int64(next)*(stats.BytesPerBox+24); tr.StaticBytes() != want {
		t.Fatalf("%s: StaticBytes %d, want %d with %d blocks", name, tr.StaticBytes(), want, next)
	}
}

// checkWindow asserts that the z window of block bi, whose objects are
// es, is what zWindow says, read off the objects one by one: a finite
// half extent exactly when the centres are finite and ascend, reaching
// from both z corners of every object to its centre; and one key per
// zStride objects, the first one's, then 255 past the last object.
func checkWindow(t *testing.T, name string, tr *Tree, bi int32, es []geom.Object) {
	t.Helper()
	w, mbr := &tr.windows[bi], &tr.blocks[bi]
	ordered := true
	for j := range es {
		c := es[j].Box.Center()[2]
		ordered = ordered && !math.IsInf(c, 0) && !math.IsNaN(c) && (j == 0 || c >= es[j-1].Box.Center()[2])
	}
	if !ordered {
		if !math.IsInf(w.half, 1) {
			t.Fatalf("%s: block %d is not in z-centre order, yet its half extent is %g", name, bi, w.half)
		}
		return
	}
	if math.IsInf(w.half, 0) || math.IsNaN(w.half) {
		t.Fatalf("%s: block %d is in z-centre order, yet its half extent is %g", name, bi, w.half)
	}
	for j := range es {
		b := &es[j].Box
		if c := b.Center()[2]; !(b.Min[2]+w.half >= c && b.Max[2]-w.half <= c) {
			t.Fatalf("%s: block %d object %d: z [%g, %g] and half extent %g do not reach its centre %g",
				name, bi, j, b.Min[2], b.Max[2], w.half, c)
		}
	}
	for k, key := range w.keys {
		want := uint8(255)
		if j := k * zStride; j < len(es) {
			want = zKey(es[j].Box.Center()[2], mbr.Min[2], zScale(mbr))
		}
		if key != want {
			t.Fatalf("%s: block %d key %d is %d, want %d", name, bi, k, key, want)
		}
	}
}

// TestBlockDirectory checks the directory on fresh and on thawed trees —
// multi-block leaves, single-block leaves, a leaf of exactly leafBlock
// objects, a ragged last block and the empty tree — and that a thaw
// carries the directory of the tree it froze.
func TestBlockDirectory(t *testing.T) {
	for _, tc := range []struct {
		name   string
		ds     geom.Dataset
		cfg    Config
		blocks int // expected directory size, -1 = unchecked
	}{
		{"empty", nil, Config{}, 0},
		{"one-object", datagen.UniformSet(1, 901), Config{}, 1},
		{"default-buckets", datagen.UniformSet(5000, 902), Config{}, -1},
		{"exactly-one-block", datagen.UniformSet(4*leafBlock, 903), Config{Partitions: 4}, 4},
		{"one-over", datagen.UniformSet(leafBlock+1, 904), Config{Partitions: 1}, 2},
		{"uniform-coarse", datagen.UniformSet(6000, 905), Config{Partitions: 16}, -1},
		{"clustered-coarse-fanout3", datagen.ClusteredSet(5000, 906).Expand(4), Config{Partitions: 9, Fanout: 3}, -1},
		{"single-leaf", datagen.GaussianSet(1000, 907), Config{Partitions: 1}, 16},
	} {
		fresh := Build(tc.ds, tc.cfg)
		checkDirectory(t, tc.name, fresh)
		if tc.blocks >= 0 && len(fresh.blocks) != tc.blocks {
			t.Fatalf("%s: %d blocks, want %d", tc.name, len(fresh.blocks), tc.blocks)
		}
		thawed, err := Thaw(fresh.Freeze())
		if err != nil {
			t.Fatalf("%s: Thaw: %v", tc.name, err)
		}
		checkDirectory(t, tc.name+"/thawed", thawed)
		if !slices.Equal(thawed.blocks, fresh.blocks) || !slices.Equal(thawed.windows, fresh.windows) {
			t.Fatalf("%s: the thawed directory differs from the fresh one", tc.name)
		}
	}
}

// TestThawIndexesAnyLeafOrder: the directory is derived from the arena as
// it arrives, not from an order Build happens to leave. A frozen tree
// whose leaf stretches are shuffled — what a snapshot written before the
// directory existed may hold — must thaw, get a directory that satisfies
// the invariants, and answer range and kNN queries like the nested loop.
//
// The coordinates are integers, which keeps every sum of extents exact
// and so independent of the order within a leaf: the shuffled arena still
// passes Thaw's bit-equality check of the stored extent sums. They also
// make ties the rule among the kNN distances.
func TestThawIndexesAnyLeafOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(911))
	ds := make(geom.Dataset, 3000)
	for i := range ds {
		var lo, hi geom.Point
		for d := range lo {
			lo[d] = float64(rng.Intn(200))
			hi[d] = lo[d] + float64(rng.Intn(12))
		}
		ds[i] = geom.Object{ID: geom.ID(i), Box: geom.NewBox(lo, hi)}
	}
	fresh := Build(ds, Config{Partitions: 8})
	f := fresh.Freeze()
	f.Arena = slices.Clone(f.Arena)
	for _, fn := range f.Nodes {
		if fn.Children == 0 {
			leaf := f.Arena[fn.AStart:fn.AEnd]
			rng.Shuffle(len(leaf), func(i, j int) { leaf[i], leaf[j] = leaf[j], leaf[i] })
		}
	}
	if slices.Equal(f.Arena, fresh.arena) {
		t.Fatal("premise: the shuffle left the arena as it was")
	}
	tr, err := Thaw(f)
	if err != nil {
		t.Fatalf("Thaw of a shuffled arena: %v", err)
	}
	checkDirectory(t, "shuffled", tr)
	if len(tr.blocks) != len(fresh.blocks) || slices.Equal(tr.blocks, fresh.blocks) {
		t.Fatalf("premise: the shuffled directory should have the fresh one's %d entries and differ from it", len(fresh.blocks))
	}

	p := tr.NewProbe()
	var c stats.Counters
	for i := 0; i < 256; i++ {
		var lo, hi geom.Point
		for d := range lo {
			lo[d] = float64(rng.Intn(220) - 10)
			hi[d] = lo[d] + float64(rng.Intn(60))
		}
		q := geom.NewBox(lo, hi)
		if got, want := p.RangeQuery(q, &c), nl.RangeQuery(ds, q); !slices.Equal(got, want) {
			t.Fatalf("range %v: %d ids, nested loop %d", q, len(got), len(want))
		}
		k := []int{1, 10, 100}[i%3]
		if got, want := p.KNN(lo, k, &c), nl.KNN(ds, lo, k); !slices.Equal(got, want) {
			t.Fatalf("knn(%v, %d): got %v..., want %v...", lo, k, head(got, 3), head(want, 3))
		}
	}
}
