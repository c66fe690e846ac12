package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"touch/internal/datagen"
	"touch/internal/geom"
	"touch/internal/nl"
	"touch/internal/stats"
)

// subtreeSize counts the nodes of n's subtree by its pointers.
func subtreeSize(n *Node) int32 {
	size := int32(1)
	for _, ch := range n.Children {
		size += subtreeSize(ch)
	}
	return size
}

// checkTable asserts the probe table invariants of a tree against its
// nodes: one entry per node at the node's id; skip is the id plus the size
// of the subtree, so a leaf's is the next id; MBR and arena range are the
// node's, bit for bit; and the leaves' block offsets, in id order, tile
// the block directory exactly — a leaf's blocks start where the previous
// leaf's ended and are the ones its node holds.
func checkTable(t *testing.T, name string, tr *Tree) {
	t.Helper()
	if len(tr.table) != len(tr.nodes) || cap(tr.table) != len(tr.table) {
		t.Fatalf("%s: %d table entries (cap %d) for %d nodes", name, len(tr.table), cap(tr.table), len(tr.nodes))
	}
	next := int32(0) // next unclaimed entry of tr.blocks
	for i, n := range tr.nodes {
		id, e := int32(i), &tr.table[i]
		if want := id + subtreeSize(n); e.skip != want {
			t.Fatalf("%s: node %d skip %d, want %d", name, id, e.skip, want)
		}
		if e.leaf(id) != n.Leaf() {
			t.Fatalf("%s: node %d reads as a leaf: %v, is one: %v", name, id, e.leaf(id), n.Leaf())
		}
		for d := 0; d < geom.Dims; d++ {
			if math.Float64bits(e.mbr.Min[d]) != math.Float64bits(n.MBR.Min[d]) || math.Float64bits(e.mbr.Max[d]) != math.Float64bits(n.MBR.Max[d]) {
				t.Fatalf("%s: node %d entry MBR %v, node MBR %v", name, id, e.mbr, n.MBR)
			}
		}
		if e.aStart != n.aStart || e.aEnd != n.aEnd {
			t.Fatalf("%s: node %d entry range [%d,%d), node range [%d,%d)", name, id, e.aStart, e.aEnd, n.aStart, n.aEnd)
		}
		if e.block != next {
			t.Fatalf("%s: node %d first block %d, the blocks before it end at %d", name, id, e.block, next)
		}
		if !n.Leaf() {
			continue
		}
		if int(e.blocks()) != len(n.blocks) {
			t.Fatalf("%s: leaf %d has %d blocks by its entry, %d by its node", name, id, e.blocks(), len(n.blocks))
		}
		covered := e.aStart
		for bi := int32(0); bi < e.blocks(); bi++ {
			if &tr.blocks[e.block+bi] != &n.blocks[bi] {
				t.Fatalf("%s: leaf %d block %d is not directory entry %d", name, id, bi, e.block+bi)
			}
			es := tr.block(e, bi)
			if len(es) == 0 || &es[0] != &tr.arena[covered] || (len(es) != leafBlock && bi != e.blocks()-1) {
				t.Fatalf("%s: leaf %d block %d: %d objects from arena %d", name, id, bi, len(es), covered)
			}
			covered += int32(len(es))
		}
		if covered != e.aEnd {
			t.Fatalf("%s: leaf %d [%d,%d): blocks end at %d", name, id, e.aStart, e.aEnd, covered)
		}
		next += e.blocks()
	}
	if int(next) != len(tr.blocks) {
		t.Fatalf("%s: the leaves' entries claim %d blocks, the directory holds %d", name, next, len(tr.blocks))
	}
}

// TestProbeTable checks the table on fresh and on thawed trees — fanouts
// 2, 3 and 7 over random sizes, one leaf, the empty tree, a leaf of
// exactly leafBlock objects and of one more — and that a thaw rebuilds
// the table of the tree it froze.
func TestProbeTable(t *testing.T) {
	if size := unsafe.Sizeof(probeEntry{}); size != bytesPerProbeEntry {
		t.Fatalf("a probe table entry is %d bytes, StaticBytes counts %d", size, bytesPerProbeEntry)
	}
	type tc struct {
		name string
		ds   geom.Dataset
		cfg  Config
	}
	cases := []tc{
		{"empty", nil, Config{}},
		{"one-object", datagen.UniformSet(1, 921), Config{}},
		{"one-leaf", datagen.GaussianSet(1000, 922), Config{Partitions: 1}},
		{"exactly-one-block", datagen.UniformSet(leafBlock, 923), Config{Partitions: 1}},
		{"one-over", datagen.UniformSet(leafBlock+1, 924), Config{Partitions: 1}},
		{"default", datagen.ClusteredSet(5000, 925).Expand(4), Config{}},
	}
	rng := rand.New(rand.NewSource(926))
	for _, fanout := range []int{2, 3, 7} {
		for i := 0; i < 4; i++ {
			n, partitions := 1+rng.Intn(4000), 1+rng.Intn(60)
			cases = append(cases, tc{
				fmt.Sprintf("fanout%d/%dx%d", fanout, n, partitions),
				datagen.UniformSet(n, int64(930+10*fanout+i)),
				Config{Fanout: fanout, Partitions: partitions},
			})
		}
	}
	for _, tc := range cases {
		fresh := Build(tc.ds, tc.cfg)
		checkTable(t, tc.name, fresh)
		thawed, err := Thaw(fresh.Freeze())
		if err != nil {
			t.Fatalf("%s: Thaw: %v", tc.name, err)
		}
		checkTable(t, tc.name+"/thawed", thawed)
		if !slices.Equal(thawed.table, fresh.table) {
			t.Fatalf("%s: the thawed table differs from the fresh one", tc.name)
		}
	}
}

// TestConcurrentQueriesOneTree: the probe table and the block directory
// are read-only state every probe of a tree shares. Eight goroutines,
// each with a private probe, run range queries and kNN searches over one
// tree — answers long enough for the radix sort among them — and must
// reproduce the nested loop's answers and the sequential counters (run
// under -race). The tree's leaves sit at unequal depths, as most trees'
// do: a walk that took the depth of the first leaf for the depth of all
// would go wrong here.
func TestConcurrentQueriesOneTree(t *testing.T) {
	ds := datagen.ClusteredSet(6000, 941).Expand(3)
	tr := Build(ds, Config{Partitions: 24})
	if d := leafDepths(tr); len(d) < 2 {
		t.Fatalf("premise: every leaf sits at depth %v; three slabs under fanout 2 should put one a level up", d)
	}
	const goroutines, queries = 8, 24
	type query struct {
		box  geom.Box
		pt   geom.Point
		ids  []geom.ID
		nbrs []geom.Neighbor
		c    stats.Counters
	}
	rng := rand.New(rand.NewSource(942))
	qs := make([]query, queries)
	seq, longest := tr.NewProbe(), 0
	for i := range qs {
		q := &qs[i]
		q.box = randomQueryBox(rng)
		q.pt = ds[rng.Intn(len(ds))].Box.Center()
		q.ids, q.nbrs = nl.RangeQuery(ds, q.box), nl.KNN(ds, q.pt, 10)
		seq.RangeQuery(q.box, &q.c)
		seq.KNN(q.pt, 10, &q.c)
		longest = max(longest, len(q.ids))
	}
	if longest < radixCutover {
		t.Fatalf("premise: the longest answer has %d ids, the radix sort starts at %d", longest, radixCutover)
	}
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := tr.NewProbe()
			for i := range qs {
				q := &qs[(i+g)%queries]
				var c stats.Counters
				if got := p.RangeQuery(q.box, &c); !slices.Equal(got, q.ids) {
					errs <- fmt.Errorf("goroutine %d: range %v: %d ids, want %d", g, q.box, len(got), len(q.ids))
					return
				}
				if got := p.KNN(q.pt, 10, &c); !slices.Equal(got, q.nbrs) {
					errs <- fmt.Errorf("goroutine %d: knn %v: got %v, want %v", g, q.pt, got, q.nbrs)
					return
				}
				if c != q.c {
					errs <- fmt.Errorf("goroutine %d: counters %+v, sequential %+v", g, c, q.c)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
