package core

import (
	"fmt"
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

// children returns the ids of node i's children, in order: the one way
// the tests walk the tree.
func (t *Tree) children(i int32) []int32 {
	var chs []int32
	for ch := i + 1; ch < t.table[i].skip; ch = t.table[ch].skip {
		chs = append(chs, ch)
	}
	return chs
}

// leafDepths returns the distinct depths of the tree's leaves, ascending.
func leafDepths(tr *Tree) []int {
	var depths []int
	depth := make([]int, len(tr.table))
	for i := range tr.table {
		if id := int32(i); tr.table[i].leaf(id) && !slices.Contains(depths, depth[i]) {
			depths = append(depths, depth[i])
		}
		for _, ch := range tr.children(int32(i)) {
			depth[ch] = depth[i] + 1
		}
	}
	slices.Sort(depths)
	return depths
}

// checkTable asserts the invariants of a built tree's table against brute
// force, reading no link to establish another: one entry and one extent
// sum per node, exactly allocated; skip is the id plus the size of the
// subtree, counted as the entries that follow with an arena range inside
// the node's (every node of a built tree holds objects, and no inner node
// has one child, so a range inside it is a descendant's), which makes a
// leaf's the next id; an MBR is the union of the arena objects below the
// node, bit for bit; the children's arena ranges tile the node's, the
// root's is the arena; and the leaves' block offsets, in id order, tile
// the block directory exactly, each block a run of leafBlock arena objects
// but the leaf's last.
func checkTable(t *testing.T, name string, tr *Tree) {
	t.Helper()
	if len(tr.table) != tr.Nodes || cap(tr.table) != tr.Nodes || len(tr.extSum) != tr.Nodes || cap(tr.extSum) != tr.Nodes {
		t.Fatalf("%s: %d table entries (cap %d), %d extent sums (cap %d) for %d nodes",
			name, len(tr.table), cap(tr.table), len(tr.extSum), cap(tr.extSum), tr.Nodes)
	}
	if root := &tr.table[0]; root.aStart != 0 || int(root.aEnd) != len(tr.boxes) || int(root.skip) != tr.Nodes {
		t.Fatalf("%s: the root covers arena [%d,%d) and ends at node %d; %d objects, %d nodes", name, root.aStart, root.aEnd, root.skip, len(tr.boxes), tr.Nodes)
	}
	next, leaves := int32(0), 0 // next unclaimed entry of tr.blocks
	for i := range tr.table {
		id, e := int32(i), &tr.table[i]
		want := id + 1
		for int(want) < len(tr.table) && tr.table[want].aStart >= e.aStart && tr.table[want].aEnd <= e.aEnd {
			want++
		}
		if e.skip != want {
			t.Fatalf("%s: node %d skip %d, want %d", name, id, e.skip, want)
		}
		if union := objects(tr.span(e.aStart, e.aEnd)).MBR(); e.mbr != union {
			t.Fatalf("%s: node %d MBR %v, its objects' %v", name, id, e.mbr, union)
		}
		if e.block != next {
			t.Fatalf("%s: node %d first block %d, the blocks before it end at %d", name, id, e.block, next)
		}
		if !e.leaf(id) {
			covered := e.aStart
			for _, ch := range tr.children(id) {
				if c := &tr.table[ch]; c.aStart != covered || c.aEnd <= c.aStart {
					t.Fatalf("%s: node %d child %d covers arena [%d,%d), its siblings before it end at %d", name, id, ch, c.aStart, c.aEnd, covered)
				}
				covered = tr.table[ch].aEnd
			}
			if covered != e.aEnd {
				t.Fatalf("%s: node %d [%d,%d): children end at %d", name, id, e.aStart, e.aEnd, covered)
			}
			continue
		}
		leaves++
		covered := e.aStart
		for bi := int32(0); bi < e.blocks(); bi++ {
			es, _ := tr.block(e, bi)
			if len(es) == 0 || &es[0] != &tr.boxes[covered] || (len(es) != leafBlock && bi != e.blocks()-1) {
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
	if leaves != tr.Leaves {
		t.Fatalf("%s: %d leaves in the table, Leaves is %d", name, leaves, tr.Leaves)
	}
}

// TestProbeTable checks the table on fresh and on thawed trees — fanouts
// 2, 3 and 7 over random sizes, one leaf, the empty tree, a leaf of
// exactly leafBlock objects and of one more — and that a thaw rebuilds
// the table of the tree it froze.
func TestProbeTable(t *testing.T) {
	if size := unsafe.Sizeof(entry{}); size != bytesPerEntry {
		t.Fatalf("a table entry is %d bytes, StaticBytes counts %d", size, bytesPerEntry)
	}
	if size := unsafe.Sizeof(zWindow{}); size != bytesPerWindow {
		t.Fatalf("a z window is %d bytes, StaticBytes counts %d", size, bytesPerWindow)
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
		if !slices.Equal(thawed.table, fresh.table) || !slices.Equal(thawed.extSum, fresh.extSum) {
			t.Fatalf("%s: the thawed table differs from the fresh one", tc.name)
		}
	}
}

// TestConcurrentQueriesOneTree: the node table and the block directory
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
