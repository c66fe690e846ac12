package rtree

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"touch/internal/datagen"
	"touch/internal/geom"
	"touch/internal/stats"
)

func TestBulkloadInvariants(t *testing.T) {
	for _, n := range []int{0, 1, 35, 36, 37, 100, 1000, 5000} {
		ds := datagen.UniformSet(n, int64(n)+1)
		tr := Bulkload(ds, Config{})
		if err := tr.Validate(Config{}); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got := tr.CountObjects(); got != n {
			t.Fatalf("n=%d: tree holds %d objects", n, got)
		}
		if tr.Size != n {
			t.Fatalf("n=%d: Size=%d", n, tr.Size)
		}
	}
}

func TestBulkloadCustomConfig(t *testing.T) {
	ds := datagen.GaussianSet(2000, 7)
	cfg := Config{Fanout: 8, LeafCapacity: 10}
	tr := Bulkload(ds, cfg)
	if err := tr.Validate(cfg); err != nil {
		t.Fatal(err)
	}
	if tr.Height < 3 {
		t.Fatalf("2000 objects at leaf=10 fanout=8 must be at least 3 levels, got %d", tr.Height)
	}
}

func TestBulkloadFanoutOnePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("fanout 1 must panic")
		}
	}()
	Bulkload(datagen.UniformSet(10, 1), Config{Fanout: 1})
}

func TestEmptyTree(t *testing.T) {
	tr := Bulkload(nil, Config{})
	if tr.Height != 1 || tr.Nodes != 1 {
		t.Fatalf("empty tree shape: height=%d nodes=%d", tr.Height, tr.Nodes)
	}
	var c stats.Counters
	found := 0
	tr.Query(geom.NewBox(geom.Point{0, 0, 0}, geom.Point{1000, 1000, 1000}),
		&c, func(*geom.Object) { found++ })
	if found != 0 {
		t.Fatal("query on empty tree found objects")
	}
}

func TestQueryMatchesBruteForce(t *testing.T) {
	ds := datagen.ClusteredSet(3000, 11)
	tr := Bulkload(ds, Config{})
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		var c, h geom.Point
		for d := 0; d < geom.Dims; d++ {
			c[d] = rng.Float64() * 1000
			h[d] = rng.Float64() * 40
		}
		q := geom.NewBox(geom.Sub(c, h), geom.Add(c, h))
		want := make(map[geom.ID]bool)
		for j := range ds {
			if q.Intersects(ds[j].Box) {
				want[ds[j].ID] = true
			}
		}
		var cnt stats.Counters
		got := make(map[geom.ID]bool)
		tr.Query(q, &cnt, func(o *geom.Object) { got[o.ID] = true })
		if len(got) != len(want) {
			t.Fatalf("query %v: got %d, want %d", q, len(got), len(want))
		}
		for id := range got {
			if !want[id] {
				t.Fatalf("query %v: spurious object %d", q, id)
			}
		}
	}
}

func TestQueryCountsComparisons(t *testing.T) {
	ds := datagen.UniformSet(500, 3)
	tr := Bulkload(ds, Config{})
	var c stats.Counters
	tr.Query(ds[0].Box, &c, func(*geom.Object) {})
	if c.Comparisons == 0 {
		t.Fatal("query must charge object comparisons")
	}
	if c.NodeTests == 0 {
		t.Fatal("query must charge node tests")
	}
	// Comparisons are bounded by visiting every leaf entry once.
	if c.Comparisons > int64(len(ds)) {
		t.Fatalf("query compared %d > |A| objects", c.Comparisons)
	}
}

func TestMemoryBytes(t *testing.T) {
	ds := datagen.UniformSet(1000, 5)
	tr := Bulkload(ds, Config{})
	want := int64(tr.Nodes)*stats.BytesPerNode + int64(1000)*stats.BytesPerRef
	if tr.MemoryBytes() != want {
		t.Fatalf("MemoryBytes = %d, want %d", tr.MemoryBytes(), want)
	}
}

func TestPropBulkloadValid(t *testing.T) {
	f := func(seed int64, rawN uint16, rawFanout, rawLeaf uint8) bool {
		n := int(rawN % 2000)
		cfg := Config{Fanout: int(rawFanout%7) + 2, LeafCapacity: int(rawLeaf%20) + 1}
		ds := datagen.GaussianSet(n, seed)
		tr := Bulkload(ds, cfg)
		return tr.Validate(cfg) == nil && tr.CountObjects() == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestLeafEntriesSortedForSweep(t *testing.T) {
	ds := datagen.UniformSet(2000, 9)
	tr := Bulkload(ds, Config{})
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.Leaf() {
			for i := 1; i < len(n.Entries); i++ {
				if n.Entries[i-1].Box.Min[0] > n.Entries[i].Box.Min[0] {
					t.Fatal("leaf entries must be xmin-sorted for the sweep local join")
				}
			}
			return
		}
		for _, ch := range n.Children {
			walk(ch)
		}
	}
	walk(tr.Root)
}

// Validate checks the structural invariants of the tree:
// every node's MBR equals the union of its children/entries, leaves are
// all at the same depth, and capacities are respected. It returns an
// error describing the first violation found.
func (t *Tree) Validate(cfg Config) error {
	cfg.fillDefaults()
	if t.Root == nil {
		return fmt.Errorf("rtree: nil root")
	}
	depth := -1
	var walk func(n *Node, level int) error
	walk = func(n *Node, level int) error {
		if n.Leaf() {
			if depth == -1 {
				depth = level
			} else if depth != level {
				return fmt.Errorf("rtree: leaves at depths %d and %d", depth, level)
			}
			if len(n.Entries) > cfg.LeafCapacity {
				return fmt.Errorf("rtree: leaf with %d > %d entries", len(n.Entries), cfg.LeafCapacity)
			}
			if t.Size > 0 && len(n.Entries) == 0 {
				return fmt.Errorf("rtree: empty leaf in non-empty tree")
			}
			mbr := geom.EmptyBox()
			for _, o := range n.Entries {
				mbr = mbr.Union(o.Box)
			}
			if mbr != n.MBR {
				return fmt.Errorf("rtree: leaf MBR %v != union %v", n.MBR, mbr)
			}
			return nil
		}
		if len(n.Children) == 0 {
			return fmt.Errorf("rtree: inner node without children")
		}
		if len(n.Children) > cfg.Fanout {
			return fmt.Errorf("rtree: inner node with %d > %d children", len(n.Children), cfg.Fanout)
		}
		mbr := geom.EmptyBox()
		for _, ch := range n.Children {
			mbr = mbr.Union(ch.MBR)
			if err := walk(ch, level+1); err != nil {
				return err
			}
		}
		if mbr != n.MBR {
			return fmt.Errorf("rtree: inner MBR %v != union %v", n.MBR, mbr)
		}
		return nil
	}
	return walk(t.Root, 0)
}

// CountObjects returns the number of entries reachable from the root.
func (t *Tree) CountObjects() int {
	var count func(n *Node) int
	count = func(n *Node) int {
		if n.Leaf() {
			return len(n.Entries)
		}
		total := 0
		for _, ch := range n.Children {
			total += count(ch)
		}
		return total
	}
	return count(t.Root)
}
