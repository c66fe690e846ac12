// Package rtree implements an in-memory R-tree bulk-loaded with STR
// (Leutenegger et al.), the structure behind two of the TOUCH paper's
// baselines: the synchronous R-tree traversal join (Brinkhoff, Kriegel &
// Seeger, SIGMOD'93) and the indexed nested loop join. The paper's best
// configuration — fanout 2, 2 KB nodes — is the default.
package rtree

import (
	"touch/internal/geom"
	"touch/internal/stats"
)

// DefaultFanout is the inner-node fanout the paper found best for the
// R-tree baselines ("a fanout of 2 and nodes of 2KB", §6.1).
const DefaultFanout = 2

// DefaultLeafCapacity is the number of object entries that fit in a 2 KB
// leaf node, the paper's node size.
const DefaultLeafCapacity = 2048 / stats.BytesPerObject

// Node is one R-tree node. Leaf nodes carry object entries; inner nodes
// carry children. Every child's (or entry's) MBR is contained in the
// node's MBR.
type Node struct {
	MBR      geom.Box
	Children []*Node       // nil for leaves
	Entries  []geom.Object // nil for inner nodes
}

// Leaf reports whether the node is a leaf.
func (n *Node) Leaf() bool { return n.Children == nil }

// Tree is an immutable, bulk-loaded R-tree.
type Tree struct {
	Root   *Node
	Height int // number of levels; 1 for a tree that is a single leaf
	Nodes  int // total node count
	Size   int // number of indexed objects
}

// Config controls bulk loading.
type Config struct {
	Fanout       int // children per inner node (default 2)
	LeafCapacity int // object entries per leaf (default 2KB worth)
}

func (c *Config) fillDefaults() {
	if c.Fanout <= 0 {
		c.Fanout = DefaultFanout
	}
	if c.Fanout == 1 {
		panic("rtree: fanout 1 would never converge to a root")
	}
	if c.LeafCapacity <= 0 {
		c.LeafCapacity = DefaultLeafCapacity
	}
}

// Bulkload builds an R-tree over the dataset using STR packing at every
// level. An empty dataset yields a tree with a single empty leaf.
func Bulkload(ds geom.Dataset, cfg Config) *Tree {
	cfg.fillDefaults()
	t := &Tree{Size: len(ds)}
	if len(ds) == 0 {
		t.Root = &Node{MBR: geom.EmptyBox(), Entries: []geom.Object{}}
		t.Height = 1
		t.Nodes = 1
		return t
	}
	// Leaf level.
	groups := packObjects(ds, cfg.LeafCapacity)
	level := make([]*Node, len(groups))
	for i, g := range groups {
		n := &Node{Entries: g, MBR: geom.EmptyBox()}
		for _, o := range g {
			n.MBR = n.MBR.Union(o.Box)
		}
		level[i] = n
	}
	t.Nodes = len(level)
	t.Height = 1
	// Upper levels.
	for len(level) > 1 {
		parents := packNodes(level, cfg.Fanout)
		next := make([]*Node, len(parents))
		for i, g := range parents {
			n := &Node{Children: g, MBR: geom.EmptyBox()}
			for _, ch := range g {
				n.MBR = n.MBR.Union(ch.MBR)
			}
			next[i] = n
		}
		level = next
		t.Nodes += len(level)
		t.Height++
	}
	t.Root = level[0]
	return t
}

// MemoryBytes returns the analytic footprint of the tree: node overhead
// plus one reference per indexed object.
func (t *Tree) MemoryBytes() int64 {
	return int64(t.Nodes)*stats.BytesPerNode + int64(t.Size)*stats.BytesPerRef
}

// Query visits every indexed object whose MBR intersects q. Node-level
// MBR tests are charged to c.NodeTests and object-level tests to
// c.Comparisons, matching the paper's metric (a query object probing a
// leaf compares two objects' boxes).
func (t *Tree) Query(q geom.Box, c *stats.Counters, visit func(*geom.Object)) {
	t.query(t.Root, q, nil, c, visit)
}

// query is the cancellable descent behind Query: a stopped ticker (tk
// may be nil) prunes the rest of the traversal. INLJoin threads one
// ticker through all of its probes so the checkpoints amortize across
// queries.
func (t *Tree) query(n *Node, q geom.Box, tk *stats.Ticker, c *stats.Counters, visit func(*geom.Object)) {
	if n.Leaf() {
		for i := range n.Entries {
			if tk.Tick() {
				return
			}
			c.Comparisons++
			if q.Intersects(n.Entries[i].Box) {
				visit(&n.Entries[i])
			}
		}
		return
	}
	for _, ch := range n.Children {
		if tk.Tick() {
			return
		}
		c.NodeTests++
		if q.Intersects(ch.MBR) {
			t.query(ch, q, tk, c, visit)
		}
	}
}
