// Package core implements TOUCH, the paper's contribution: an in-memory
// spatial join built on hierarchical data-oriented partitioning.
//
// TOUCH runs in three phases (§4.2):
//
//  1. Tree building — dataset A is grouped into p buckets with STR; the
//     buckets become the leaves of a tree whose upper levels follow the
//     cuts STR made to get them: it cut the buckets from slabs, the slabs
//     into runs and the runs into tiles, each cut an exact partition of
//     the objects by centre, so the cuts nest, and the tiles of a run, the
//     runs of a slab and the slabs are each grouped f (the fanout) or
//     fewer per parent by splitting them, in order, into near-equal parts
//     (nest). The paper's Algorithm 2 applies STR again to the nodes of
//     every level; with f = 2 that re-slabs each level across the cuts of
//     the one below, siblings share most of their extent, and most of B
//     cannot leave the root. Grouping along the cuts keeps every inner
//     node's children separated in one dimension, overlapping there by an
//     object's extent at most, and sorts nothing above the leaves.
//  2. Assignment — every object of dataset B descends from the root to
//     the lowest node whose MBR it overlaps without overlapping a
//     sibling; objects overlapping no MBR are filtered out entirely.
//     Algorithm 3 as written: in a tree that nests, the descent runs the
//     tree's height for most objects, which is the hierarchy doing its
//     work and, at one hard-to-predict branch per level, the one thing it
//     made dearer.
//  3. Join — each node holding B objects is joined against the A objects
//     in its descendant leaves through an equi-width grid local join
//     (Algorithm 4) with reference-point duplicate avoidance. The work
//     follows what can match on both sides of the pair: the node's B
//     objects are first filtered down its subtree — into the leaves'
//     blocks, when few are left — so only the stretches of the arena some
//     B object can reach are probed (probeTasks), and
//     the cell side is the cheapest, by estimated work, of the paper's
//     and its four halvings (localGrid).
//
// Unlike PBSM there is no replication of B objects (single assignment,
// Lemma 3: no duplicate results before the local join), and unlike S3 the
// partitioning follows the data, not space.
//
// # Shared vs. per-query state
//
// The three phases split across two types. Tree is the build artifact:
// topology, node MBRs, the A arena and the per-node [aStart, aEnd)
// ranges. After Build returns, nothing ever mutates a Tree — every
// method on it is read-only — so one Tree can serve any number of
// concurrent joins. Probe owns everything a single join writes: the B
// assignments (a flat CSR over the dense node ids), the worker count,
// the local-join scratch buffers and the transient memory high-water
// marks. Each concurrent join needs its own Probe (and its own
// stats.Counters and Sink); a Probe is reusable across sequential joins
// and recycles all of its buffers, so steady-state serving allocates
// near zero.
//
// # Flat layout invariant
//
// After Build, all A objects live in one contiguous arena slice — the
// one STR ordered them into, never copied — leaf by leaf in tree (DFS)
// order: every node's subtree covers exactly
// the half-open arena range [aStart, aEnd), leaves included, so local
// joins read their A objects as a zero-copy slice view instead of
// re-walking the subtree. Leaf Entries slices alias the arena; nothing
// may reorder the arena after Build (local joins that need a different
// order, e.g. the plane-sweep, must copy first — B objects live in the
// probe's private CSR and may be reordered freely). One walk stamps
// every node's dense id in DFS pre-order, so ascending node ids are the
// sequential processing order and a Probe can address per-node B
// segments by id without touching the shared nodes.
//
// Under every leaf sits a block directory: one MBR per leafBlock
// consecutive arena objects of the leaf, so a single probe — a range
// query, a kNN search, a small join's probe task — opens a stretch of a
// bucket instead of all of it. The blocks need no sort of their own: a
// leaf's stretch is in the order of the last sort STR applied to it (the
// last dimension, for a bucket cut from a full tile), so consecutive
// objects are neighbours along that dimension; a dataset that fits one
// bucket is never sorted and its blocks are only as tight as its input
// order. The order decides how much the directory prunes, never what a
// query answers. The directory is derived state: one arena pass at the
// end of Build fills it, Thaw rebuilds it over whatever order the frozen
// arena holds, and it is never serialized.
//
// The same pass lays out the probe table, the form of the hierarchy the
// single-probe queries read: one 64-byte entry per node, in the node
// table's DFS pre-order, holding the node's MBR, its arena range, its
// first block and the id of the first node after its subtree. A pre-order
// walk that skips a subtree by jumping there needs no stack and follows no
// pointer — a range query is one forward pass over the table, a kNN search
// reads a node's children as the entries at i+1, skip, skip, … (probeEntry).
//
// Both the assignment and join phases run in parallel when the probe's
// worker count is > 1; results and counters are identical to the
// single-threaded execution (the emission order of pairs may differ).
package core

import (
	"slices"
	"time"

	"touch/internal/geom"
	"touch/internal/stats"
	"touch/internal/str"
)

// Default parameter values from the paper's experimental setup (§6.1):
// fanout 2, 1024 partitions, 500 grid cells per dimension for the local
// join.
const (
	DefaultFanout     = 2
	DefaultPartitions = 1024
	DefaultLocalCells = 500
	// DefaultCellFactor keeps local-join cells "considerably larger than
	// the average size of the objects" (§5.2.2): cell side >= factor ×
	// average object extent.
	DefaultCellFactor = 2.0
)

// leafBlock is how many consecutive arena objects of a leaf share one MBR
// in the block directory. The paper's 1,024 buckets are sized for joins
// that stream whole datasets; a single probe wants to open less than a
// bucket. 32 measured no better end to end than 64 and costs twice the
// heap.
const leafBlock = 64

// Config carries TOUCH's tunable parameters (§5.2).
type Config struct {
	// Partitions is the number of STR buckets dataset A is grouped into
	// (the leaves of the tree). Default 1024.
	Partitions int
	// Fanout is the number of children per inner node. Smaller fanouts
	// make the tree higher, distributing B objects over more levels and
	// reducing comparisons (§5.2.1). Default 2.
	Fanout int
	// LocalCells caps the local-join grid resolution per dimension.
	// Default 500.
	LocalCells int
	// CellFactor scales the coarsest local-join cell side relative to the
	// mean object extent within the node; the local join halves that side
	// up to four times while its estimated work drops (localGrid).
	// Default 2.
	CellFactor float64
	// LocalJoin selects the local-join strategy (Algorithm 4 variants);
	// the zero value is the grid with pre-test deduplication. See
	// LocalJoinKind for the ablation alternatives.
	LocalJoin LocalJoinKind
	// Workers is the default number of goroutines the assignment and
	// join phases of a probe use (0 or 1 = single-threaded, the paper's
	// setting). It seeds Probe.SetWorkers; each probe may override it
	// per query. Unlike the slab driver in internal/parallel, intra-TOUCH
	// parallelism needs no object replication or boundary-ownership
	// filtering: B is sharded across workers for assignment and tree
	// nodes are dispatched to a worker pool for the join.
	Workers int
}

func (c *Config) fillDefaults() {
	if c.Partitions <= 0 {
		c.Partitions = DefaultPartitions
	}
	if c.Fanout <= 0 {
		c.Fanout = DefaultFanout
	}
	if c.Fanout == 1 {
		panic("core: fanout 1 would never converge to a root")
	}
	if c.LocalCells <= 0 {
		c.LocalCells = DefaultLocalCells
	}
	if c.CellFactor <= 0 {
		c.CellFactor = DefaultCellFactor
	}
}

// Node is one node of the TOUCH partitioning tree. Leaves reference
// objects of dataset A (Entries). Nodes are immutable after Build; the
// B objects a join assigns to a node live in that join's Probe, keyed
// by the node's dense id.
type Node struct {
	MBR      geom.Box
	Children []*Node
	Entries  []geom.Object // A objects; leaves only, aliasing the tree arena

	// blocks is the leaf's stretch of the block directory: blocks[i] is
	// the MBR of Entries[i*leafBlock : (i+1)*leafBlock]. A leaf of at most
	// leafBlock objects has one block, equal to its own MBR; an empty leaf
	// has none. Leaves only, aliasing Tree.blocks.
	blocks []geom.Box

	// [aStart, aEnd) is the subtree's range in the tree arena (see the
	// flat layout invariant in the package comment).
	aStart, aEnd int32

	// id is the node's dense index in Tree.nodes, stamped in DFS
	// pre-order; probes use it to address per-node B segments.
	id int32

	// extSumA is the subtree's summed mean box extent, maintained at
	// build time together with the arena range to size the local-join
	// grid.
	extSumA float64
}

// Leaf reports whether the node is a leaf of the tree.
func (n *Node) Leaf() bool { return len(n.Children) == 0 }

// aCount returns the number of A objects below the node.
func (n *Node) aCount() int { return int(n.aEnd - n.aStart) }

// Tree is the hierarchical data-oriented partitioning built on dataset
// A. It is immutable after Build: every method is read-only, so a single
// Tree safely serves concurrent probes.
type Tree struct {
	Root   *Node
	Height int // nodes on the longest root-to-leaf path, 1 = single leaf
	Nodes  int
	Leaves int
	SizeA  int // objects indexed
	cfg    Config

	// nodes indexes every node by its dense id, in DFS pre-order.
	nodes []*Node

	// arena holds all A objects contiguously, ordered leaf by leaf in
	// DFS order, which is STR's output order; node [aStart, aEnd) ranges
	// index into it.
	arena []geom.Object

	// blocks is the block directory of all leaves, in arena order (see
	// Node.blocks and index).
	blocks []geom.Box

	// table is the probe table, entry i describing nodes[i] (see
	// probeEntry and index).
	table []probeEntry
}

// probeEntry is one node as the single-probe queries see it: everything
// a range walk or a kNN search reads about the node in one cache line, at
// the node's dense id. The entries of a subtree are the contiguous run
// [i, skip), so skip is where a walk continues once node i is pruned or
// emitted whole, the children of an inner node are the entries i+1,
// table[i+1].skip, … up to skip, and a leaf is an entry whose skip is
// i+1. Derived like the block directory, never serialized.
type probeEntry struct {
	mbr          geom.Box
	skip         int32 // id of the first node after the subtree
	aStart, aEnd int32 // the subtree's arena range
	block        int32 // index in Tree.blocks of the subtree's first block
}

// leaf reports whether entry i of the probe table, e, is a leaf.
func (e *probeEntry) leaf(i int32) bool { return e.skip == i+1 }

// Workers returns the tree's default worker count, the one probes start
// with (Probe.SetWorkers overrides it per query).
func (t *Tree) Workers() int { return t.cfg.Workers }

// Config returns the configuration the tree was built with (defaults
// filled in), so a snapshot can reproduce the exact tree on reload.
func (t *Tree) Config() Config { return t.cfg }

// MaxID returns the largest object ID the tree indexes, -1 when it is
// empty. One scan of the arena; callers that need it often keep it.
func (t *Tree) MaxID() geom.ID {
	maxID := geom.ID(-1)
	for i := range t.arena {
		maxID = max(maxID, t.arena[i].ID)
	}
	return maxID
}

// subtreeA returns the A objects of the node's descendant leaves as a
// zero-copy view into the arena.
func (t *Tree) subtreeA(n *Node) []geom.Object {
	return t.arena[n.aStart:n.aEnd:n.aEnd]
}

// Build runs the tree-building phase on dataset A: Algorithm 2's leaves,
// and above them the grouping along STR's cuts the package comment
// describes. An empty dataset produces a single empty leaf. Build is a
// pure function of the dataset and the configuration.
func Build(a geom.Dataset, cfg Config) *Tree {
	cfg.fillDefaults()
	t := &Tree{SizeA: len(a), cfg: cfg}
	if len(a) == 0 {
		t.Root = &Node{MBR: geom.EmptyBox()}
		t.Height, t.Nodes, t.Leaves = 1, 1, 1
		t.number()
		return t
	}
	bucketSize := str.GroupSizeFor(len(a), cfg.Partitions)
	arena, stages := str.PackStages(a, func(o geom.Object) geom.Point { return o.Box.Center() }, bucketSize)
	t.arena = arena
	// The buckets are the runs of STR's last cut.
	buckets := stages[len(stages)-1]
	level := make([]*Node, len(buckets)-1)
	for i := range level {
		start, end := buckets[i], buckets[i+1]
		n := &Node{Entries: arena[start:end:end], MBR: geom.EmptyBox(), aStart: start, aEnd: end}
		for j := range n.Entries {
			b := &n.Entries[j].Box
			n.MBR.Extend(b)
			for d := 0; d < geom.Dims; d++ {
				n.extSumA += b.Extent(d)
			}
		}
		n.extSumA /= geom.Dims
		level[i] = n
	}
	t.Leaves = len(level)
	t.Nodes = len(level)
	// Collapse the cuts above it innermost first: the tiles of a run become
	// one node, then the runs of a slab, then the slabs. A cut lists its
	// runs by the arena offset they begin at, which is how each finds its
	// children in the level below.
	for d := len(stages) - 2; d >= 0; d-- {
		runs := stages[d]
		next := make([]*Node, len(runs)-1)
		lo := 0
		for r := range next {
			hi := lo + 1
			for hi < len(level) && level[hi].aStart < runs[r+1] {
				hi++
			}
			next[r] = t.nest(level[lo:hi])
			lo = hi
		}
		level = next
	}
	t.Root = t.nest(level)
	t.Height = measureHeight(t.Root)
	t.number()
	return t
}

// nest returns one node over the consecutive siblings ns, which ascend
// along the dimension their run was cut in: ns itself when it is one
// node, a parent of all of them when the fanout allows, and otherwise a
// parent of Fanout near-equal consecutive parts, each nested the same
// way. Every inner node so has between two and Fanout children, and its
// children are separated along one dimension.
func (t *Tree) nest(ns []*Node) *Node {
	if len(ns) == 1 {
		return ns[0]
	}
	n := &Node{MBR: geom.EmptyBox()}
	if f := t.cfg.Fanout; len(ns) <= f {
		n.Children = slices.Clone(ns)
	} else {
		n.Children = make([]*Node, f)
		for i := range n.Children {
			n.Children[i] = t.nest(ns[i*len(ns)/f : (i+1)*len(ns)/f])
		}
	}
	for _, ch := range n.Children {
		n.MBR.Extend(&ch.MBR)
		n.extSumA += ch.extSumA
	}
	n.aStart, n.aEnd = n.Children[0].aStart, n.Children[len(n.Children)-1].aEnd
	t.Nodes++
	return n
}

// number stamps every node's dense id in DFS pre-order and fills the
// id → node table. Children are consecutive stretches of the arena, so
// that is also arena order — the flat layout invariant — and the derived
// state is laid over it.
func (t *Tree) number() {
	t.nodes = make([]*Node, 0, t.Nodes)
	var walk func(n *Node)
	walk = func(n *Node) {
		n.id = int32(len(t.nodes))
		t.nodes = append(t.nodes, n)
		for _, ch := range n.Children {
			walk(ch)
		}
	}
	walk(t.Root)
	t.index()
}

// index derives the block directory and the probe table from the arena
// and the node table as they stand: one pass over each, one exactly sized
// allocation each. A block's MBR is the union of its objects in arena
// order, the way Build unions a leaf's.
func (t *Tree) index() {
	t.table = make([]probeEntry, len(t.nodes))
	total := int32(0)
	// Last node first: an inner node's subtree ends where its last
	// child's does, and children follow their parent.
	for i := len(t.nodes) - 1; i >= 0; i-- {
		n, e := t.nodes[i], &t.table[i]
		e.mbr, e.aStart, e.aEnd = n.MBR, n.aStart, n.aEnd
		e.skip = int32(i + 1)
		if n.Leaf() {
			total += e.blocks()
		} else {
			e.skip = t.table[n.Children[len(n.Children)-1].id].skip
		}
	}
	t.blocks = make([]geom.Box, 0, total)
	for i, n := range t.nodes {
		e := &t.table[i]
		e.block = int32(len(t.blocks))
		if !n.Leaf() {
			continue
		}
		for bi := int32(0); bi < e.blocks(); bi++ {
			es := t.block(e, bi)
			mbr := geom.EmptyBox()
			for j := range es {
				mbr.Extend(&es[j].Box)
			}
			t.blocks = append(t.blocks, mbr)
		}
		n.blocks = t.blocks[e.block:len(t.blocks):len(t.blocks)]
	}
}

// AssignOne places one box of dataset B in the tree following Algorithm 3
// and returns the dense id of the node it was assigned to, or -1 when the
// box was filtered (it overlaps no MBR and therefore cannot intersect any
// object of A). Child-MBR tests are charged to c.NodeTests.
func (t *Tree) AssignOne(b *geom.Box, c *stats.Counters) int32 {
	p := t.Root
	c.NodeTests++
	if !p.MBR.Meets(b) {
		return -1
	}
	for !p.Leaf() {
		var hit *Node
		multi := false
		for _, ch := range p.Children {
			c.NodeTests++
			if ch.MBR.Meets(b) {
				if hit != nil {
					multi = true
					break
				}
				hit = ch
			}
		}
		if hit == nil {
			// Inside p's MBR but in dead space between the children.
			return -1
		}
		if multi {
			break
		}
		p = hit
	}
	return p.id
}

// StaticBytes is the analytic footprint of the immutable build artifact:
// the tree structure plus the A references in the buckets ("the buckets
// constructed based on dataset A in addition to the tree", §6.4), plus
// one MBR per block of the leaves' block directory and one probe table
// entry per node. The per-query side — assigned B references and the
// transient local-join grid — is accounted by Probe.MemoryBytes.
func (t *Tree) StaticBytes() int64 {
	return int64(t.Nodes)*(stats.BytesPerNode+bytesPerProbeEntry) + int64(t.SizeA)*stats.BytesPerRef +
		int64(len(t.blocks))*stats.BytesPerBox
}

// bytesPerProbeEntry is the size of one probeEntry: an MBR and four
// int32s, one cache line.
const bytesPerProbeEntry = stats.BytesPerBox + 4*4

// Join runs all three TOUCH phases: build the tree on a, assign b via a
// fresh probe, join. Phase timings land in c.BuildTime / c.AssignTime /
// c.JoinTime and the analytic footprint in c.MemoryBytes. ctl (which may
// be nil) is the cooperative abort signal polled throughout the
// assignment and join phases; a stopped join unwinds with partial
// counters.
func Join(a, b geom.Dataset, cfg Config, ctl *stats.Control, c *stats.Counters, sink stats.Sink) {
	start := time.Now()
	t := Build(a, cfg)
	c.BuildTime += time.Since(start)
	p := t.NewProbe()

	start = time.Now()
	p.Assign(b, ctl, c)
	c.AssignTime += time.Since(start)

	start = time.Now()
	p.JoinPhase(ctl, c, sink)
	c.JoinTime += time.Since(start)
	c.MemoryBytes += t.StaticBytes() + p.MemoryBytes()
}
