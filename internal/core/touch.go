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
// The tree is a table: one 64-byte entry per node (entry), in DFS
// pre-order, the root first, so a node's dense id is its index, the
// entries of its subtree are the run that follows it, and every entry
// holds the id of the first node after that run. Nothing points at
// anything. A pre-order walk that skips a subtree by jumping there needs
// no stack — a range query is one forward pass over the table — and every
// other reader finds a node's children as the entries at i+1, skip, skip,
// …: the assignment descent, the join's filter descent, a kNN search,
// Levels, Freeze and Thaw's check. Build appends the entries in that order
// and Thaw writes them in one pass over the frozen nodes; ascending node
// ids are the sequential processing order, and a Probe addresses per-node
// B segments by id without touching the shared tree.
//
// All A objects live in one contiguous arena slice — the one STR ordered
// them into, never copied — leaf by leaf in the same order: every node's
// subtree covers exactly the half-open arena range [aStart, aEnd), leaves
// included, so local joins read their A objects as a zero-copy slice view
// instead of re-walking the subtree. Nothing may reorder the arena after
// Build (local joins that need a different order, e.g. the plane-sweep,
// must copy first — B objects live in the probe's private CSR and may be
// reordered freely).
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

// Tree is the hierarchical data-oriented partitioning built on dataset
// A. It is immutable after Build: every method is read-only, so a single
// Tree safely serves concurrent probes.
type Tree struct {
	Height int // nodes on the longest root-to-leaf path, 1 = single leaf
	Nodes  int
	Leaves int
	SizeA  int // objects indexed
	cfg    Config

	// arena holds all A objects contiguously, ordered leaf by leaf in
	// DFS order, which is STR's output order; node [aStart, aEnd) ranges
	// index into it.
	arena []geom.Object

	// table is the hierarchy: one entry per node at the node's dense id,
	// in DFS pre-order, the root first (see entry).
	table []entry

	// extSum[i] is the summed mean box extent of the A objects below node
	// i, kept beside the table because only the local-join grid sizing and
	// the snapshot read it.
	extSum []float64

	// blocks is the block directory of all leaves, in arena order: the
	// blocks of the leaf entry e are blocks[e.block : e.block+e.blocks()],
	// block bi the MBR of the leaf's objects [bi*leafBlock,
	// (bi+1)*leafBlock). A leaf of at most leafBlock objects has one
	// block, equal to its own MBR; an empty leaf has none.
	blocks []geom.Box
}

// entry is one node of the tree: everything an assignment, a join's
// filter descent, a range walk or a kNN search reads about it, in one
// cache line at the node's dense id. The entries of a subtree are the
// contiguous run [i, skip), so skip is where a walk continues once node i
// is pruned or emitted whole, the children of an inner node are the
// entries i+1, table[i+1].skip, … up to skip, and a leaf is an entry whose
// skip is i+1. Nodes are immutable after Build; the B objects a join
// assigns to a node live in that join's Probe, keyed by the id.
type entry struct {
	mbr          geom.Box
	skip         int32 // id of the first node after the subtree
	aStart, aEnd int32 // the subtree's arena range
	block        int32 // index in Tree.blocks of the subtree's first block
}

// leaf reports whether entry i of the table, e, is a leaf.
func (e *entry) leaf(i int32) bool { return e.skip == i+1 }

// aCount returns the number of A objects below the node.
func (e *entry) aCount() int { return int(e.aEnd - e.aStart) }

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

// subtreeA returns the A objects of node i's descendant leaves as a
// zero-copy view into the arena.
func (t *Tree) subtreeA(i int32) []geom.Object {
	e := &t.table[i]
	return t.arena[e.aStart:e.aEnd:e.aEnd]
}

// Build runs the tree-building phase on dataset A: Algorithm 2's leaves,
// and above them the grouping along STR's cuts the package comment
// describes. An empty dataset produces a single empty leaf. Build is a
// pure function of the dataset and the configuration.
func Build(a geom.Dataset, cfg Config) *Tree {
	cfg.fillDefaults()
	t := &Tree{SizeA: len(a), cfg: cfg}
	if len(a) == 0 {
		t.table, t.extSum = []entry{{mbr: geom.EmptyBox(), skip: 1}}, []float64{0}
		t.Height, t.Nodes, t.Leaves = 1, 1, 1
		return t
	}
	bucketSize := str.GroupSizeFor(len(a), cfg.Partitions)
	arena, stages := str.PackStages(a, func(o geom.Object) geom.Point { return o.Box.Center() }, bucketSize)
	t.arena = arena
	// The buckets are the runs of STR's last cut, and a tree has the most
	// nodes for its leaves when every inner node has two children.
	t.Leaves = len(stages[geom.Dims-1]) - 1
	t.table = make([]entry, 0, 2*t.Leaves-1)
	t.extSum = make([]float64, 0, 2*t.Leaves-1)
	t.nest(&stages, 0, 0, len(stages[0])-1, 1)
	if t.Nodes = len(t.table); t.Nodes < cap(t.table) {
		// A wider fanout made fewer: the tree holds on to what it counts.
		t.table = append(make([]entry, 0, t.Nodes), t.table...)
		t.extSum = append(make([]float64, 0, t.Nodes), t.extSum...)
	}
	t.index()
	return t
}

// nest appends, in DFS pre-order, one subtree over the consecutive runs
// [lo, hi) of STR's cut along dimension d, which ascend along it: the run
// itself when it is one, a parent of all of them when the fanout allows,
// and otherwise a parent of Fanout near-equal consecutive parts, each
// nested the same way. A run of the last cut is a bucket, a leaf; a run of
// any other is the runs of the next cut it was cut into, nested — the
// tiles of a run collapse into one node, the runs of a slab, the slabs.
// Every inner node so has between two and Fanout children, separated along
// one dimension. A parent's slot is taken before its children's and filled
// once they are: its subtree ends where the table does then, and its MBR
// and extent sum are theirs (derive). depth counts the nodes from the root
// down to the subtree's.
func (t *Tree) nest(stages *str.Stages, d, lo, hi, depth int) {
	runs := stages[d]
	if hi-lo == 1 && d < geom.Dims-1 {
		// A cut lists its runs by the arena offset they begin at, which is
		// how a run finds the runs it was cut into.
		first, _ := slices.BinarySearch(stages[d+1], runs[lo])
		end, _ := slices.BinarySearch(stages[d+1], runs[hi])
		t.nest(stages, d+1, first, end, depth)
		return
	}
	id := int32(len(t.table))
	t.table = append(t.table, entry{skip: id + 1, aStart: runs[lo], aEnd: runs[hi]})
	t.extSum = append(t.extSum, 0)
	t.Height = max(t.Height, depth)
	if n := hi - lo; n > 1 {
		parts := min(n, t.cfg.Fanout)
		for i := 0; i < parts; i++ {
			t.nest(stages, d, lo+i*n/parts, lo+(i+1)*n/parts, depth+1)
		}
		t.table[id].skip = int32(len(t.table))
	}
	t.table[id].mbr, t.extSum[id] = t.derive(id)
}

// derive computes node i's MBR and extent sum from what lies below it: a
// leaf's from its arena objects, an inner node's from the stored values
// of its children, both in order. Build fills the table with it and Thaw
// checks a frozen one against it, so the two agree bit for bit.
func (t *Tree) derive(i int32) (geom.Box, float64) {
	e := &t.table[i]
	mbr, ext := geom.EmptyBox(), 0.0
	if !e.leaf(i) {
		for ch := i + 1; ch < e.skip; ch = t.table[ch].skip {
			mbr.Extend(&t.table[ch].mbr)
			ext += t.extSum[ch]
		}
		return mbr, ext
	}
	es := t.arena[e.aStart:e.aEnd]
	for j := range es {
		b := &es[j].Box
		mbr.Extend(b)
		for d := 0; d < geom.Dims; d++ {
			ext += b.Extent(d)
		}
	}
	return mbr, ext / geom.Dims
}

// index derives the block directory from the arena and the table as they
// stand: one pass over each, one exactly sized allocation. A block's MBR
// is the union of its objects in arena order, the way derive unions a
// leaf's.
func (t *Tree) index() {
	total := int32(0)
	for i := range t.table {
		e := &t.table[i]
		e.block = total
		if e.leaf(int32(i)) {
			total += e.blocks()
		}
	}
	t.blocks = make([]geom.Box, 0, total)
	for i := range t.table {
		e := &t.table[i]
		if !e.leaf(int32(i)) {
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
	}
}

// AssignOne places one box of dataset B in the tree following Algorithm 3
// and returns the dense id of the node it was assigned to, or -1 when the
// box was filtered (it overlaps no MBR and therefore cannot intersect any
// object of A). Child-MBR tests are charged to c.NodeTests.
func (t *Tree) AssignOne(b *geom.Box, c *stats.Counters) int32 {
	tab := t.table
	c.NodeTests++
	if !tab[0].mbr.Meets(b) {
		return -1
	}
	p := int32(0)
	for !tab[p].leaf(p) {
		hit := int32(-1)
		for ch, end := p+1, tab[p].skip; ch < end; ch = tab[ch].skip {
			c.NodeTests++
			if tab[ch].mbr.Meets(b) {
				if hit >= 0 {
					// It meets two children: it stays at p.
					return p
				}
				hit = ch
			}
		}
		if hit < 0 {
			// Inside p's MBR but in dead space between the children.
			return -1
		}
		p = hit
	}
	return p
}

// StaticBytes is the analytic footprint of the immutable build artifact:
// the tree — one table entry and one extent sum per node — plus the A
// references in the buckets ("the buckets constructed based on dataset A
// in addition to the tree", §6.4), plus one MBR per block of the leaves'
// block directory. The per-query side — assigned B references and the
// transient local-join grid — is accounted by Probe.MemoryBytes.
func (t *Tree) StaticBytes() int64 {
	return int64(t.Nodes)*(bytesPerEntry+8) + int64(t.SizeA)*stats.BytesPerRef +
		int64(len(t.blocks))*stats.BytesPerBox
}

// bytesPerEntry is the size of one entry: an MBR and four int32s, one
// cache line.
const bytesPerEntry = stats.BytesPerBox + 4*4

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
