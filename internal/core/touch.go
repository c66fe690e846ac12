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
//     Algorithm 3's answer, not its walk: in a tree that nests, the
//     descent from the root would run the tree's height for most
//     objects, at one hard-to-predict branch per level, so a box that
//     lies in one cell of the tree's cell table over the root starts at
//     the node where the descent of that cell's box stops (cellTable),
//     which gives it the same destination with about half the tests.
//  3. Join — each node holding B objects is joined against the A objects
//     in its descendant leaves through an equi-width grid local join
//     (Algorithm 4) with reference-point duplicate avoidance. The work
//     follows what can match on both sides of the pair: the node's B
//     objects are first filtered down its subtree — into the leaves'
//     blocks, when few are left — so only the stretches of the arena some
//     B object can reach are probed (probeTasks), and
//     the cell side is the cheapest, by estimated work, of the paper's
//     and its four halvings (localGrid). A stretch one B object reaches
//     alone, most of a small probe's, is a range scan against that box,
//     and a node with no other builds no grid (joinTask, taskGrid).
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
// assignments (a flat CSR of input indexes over the dense node ids), the
// worker count, the local-join scratch buffers and the transient memory
// high-water marks. It copies nothing of B: each local join gathers its
// node's objects into the calling worker's scratch, and the probe lets
// go of B when its join phase returns. Each concurrent join needs its
// own Probe (and its own stats.Counters and Sink); a Probe is reusable
// across sequential joins and recycles all of its buffers, so a warm
// probe's assignment and join allocate nothing.
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
// All A objects live in one arena of two columns: boxes, 48 bytes an
// object, and IDs, 4, one slice each and the same order — the order STR
// packed them in, gathered once from the input by its permutation, and
// leaf by leaf in the table's order. An object is its index in both: no
// padding sits between an ID and its box, and a reader loads only the
// column it needs — a box test the boxes, an answer the IDs, copied
// whole from a covered subtree or block. Every node's subtree covers
// exactly the half-open arena range [aStart, aEnd), leaves included, so
// local joins and probes read their A objects as zero-copy views of the
// two columns over that range instead of re-walking the subtree. Nothing
// may reorder the arena after Build (local joins that need a different
// order, e.g. the plane-sweep, must copy first — a node's B objects are
// gathered into worker scratch and may be reordered freely).
//
// Under every leaf sits a block directory: one MBR per leafBlock
// consecutive arena objects of the leaf, so a single probe — a range
// query, a kNN search, a small join's probe task — opens a stretch of a
// bucket instead of all of it. The blocks need no sort of their own: a
// leaf's stretch is in the order of the last sort STR applied to it (the
// last dimension, for a bucket cut from a full tile), so consecutive
// objects are neighbours along that dimension; a dataset that fits one
// bucket is never sorted and its blocks are only as tight as its input
// order. The directory also bounds each block's z window (zWindow): in a
// block whose objects ascend by z centre, the objects that can meet a
// lone probe box along z — a range query's, or a join's lone task's — are
// one run of it, which the directory finds
// without reading an arena object outside that run. The order decides
// how much the directory prunes and what a join reads, never what a query
// or a join answers: a block not in z-centre order keeps no window and is
// read whole. The directory, windows included, is derived state: one
// arena pass at the end of Build fills it, Thaw rebuilds it over whatever
// order the frozen arena holds, and it is never serialized.
//
// Both the assignment and join phases run in parallel when the probe's
// worker count is > 1; results and counters are identical to the
// single-threaded execution (the emission order of pairs may differ).
package core

import (
	"math"
	"runtime"
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

// TierBucket caps the objects per bucket of a tier above a tiered
// index's base. Single probes and joins both read such a tier (a join
// over a tiered index probes every tier in turn), but the base's
// join-sized buckets (≈196 objects at 200K) leave a single read scanning
// most of a leaf for a few hits. On the serve_mixed update schedule
// replayed over a 200K base (TestOverlayTailReadCounts), 32 halves the
// upper tiers' comparisons per read — range 94.1 → 45.5, kNN 142.6 → 70.3
// — for a fifth more node tests (34.8 → 43.6, 29.9 → 35.3); 64 left them
// at 64.7 and 136.2. A join of 2,048 boxes at ε = 5 tests more pairs in
// the upper tiers (2,920 → 3,275) and as many nodes (70.8K → 71.0K), yet
// its pass over them runs in 1.9 ms where it took 2.6 (2 vCPUs).
const TierBucket = 32

// zStride is how many consecutive objects of a block one key of its z
// window stands for (zWindow). On the benchmark's serve_read workload (2
// vCPUs, go1.24, six rotating runs each), strides 1, 4 and 8 read
// wire_join_p50_ms medians of 4.26, 4.10 and 4.21 ms: 1 and 4 the same,
// 8 worse, and 1 costs 1.5 MB more heap. 4 keeps a block's keys in 16
// bytes.
const zStride = 4

// zWindow is one block's z window: what a lone probe box needs to find
// the run of the block's objects that can meet it along z, without
// reading an object outside that run. It holds for a block whose objects
// ascend by z centre c = (Min[2]+Max[2])/2, as a leaf's do after STR's
// last sort:
//
//   - half bounds every object's z half extent from above, in floating
//     point: Min[2] + half >= c and Max[2] - half <= c for each one. A box
//     q then meets an object along z only if the object's c lies in
//     [q.Min[2] - half, q.Max[2] + half] as computed, since both bounds
//     are monotone in the corner they add half to. It is +Inf for a block
//     not in z-centre order, or with a centre that is not finite; such a
//     block is read whole.
//   - keys[i] is zKey of the centre of the block's object i*zStride, on
//     the z range of the block's MBR; the slots past a partial block's
//     last object hold 255. zKey is monotone, so the keys ascend, and an
//     object whose key is below the window's lower bound's, or above its
//     upper bound's, lies outside the window.
type zWindow struct {
	half float64
	keys [leafBlock / zStride]uint8
}

// zScale is the factor zKey maps a block's z range [Min[2], Max[2]] onto
// [0, 256) with: 0, every key 0, when the range is empty or not finite.
func zScale(mbr *geom.Box) float64 {
	if r := mbr.Max[2] - mbr.Min[2]; r > 0 {
		return 256 / r
	}
	return 0
}

// zKey is z's key on a block's z range from lo, scaled by scale (zScale):
// the floor of (z-lo)·scale, clamped to [0, 255]. Both arithmetic steps
// round monotonically, and each value the product takes without a number
// (0·Inf, Inf·0) sits where the clamp would put it anyway, so zKey never
// decreases as z grows.
func zKey(z, lo, scale float64) uint8 {
	switch f := (z - lo) * scale; {
	case !(f > 0):
		return 0
	case f >= 255:
		return 255
	default:
		return uint8(f)
	}
}

// zRun returns the run [lo, hi) of block bi's n objects, as offsets from
// its first, outside which no object meets q along z. It reads the
// block's MBR and window and no object. A window whose bounds are not
// ordered — a NaN corner, or +Inf minus +Inf — is the whole block.
func (t *Tree) zRun(bi, n int32, q *geom.Box) (lo, hi int32) {
	w := &t.windows[bi]
	zlo, zhi := q.Min[2]-w.half, q.Max[2]+w.half
	if !(zlo <= zhi) {
		return 0, n
	}
	mbr := &t.blocks[bi]
	scale := zScale(mbr)
	klo, khi := zKey(zlo, mbr.Min[2], scale), zKey(zhi, mbr.Min[2], scale)
	// The first key at or above klo: every object up to the key before it
	// is below the window. It is one of the first keys that hold objects,
	// since the rest hold 255, so lo <= n. Then the first key above khi:
	// it and every object after it are above.
	i := int32(0)
	for ; i < int32(len(w.keys)) && w.keys[i] < klo; i++ {
	}
	if i > 0 {
		lo = (i-1)*zStride + 1
	}
	for ; i < int32(len(w.keys)) && w.keys[i] <= khi; i++ {
	}
	return lo, min(i*zStride, n)
}

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

	// boxes and ids are the arena, all A objects in two columns of one
	// order: object i's box is boxes[i] and its ID ids[i]. The order is
	// leaf by leaf in DFS order, which is STR's output order; node
	// [aStart, aEnd) ranges index into both.
	boxes []geom.Box
	ids   []geom.ID

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
	// windows[bi] is block bi's z window (zWindow).
	windows []zWindow
	// cells sends a B box to the node its descent passes (cellTable); nil
	// for a tree that keeps none.
	cells *cellTable
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

// Config returns the configuration the tree was built with (defaults
// filled in), so a snapshot can reproduce the exact tree on reload.
func (t *Tree) Config() Config { return t.cfg }

// Arena returns the indexed objects as the tree holds them, in two
// columns of one order, leaf by leaf in DFS order — STR's order, not ID
// order: object i's box is boxes[i] and its ID ids[i]. Read-only: they
// are the tree's own storage, and the only copy of its objects a served
// tier keeps.
func (t *Tree) Arena() (boxes []geom.Box, ids []geom.ID) { return t.boxes, t.ids }

// span returns the arena range [lo, hi) as zero-copy views of its two
// columns.
func (t *Tree) span(lo, hi int32) ([]geom.Box, []geom.ID) {
	return t.boxes[lo:hi:hi], t.ids[lo:hi:hi]
}

// Build runs the tree-building phase on dataset A: Algorithm 2's leaves,
// and above them the grouping along STR's cuts the package comment
// describes. An empty dataset produces a single empty leaf. Build is a
// pure function of the dataset and the configuration: it builds on
// runtime.GOMAXPROCS(0) goroutines above the parallel floor
// (BuildExpanded), and the tree is bit for bit the same at any count.
func Build(a geom.Dataset, cfg Config) *Tree { return BuildExpanded(a, 0, cfg, runtime.GOMAXPROCS(0)) }

// BuildExpanded is Build over a with every box enlarged by eps
// (geom.Box.Expand), without copying a: STR sorts by the centres of the
// grown boxes, and the boxes are grown as the arena is gathered in STR's
// order, into the tree's own two columns — so the tree is bit for bit
// Build(a.Expand(eps)). eps = 0 is Build, with no arithmetic on the
// boxes.
//
// The build runs on up to workers goroutines, and on one (also for
// workers ≤ 1) below the parallel floor: STR's pack (str.PackStages), the
// gather of the arena and the block directory each split their objects
// into consecutive ranges, at most one range a goroutine per buildFloor
// objects. The tree is bit for bit the same whatever the count.
func BuildExpanded(a geom.Dataset, eps float64, cfg Config, workers int) *Tree {
	cfg.fillDefaults()
	t := &Tree{SizeA: len(a), cfg: cfg}
	if len(a) == 0 {
		t.table, t.extSum = []entry{{mbr: geom.EmptyBox(), skip: 1}}, []float64{0}
		t.Height, t.Nodes, t.Leaves = 1, 1, 1
		return t
	}
	workers = buildWorkers(workers, len(a))
	bucketSize := str.GroupSizeFor(len(a), cfg.Partitions)
	centre := func(o geom.Object) geom.Point { return o.Box.Center() }
	if eps != 0 {
		centre = func(o geom.Object) geom.Point { return o.Box.Expand(eps).Center() }
	}
	order, stages := str.PackStages(a, centre, bucketSize, workers)
	boxes, ids := make([]geom.Box, len(a)), make([]geom.ID, len(a))
	str.Spread(len(a), workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			o := &a[order[i]]
			boxes[i], ids[i] = o.Box, o.ID
			if eps != 0 {
				boxes[i].Grow(eps)
			}
		}
	})
	t.boxes, t.ids = boxes, ids
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
	t.index(workers)
	return t
}

// buildFloor is the parallel floor of a build: a build phase over n
// objects runs on at most n/buildFloor goroutines, so a tree of fewer
// than 2·buildFloor objects — a small tier, every fold of a served
// dataset under steady updates — builds on one. Measured with
// BuildExpanded on uniform boxes, default configuration, 2 vCPUs, one
// goroutine against two, medians of 9: 16K objects 4.0 / 3.4 ms, 64K
// 12.9 / 9.1, 128K 23.9 / 17.4, 256K 53 / 37, 500K 106 / 72. Two
// goroutines pay from the smallest size on, but below 2^17 objects they
// save under 4 ms and take that time from a core the serving tier is
// using, which a large load or a recovery saves tens of milliseconds for.
const buildFloor = 1 << 16

// buildWorkers clamps a build's worker count to [1, n/buildFloor].
func buildWorkers(workers, n int) int { return max(1, min(workers, n/buildFloor)) }

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
	boxes, _ := t.span(e.aStart, e.aEnd)
	for j := range boxes {
		b := &boxes[j]
		mbr.Extend(b)
		for d := 0; d < geom.Dims; d++ {
			ext += b.Extent(d)
		}
	}
	return mbr, ext / geom.Dims
}

// index derives the block directory and the cell table from the arena and
// the table as they stand: one pass over the table to place every leaf's
// blocks, one exactly sized allocation per slice, then the blocks'
// entries, the table split into consecutive ranges on up to workers
// goroutines, each writing only its own leaves' blocks; then the cells.
func (t *Tree) index(workers int) {
	total := int32(0)
	for i := range t.table {
		e := &t.table[i]
		e.block = total
		if e.leaf(int32(i)) {
			total += e.blocks()
		}
	}
	t.blocks = make([]geom.Box, total)
	t.windows = make([]zWindow, total)
	str.Spread(len(t.table), workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			e := &t.table[i]
			if !e.leaf(int32(i)) {
				continue
			}
			for bi := int32(0); bi < e.blocks(); bi++ {
				boxes, _ := t.block(e, bi)
				t.blocks[e.block+bi], t.windows[e.block+bi] = entries(boxes)
			}
		}
	})
	t.cells = t.buildCells()
}

// entries returns the directory's entries for the block of the boxes, in
// one pass over them: its MBR, the union of the boxes in arena order the
// way derive unions a leaf's, and its z window (zWindow). The window's
// half extent is stepped up, as delta's runs step theirs, until it
// reaches every object's centre from both of its corners in floating
// point; a non-finite centre, or one below its predecessor's, leaves the
// block without a window.
func entries(boxes []geom.Box) (geom.Box, zWindow) {
	mbr := geom.EmptyBox()
	var centres [leafBlock / zStride]float64
	half, prev, ordered := 0.0, math.Inf(-1), true
	for j := range boxes {
		b := &boxes[j]
		mbr.Extend(b)
		zlo, zhi := b.Min[2], b.Max[2]
		c := (zlo + zhi) / 2
		if ordered = ordered && c >= prev && !math.IsInf(c, 0); !ordered {
			continue
		}
		prev = c
		// A finite centre has finite corners, so the step ends at +Inf at
		// the latest.
		if d := c - zlo; d > half {
			half = d
		}
		if d := zhi - c; d > half {
			half = d
		}
		for !(zlo+half >= c && zhi-half <= c) {
			half = math.Nextafter(half, math.Inf(1))
		}
		if j%zStride == 0 {
			centres[j/zStride] = c
		}
	}
	if !ordered {
		return mbr, zWindow{half: math.Inf(1)}
	}
	w := zWindow{half: half}
	lo, scale := mbr.Min[2], zScale(&mbr)
	used := (len(boxes) + zStride - 1) / zStride
	for k := range w.keys {
		w.keys[k] = 255
		if k < used {
			w.keys[k] = zKey(centres[k], lo, scale)
		}
	}
	return mbr, w
}

// AssignOne places one box of dataset B in the tree following Algorithm 3
// and returns the dense id of the node it was assigned to, or -1 when the
// box was filtered (it overlaps no MBR and therefore cannot intersect any
// object of A). The descent starts where the tree's cell table sends the
// box (cellTable), which gives the root's answer. Child-MBR tests are
// charged to c.NodeTests.
func (t *Tree) AssignOne(b *geom.Box, c *stats.Counters) int32 {
	return t.descend(b, t.cells.start(b), c)
}

// descend is Algorithm 3's descent of b from node p: a test of p's MBR,
// then, until a leaf, one of each child's. p must be the root, or a node
// on the root's descent of b unless that descent dies above it; -1, when
// the root's descent of b dies, is the answer.
func (t *Tree) descend(b *geom.Box, p int32, c *stats.Counters) int32 {
	if p < 0 {
		return -1
	}
	tab := t.table
	c.NodeTests++
	if !tab[p].mbr.Meets(b) {
		return -1
	}
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
// in addition to the tree", §6.4), plus one MBR and one z window per
// block of the leaves' block directory, plus the cell table. The
// per-query side — assigned B references and the transient local-join
// grid — is accounted by Probe.MemoryBytes.
func (t *Tree) StaticBytes() int64 {
	return int64(t.Nodes)*(bytesPerEntry+8) + int64(t.SizeA)*stats.BytesPerRef +
		int64(len(t.blocks))*(stats.BytesPerBox+bytesPerWindow) + t.cells.bytes()
}

// bytesPerEntry is the size of one entry: an MBR and four int32s, one
// cache line.
const bytesPerEntry = stats.BytesPerBox + 4*4

// bytesPerWindow is the size of one zWindow: its half extent and its
// keys.
const bytesPerWindow = 8 + leafBlock/zStride

// Join runs all three TOUCH phases single-threaded: build the tree on a,
// assign b via a fresh probe, join. Phase timings land in c.BuildTime /
// c.AssignTime / c.JoinTime and the analytic footprint in
// c.MemoryBytes. ctl (which may be nil) is the cooperative abort signal
// polled throughout the assignment and join phases; a stopped join
// unwinds with partial counters.
func Join(a, b geom.Dataset, cfg Config, ctl *stats.Control, c *stats.Counters, sink stats.Sink) {
	JoinExpanded(a, 0, b, 0, cfg, 1, ctl, c, sink)
}

// JoinExpanded is Join of a with every box enlarged by epsA against b
// with every box enlarged by epsB, copying neither: the boxes are grown
// where the engine copies them anyway, in the tree's arena
// (BuildExpanded) and as each local join gathers its node's B objects
// (AssignExpanded). The build and the probe run with the given worker
// count (BuildExpanded, Probe.SetWorkers). Its pairs and counters are
// Join(a.Expand(epsA), b.Expand(epsB))'s.
func JoinExpanded(a geom.Dataset, epsA float64, b geom.Dataset, epsB float64, cfg Config, workers int, ctl *stats.Control, c *stats.Counters, sink stats.Sink) {
	start := time.Now()
	t := BuildExpanded(a, epsA, cfg, workers)
	c.BuildTime += time.Since(start)
	p := t.NewProbe()
	p.SetWorkers(workers)

	start = time.Now()
	p.AssignExpanded(b, epsB, ctl, c)
	c.AssignTime += time.Since(start)

	start = time.Now()
	p.JoinPhase(ctl, c, sink)
	c.JoinTime += time.Since(start)
	c.MemoryBytes += t.StaticBytes() + p.MemoryBytes()
}
