package core

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"touch/internal/geom"
)

// Freeze/Thaw turn the immutable build artifact into a flat, pointer-free
// form and back — the bridge between the in-memory Tree and the durable
// snapshot format of internal/snapshot. The flat layout invariant of the
// package comment makes this nearly free: the arena is already one
// contiguous slice and the node table is already dense DFS pre-order, so
// a frozen tree is the arena plus one fixed-size record per node, and
// thawing rebuilds the child pointers from the per-node child counts
// alone.
//
// Thaw trusts nothing: a frozen tree arrives from disk, where torn
// writes, bit flips and hostile edits are all possible, so every
// structural invariant Build establishes is re-checked — arena ranges,
// child-count consistency, recomputed MBRs and extent sums, height and
// leaf counts. A Frozen that passes Thaw is bit-equivalent to the tree a
// fresh Build of the same arena partitioning would produce — the derived
// block directory and probe table included, which Thaw rebuilds instead
// of reading; one that does not is rejected with an error, never a panic
// and never a tree that answers queries differently from its
// checksum-blessed bytes.

// FrozenNode is one node of a frozen tree, in DFS pre-order. Children
// is the direct child count — enough to rebuild the topology, because
// DFS pre-order means a node's children follow it immediately, each
// subtree contiguous.
type FrozenNode struct {
	MBR      geom.Box
	Children int32
	AStart   int32
	AEnd     int32
	ExtSumA  float64
}

// Frozen is the flat, pointer-free form of a Tree.
type Frozen struct {
	Cfg    Config
	Height int
	Leaves int
	// Arena holds the A objects leaf by leaf in DFS order; Nodes the
	// node table in DFS pre-order. Both alias the live tree when
	// produced by Freeze — callers serialize, they do not mutate.
	Arena []geom.Object
	Nodes []FrozenNode
}

// Freeze returns the tree's flat form. The arena and node slices alias
// the tree's own storage (the tree is immutable, so sharing is safe);
// Thaw copies out of the decoder's buffers on the way back in.
func (t *Tree) Freeze() *Frozen {
	f := &Frozen{
		Cfg:    t.cfg,
		Height: t.Height,
		Leaves: t.Leaves,
		Arena:  t.arena,
		Nodes:  make([]FrozenNode, len(t.nodes)),
	}
	for i, n := range t.nodes {
		f.Nodes[i] = FrozenNode{
			MBR:      n.MBR,
			Children: int32(len(n.Children)),
			AStart:   n.aStart,
			AEnd:     n.aEnd,
			ExtSumA:  n.extSumA,
		}
	}
	return f
}

// maxThawDepth bounds the reconstruction recursion. Build with fanout
// >= 2 produces heights logarithmic in the node count, so any genuine
// tree is far below this; a hostile chain of single-child nodes is
// rejected instead of unwinding a pathological stack.
const maxThawDepth = 64

// errCorrupt builds the uniform Thaw rejection error.
func errCorrupt(format string, args ...any) error {
	return fmt.Errorf("core: corrupt frozen tree: %s", fmt.Sprintf(format, args...))
}

// validateThawConfig re-checks the frozen configuration before
// fillDefaults sees it: fanout 1 would panic there, and non-finite
// tuning values would poison grid sizing at join time.
func validateThawConfig(cfg Config) error {
	if cfg.Fanout == 1 {
		return errCorrupt("fanout 1")
	}
	if math.IsNaN(cfg.CellFactor) || math.IsInf(cfg.CellFactor, 0) {
		return errCorrupt("non-finite cell factor")
	}
	switch cfg.LocalJoin {
	case LocalJoinGrid, LocalJoinGridPostDedup, LocalJoinSweep, LocalJoinNested:
	default:
		return errCorrupt("unknown local-join kind %d", cfg.LocalJoin)
	}
	return nil
}

// finiteObject reports whether an arena object's box is normalized and
// fully finite — the invariant every dataset loader enforces. lo <= hi
// rejects NaN and inverted corners in one compare; x-x != 0 catches
// ±Inf (Inf-Inf = NaN). Runs once per arena object on every thaw, so
// the branches matter.
func finiteObject(o *geom.Object) bool {
	for d := 0; d < geom.Dims; d++ {
		lo, hi := o.Box.Min[d], o.Box.Max[d]
		if !(lo <= hi) || lo-lo != 0 || hi-hi != 0 {
			return false
		}
	}
	return true
}

// Thaw reconstructs a Tree from its frozen form, validating every
// structural invariant Build would have established. The returned tree
// owns the Frozen's slices (the decoder must not reuse them).
func Thaw(f *Frozen) (*Tree, error) {
	if err := validateThawConfig(f.Cfg); err != nil {
		return nil, err
	}
	if len(f.Nodes) == 0 {
		return nil, errCorrupt("no nodes")
	}
	if len(f.Nodes) > math.MaxInt32 || len(f.Arena) > math.MaxInt32 {
		return nil, errCorrupt("node or arena count overflows int32")
	}
	for i := range f.Arena {
		if !finiteObject(&f.Arena[i]) {
			return nil, errCorrupt("arena object %d has a non-finite or inverted box", i)
		}
	}

	cfg := f.Cfg
	cfg.fillDefaults()
	t := &Tree{
		Height: f.Height,
		Nodes:  len(f.Nodes),
		SizeA:  len(f.Arena),
		cfg:    cfg,
		nodes:  make([]*Node, len(f.Nodes)),
		arena:  f.Arena,
	}

	next := 0   // next unconsumed frozen node
	leaves := 0 // leaf count recomputed during the walk
	var build func(depth int) (*Node, error)
	build = func(depth int) (*Node, error) {
		if depth > maxThawDepth {
			return nil, errCorrupt("tree deeper than %d levels", maxThawDepth)
		}
		if next >= len(f.Nodes) {
			return nil, errCorrupt("child counts consume more than %d nodes", len(f.Nodes))
		}
		fn := &f.Nodes[next]
		n := &Node{
			MBR:     fn.MBR,
			aStart:  fn.AStart,
			aEnd:    fn.AEnd,
			id:      int32(next),
			extSumA: fn.ExtSumA,
		}
		t.nodes[next] = n
		next++
		if fn.AStart < 0 || fn.AEnd < fn.AStart || int(fn.AEnd) > len(f.Arena) {
			return nil, errCorrupt("node %d arena range [%d,%d) outside arena of %d", n.id, fn.AStart, fn.AEnd, len(f.Arena))
		}
		if fn.Children < 0 || int(fn.Children) > len(f.Nodes) {
			return nil, errCorrupt("node %d child count %d", n.id, fn.Children)
		}
		if fn.Children == 0 {
			leaves++
			n.Entries = t.arena[n.aStart:n.aEnd:n.aEnd]
			return n, nil
		}
		n.Children = make([]*Node, fn.Children)
		for i := range n.Children {
			ch, err := build(depth + 1)
			if err != nil {
				return nil, err
			}
			// Children partition the parent's arena range contiguously.
			wantStart := n.aStart
			if i > 0 {
				wantStart = n.Children[i-1].aEnd
			}
			if ch.aStart != wantStart {
				return nil, errCorrupt("node %d child %d arena range starts at %d, want %d", n.id, i, ch.aStart, wantStart)
			}
			n.Children[i] = ch
		}
		if last := n.Children[len(n.Children)-1]; last.aEnd != n.aEnd {
			return nil, errCorrupt("node %d arena range ends at %d, children end at %d", n.id, n.aEnd, last.aEnd)
		}
		return n, nil
	}
	root, err := build(1)
	if err != nil {
		return nil, err
	}
	if next != len(f.Nodes) {
		return nil, errCorrupt("%d trailing nodes unreachable from the root", len(f.Nodes)-next)
	}
	if root.aStart != 0 || int(root.aEnd) != len(f.Arena) {
		return nil, errCorrupt("root arena range [%d,%d) does not cover the %d-object arena", root.aStart, root.aEnd, len(f.Arena))
	}
	if leaves != f.Leaves {
		return nil, errCorrupt("leaf count %d, walk found %d", f.Leaves, leaves)
	}
	t.Leaves = leaves
	t.Root = root

	if h := measureHeight(root); h != f.Height {
		return nil, errCorrupt("height %d, walk found %d", f.Height, h)
	}
	if err := verifyDerived(t); err != nil {
		return nil, err
	}
	// The block directory and the probe table are not part of the frozen
	// form: they are rebuilt over the arena as it arrived, whatever order a
	// leaf's stretch is in.
	t.index()
	return t, nil
}

// measureHeight returns the number of nodes on the longest path from n
// down to a leaf — leaves may sit at different depths. Thaw's walk has
// bounded the depth by maxThawDepth before it is called there.
func measureHeight(n *Node) int {
	h := 0
	for _, ch := range n.Children {
		if c := measureHeight(ch); c > h {
			h = c
		}
	}
	return h + 1
}

// verifyDerived recomputes every node's MBR and summed mean extent from
// the arena exactly the way Build does and demands bit-equality
// (identical float operation order), so an MBR or extent corruption that
// slipped past the checksums cannot make the thawed tree answer
// differently from a rebuild. The root's subtrees are verified in
// parallel — they are disjoint and each is recomputed in the exact same
// op order as a sequential walk, so the bit-equality contract is
// unaffected; this is the dominant cost of thawing a large snapshot.
func verifyDerived(t *Tree) error {
	var walk func(n *Node) error
	walk = func(n *Node) error {
		mbr := geom.EmptyBox()
		ext := 0.0
		if n.Leaf() {
			for i := range n.Entries {
				b := &n.Entries[i].Box
				mbr.Extend(b)
				for d := 0; d < geom.Dims; d++ {
					ext += b.Extent(d)
				}
			}
			ext /= geom.Dims
		} else {
			for _, ch := range n.Children {
				if err := walk(ch); err != nil {
					return err
				}
				mbr.Extend(&ch.MBR)
				ext += ch.extSumA
			}
		}
		return checkNode(n, mbr, ext)
	}

	// Split the tree into enough disjoint subtrees to spread across the
	// CPUs: expand a frontier level by level, collecting the internal
	// nodes above it. An internal node's own check only reads its direct
	// children's *stored* values, so the upper nodes can be checked
	// sequentially without waiting for the subtree walks.
	target := runtime.GOMAXPROCS(0)
	frontier := []*Node{t.Root}
	var upper []*Node
	for len(frontier) < target {
		next := make([]*Node, 0, len(frontier)*2)
		progressed := false
		for _, n := range frontier {
			if n.Leaf() {
				next = append(next, n)
				continue
			}
			upper = append(upper, n)
			next = append(next, n.Children...)
			progressed = true
		}
		frontier = next
		if !progressed {
			break
		}
	}

	for _, n := range upper {
		mbr := geom.EmptyBox()
		ext := 0.0
		for _, ch := range n.Children {
			mbr.Extend(&ch.MBR)
			ext += ch.extSumA
		}
		if err := checkNode(n, mbr, ext); err != nil {
			return err
		}
	}

	if len(frontier) < 2 {
		for _, n := range frontier {
			if err := walk(n); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, len(frontier))
	var wg sync.WaitGroup
	for i, n := range frontier {
		wg.Add(1)
		go func(i int, n *Node) {
			defer wg.Done()
			errs[i] = walk(n)
		}(i, n)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// checkNode demands bit-equality between a node's stored derived values
// and the ones recomputed from its subtree.
func checkNode(n *Node, mbr geom.Box, ext float64) error {
	if mbr != n.MBR {
		return errCorrupt("node %d MBR %v does not match its subtree's %v", n.id, n.MBR, mbr)
	}
	if ext != n.extSumA {
		return errCorrupt("node %d extent sum %g does not match its subtree's %g", n.id, n.extSumA, ext)
	}
	return nil
}
