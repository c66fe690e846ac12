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
// thawing turns the per-node child counts back into the table's skip
// links in one pass.
//
// Thaw trusts nothing: a frozen tree arrives from disk, where torn
// writes, bit flips and hostile edits are all possible, so every
// structural invariant Build establishes is re-checked — arena ranges,
// child-count consistency, recomputed MBRs and extent sums, height and
// leaf counts. A Frozen that passes Thaw is bit-equivalent to the tree a
// fresh Build of the same arena partitioning would produce — the derived
// block directory included, which Thaw rebuilds instead of reading; one
// that does not is rejected with an error, never a panic
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

// Freeze returns the tree's flat form. The arena aliases the tree's own
// storage (the tree is immutable, so sharing is safe); Thaw keeps the
// arena it is handed.
func (t *Tree) Freeze() *Frozen {
	f := &Frozen{
		Cfg:    t.cfg,
		Height: t.Height,
		Leaves: t.Leaves,
		Arena:  t.arena,
		Nodes:  make([]FrozenNode, len(t.table)),
	}
	for i := range t.table {
		e := &t.table[i]
		children := int32(0)
		for ch := int32(i) + 1; ch < e.skip; ch = t.table[ch].skip {
			children++
		}
		f.Nodes[i] = FrozenNode{MBR: e.mbr, Children: children, AStart: e.aStart, AEnd: e.aEnd, ExtSumA: t.extSum[i]}
	}
	return f
}

// maxThawDepth bounds the depth of a frozen tree. Build with fanout >= 2
// produces heights logarithmic in the node count, so any genuine tree is
// far below this; a hostile chain of single-child nodes is rejected, and
// Thaw's stack of open nodes never grows past it.
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
// keeps the Frozen's arena (the decoder must not reuse it).
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
		Nodes:  len(f.Nodes),
		SizeA:  len(f.Arena),
		cfg:    cfg,
		arena:  f.Arena,
		table:  make([]entry, len(f.Nodes)),
		extSum: make([]float64, len(f.Nodes)),
	}

	// One pass in the nodes' own DFS pre-order. open is the path from the
	// root to the node being read, inner nodes that still have children to
	// come: a node's children follow it, each subtree contiguous, so a
	// node is a child of the innermost open one, and a subtree that ends
	// is checked against its parent as one child more.
	type openNode struct {
		id   int32
		left int32 // children still to come
		next int32 // where the next child's arena range must begin
	}
	open := make([]openNode, 0, maxThawDepth)
	for i := range f.Nodes {
		fn, id := &f.Nodes[i], int32(i)
		if i > 0 && len(open) == 0 {
			return nil, errCorrupt("%d trailing nodes unreachable from the root", len(f.Nodes)-i)
		}
		if len(open) == maxThawDepth {
			return nil, errCorrupt("tree deeper than %d levels", maxThawDepth)
		}
		if fn.AStart < 0 || fn.AEnd < fn.AStart || int(fn.AEnd) > len(f.Arena) {
			return nil, errCorrupt("node %d arena range [%d,%d) outside arena of %d", id, fn.AStart, fn.AEnd, len(f.Arena))
		}
		if fn.Children < 0 || int(fn.Children) > len(f.Nodes) {
			return nil, errCorrupt("node %d child count %d", id, fn.Children)
		}
		t.table[i] = entry{mbr: fn.MBR, skip: id + 1, aStart: fn.AStart, aEnd: fn.AEnd}
		t.extSum[i] = fn.ExtSumA
		t.Height = max(t.Height, len(open)+1)
		if fn.Children > 0 {
			open = append(open, openNode{id: id, left: fn.Children, next: fn.AStart})
			continue
		}
		t.Leaves++
		// The leaf ends its own subtree and that of every open node it is
		// the last child of. Children partition the parent's arena range
		// contiguously.
		for ch := id; len(open) > 0; open = open[:len(open)-1] {
			p, c := &open[len(open)-1], &t.table[ch]
			if c.aStart != p.next {
				return nil, errCorrupt("node %d child %d arena range starts at %d, want %d", p.id, f.Nodes[p.id].Children-p.left, c.aStart, p.next)
			}
			p.next = c.aEnd
			if p.left--; p.left > 0 {
				break
			}
			pe := &t.table[p.id]
			if p.next != pe.aEnd {
				return nil, errCorrupt("node %d arena range ends at %d, children end at %d", p.id, pe.aEnd, p.next)
			}
			pe.skip = id + 1
			ch = p.id
		}
	}
	if len(open) > 0 {
		return nil, errCorrupt("child counts consume more than %d nodes", len(f.Nodes))
	}
	if root := &t.table[0]; root.aStart != 0 || int(root.aEnd) != len(f.Arena) {
		return nil, errCorrupt("root arena range [%d,%d) does not cover the %d-object arena", root.aStart, root.aEnd, len(f.Arena))
	}
	if t.Leaves != f.Leaves {
		return nil, errCorrupt("leaf count %d, walk found %d", f.Leaves, t.Leaves)
	}
	if t.Height != f.Height {
		return nil, errCorrupt("height %d, walk found %d", f.Height, t.Height)
	}
	if err := t.verifyDerived(); err != nil {
		return nil, err
	}
	// The block directory is not part of the frozen form: it is rebuilt
	// over the arena as it arrived, whatever order a leaf's stretch is in.
	t.index()
	return t, nil
}

// verifyDerived recomputes every node's MBR and summed mean extent the
// way Build does (derive) and demands bit-equality, so an MBR or extent
// corruption that slipped past the checksums cannot make the thawed tree
// answer differently from a rebuild. A node's check reads the arena or
// its children's stored values and nothing another check writes, so the
// table is checked in as many stretches as there are CPUs — the leaves'
// arena pass is the dominant cost of thawing a large snapshot — and the
// error is the one of the lowest failing node.
func (t *Tree) verifyDerived() error {
	check := func(lo, hi int) error {
		for i := int32(lo); i < int32(hi); i++ {
			mbr, ext := t.derive(i)
			if mbr != t.table[i].mbr {
				return errCorrupt("node %d MBR %v does not match its subtree's %v", i, t.table[i].mbr, mbr)
			}
			if ext != t.extSum[i] {
				return errCorrupt("node %d extent sum %g does not match its subtree's %g", i, t.extSum[i], ext)
			}
		}
		return nil
	}
	workers := min(runtime.GOMAXPROCS(0), len(t.table))
	if workers < 2 {
		return check(0, len(t.table))
	}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[w] = check(w*len(t.table)/workers, (w+1)*len(t.table)/workers)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
