package testutil

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"touch/internal/core"
	"touch/internal/geom"
	"touch/internal/stats"
)

// assignTree returns FuzzAssign's fixed tree: 4,096 boxes with integer
// corners and two points at the corners of [0, 1024]³, so the root is
// that cube, its cell table 8 cells an axis with bounds on the multiples
// of 128, and every MBR's bounds integers — all of them values the
// fuzzer's lattice (assignCoord) produces exactly. Its 64 buckets hold
// about eight cells each, so many cells send a box straight to a leaf,
// where only the test of the leaf's own MBR stands between a box in its
// dead space and a wrong destination.
func assignTree() *core.Tree {
	r := rand.New(rand.NewSource(58))
	a := geom.Dataset{
		{ID: 0, Box: geom.BoxAt(geom.Point{0, 0, 0})},
		{ID: 1, Box: geom.BoxAt(geom.Point{1024, 1024, 1024})},
	}
	for i := 0; i < 4096; i++ {
		var lo, hi geom.Point
		for d := range geom.Dims {
			lo[d] = float64(r.Intn(1016))
			hi[d] = lo[d] + float64(r.Intn(9))
		}
		a = append(a, geom.Object{ID: geom.ID(len(a)), Box: geom.Box{Min: lo, Max: hi}})
	}
	return core.Build(a, core.Config{Partitions: 64})
}

// assignCoord decodes one coordinate from two bytes: mostly a lattice of
// quarters over [-512, 1536), which reaches past the root on both sides
// and holds every cell and MBR bound; one value in eight the lattice
// value's upper neighbour; and one in eight NaN, +Inf or -Inf.
func assignCoord(u uint16) float64 {
	v := float64(u&0x1fff)/4 - 512
	switch u >> 13 {
	case 6:
		return math.Nextafter(v, math.Inf(1))
	case 7:
		return [...]float64{math.NaN(), math.Inf(1), math.Inf(-1)}[u%3]
	}
	return v
}

// frozenDescent is Algorithm 3's descent of b from the root of the
// frozen tree nodes, whose subtrees end at skip: the reference, read off
// the tree's frozen form and none of its derived state.
func frozenDescent(nodes []core.FrozenNode, skip []int32, b *geom.Box) int32 {
	if !nodes[0].MBR.Meets(b) {
		return -1
	}
	p := int32(0)
	for nodes[p].Children > 0 {
		hit := int32(-1)
		for ch := p + 1; ch < skip[p]; ch = skip[ch] {
			if nodes[ch].MBR.Meets(b) {
				if hit >= 0 {
					return p
				}
				hit = ch
			}
		}
		if hit < 0 {
			return -1
		}
		p = hit
	}
	return p
}

// subtreeEnds returns, for every frozen node, the index of the first
// node after its subtree.
func subtreeEnds(nodes []core.FrozenNode) []int32 {
	skip := make([]int32, len(nodes))
	var end func(i int32) int32
	end = func(i int32) int32 {
		j := i + 1
		for c := int32(0); c < nodes[i].Children; c++ {
			j = end(j)
		}
		skip[i] = j
		return j
	}
	end(0)
	return skip
}

// FuzzAssign holds the assignment's cell table to the plain descent: each
// twelve bytes are one box, its corners taken as decoded — inverted ones
// too — and AssignOne, and Assign over all of them at one worker, must
// send every box where the descent from the root does. The corpus seeds
// boxes on cell bounds, points on them, a box one ulp past one and boxes
// with NaN and infinite corners.
func FuzzAssign(f *testing.F) {
	tr := assignTree()
	nodes := tr.Freeze().Nodes
	skip := subtreeEnds(nodes)
	box := func(c ...float64) []byte {
		var out []byte
		for _, v := range c {
			out = binary.LittleEndian.AppendUint16(out, uint16((v+512)*4))
		}
		return out
	}
	// code returns the two bytes of the coordinate u.
	code := func(u uint16) []byte { return binary.LittleEndian.AppendUint16(nil, u) }
	const negInf, nan, posInf = 0xe000, 0xe001, 0xe002
	f.Add([]byte{})
	f.Add(box(128, 128, 128, 256, 256, 256))                                       // one cell's box
	f.Add(box(128, 300, 300, 128, 300, 300))                                       // a point on a bound
	f.Add(box(100, 100, 100, 140, 120, 120))                                       // across a bound
	f.Add(box(-10, 500, 500, 1030, 510, 510))                                      // past the root
	f.Add(box(0, 0, 0, 1024, 1024, 1024))                                          // the root
	f.Add(append(box(130, 130, 130, 135, 135), code(6<<13|(128+512)*4)...))        // max z one ulp past 128
	f.Add(append(box(130, 130, 130, 135, 135), code(nan)...))                      // a NaN corner
	f.Add(slices.Concat(box(130, 130), code(negInf), box(135, 135), code(posInf))) // infinite corners
	f.Fuzz(func(t *testing.T, data []byte) {
		var b geom.Dataset
		for i := 0; i+12 <= len(data); i += 12 {
			var o geom.Object
			for d := range geom.Dims {
				o.Box.Min[d] = assignCoord(binary.LittleEndian.Uint16(data[i+2*d:]))
				o.Box.Max[d] = assignCoord(binary.LittleEndian.Uint16(data[i+6+2*d:]))
			}
			o.ID = geom.ID(len(b))
			b = append(b, o)
		}
		want := make([]int32, len(b))
		filtered := int64(0)
		for i := range b {
			want[i] = frozenDescent(nodes, skip, &b[i].Box)
			if want[i] < 0 {
				filtered++
			}
			if got := tr.AssignOne(&b[i].Box, &stats.Counters{}); got != want[i] {
				t.Fatalf("AssignOne(%v) = %d, the plain descent %d", b[i].Box, got, want[i])
			}
		}
		p := tr.NewProbe()
		var c stats.Counters
		p.Assign(b, nil, &c)
		if c.Filtered != filtered || p.Assigned() != len(b)-int(filtered) {
			t.Fatalf("Assign filtered %d and assigned %d of %d, the plain descent filters %d", c.Filtered, p.Assigned(), len(b), filtered)
		}
	})
}
