// Package geom provides the 3-D geometric primitives shared by every
// spatial-join algorithm in this repository: axis-aligned boxes (MBRs),
// points, line segments and cylinders, together with the ε-expansion used
// to reduce a distance join to an intersection join.
//
// All coordinates are float64 and boxes are closed intervals in every
// dimension: two boxes that merely touch on a face, edge or corner are
// considered intersecting, matching the "distance ≤ ε" predicate of the
// TOUCH paper.
package geom

import (
	"fmt"
	"math"
)

// Dims is the dimensionality of the space. The TOUCH paper evaluates on
// 3-D data (neuroscience models and synthetic 3-D boxes).
const Dims = 3

// Point is a location in 3-D space.
type Point [Dims]float64

// Box is an axis-aligned minimum bounding rectangle (MBR) in 3-D,
// represented by its minimum and maximum corners. A valid box has
// Min[d] <= Max[d] for every dimension d; a zero-extent box (Min == Max)
// is valid and represents a point.
type Box struct {
	Min Point
	Max Point
}

// NewBox returns the box spanned by the two corner points, normalizing
// the coordinates so that Min[d] <= Max[d] in every dimension. It, Distance
// and AxisDistance take the builtin min and max, which inline where
// math.Min and math.Max are calls, and agree with them bit for bit on
// every operand but a NaN (TestBuiltinMinMaxMatchMath).
func NewBox(a, b Point) Box {
	var box Box
	for d := 0; d < Dims; d++ {
		box.Min[d] = min(a[d], b[d])
		box.Max[d] = max(a[d], b[d])
	}
	return box
}

// BoxAt returns the zero-extent box located at p.
func BoxAt(p Point) Box { return Box{Min: p, Max: p} }

// Valid reports whether the box is normalized (Min <= Max in every
// dimension) and free of NaNs.
func (b Box) Valid() bool {
	for d := 0; d < Dims; d++ {
		if math.IsNaN(b.Min[d]) || math.IsNaN(b.Max[d]) || b.Min[d] > b.Max[d] {
			return false
		}
	}
	return true
}

// Finite reports whether the box may be indexed: every coordinate finite
// and Min <= Max in every dimension — what the dataset loaders check on
// the way in and the snapshot decoder and core.Thaw on the way back, as
// non-finite coordinates poison STR packing and grid sizing silently
// rather than loudly. (Query boxes are laxer — an infinite range query is
// meaningful — and are checked with Valid.) lo <= hi rejects NaN and
// inverted corners in one compare; x-x != 0 catches ±Inf (Inf-Inf = NaN).
func (b *Box) Finite() bool {
	for d := 0; d < Dims; d++ {
		lo, hi := b.Min[d], b.Max[d]
		if !(lo <= hi) || lo-lo != 0 || hi-hi != 0 {
			return false
		}
	}
	return true
}

// Intersects reports whether b and o overlap, where touching boundaries
// count as overlap (closed-interval semantics).
func (b Box) Intersects(o Box) bool { return b.Meets(&o) }

// Contains reports whether b fully contains o (closed semantics: a box
// contains itself).
func (b Box) Contains(o Box) bool { return b.Covers(&o) }

// Meets, Covers and Extend are Intersects, Contains and Union for the
// inner loops: by pointer and with constant indices. A corner array
// indexed by a loop variable has to live in memory, so a by-value form
// written as a loop over the dimensions copies both boxes on every call —
// in a scan that is the test and nothing else, the copy is most of the
// cost. The by-value forms are these, called on their copies. Written out
// for three dimensions:
var _ = [1]struct{}{}[Dims-3]

// Meets is Intersects. It is the negation of the six "lies beyond" tests,
// so a NaN corner, for which every comparison is false, meets everything;
// a chain of <= would answer the opposite.
func (b *Box) Meets(o *Box) bool {
	return !(b.Min[0] > o.Max[0] || o.Min[0] > b.Max[0] ||
		b.Min[1] > o.Max[1] || o.Min[1] > b.Max[1] ||
		b.Min[2] > o.Max[2] || o.Min[2] > b.Max[2])
}

// Covers is Contains, the negation of the six "sticks out" tests.
func (b *Box) Covers(o *Box) bool {
	return !(o.Min[0] < b.Min[0] || o.Max[0] > b.Max[0] ||
		o.Min[1] < b.Min[1] || o.Max[1] > b.Max[1] ||
		o.Min[2] < b.Min[2] || o.Max[2] > b.Max[2])
}

// Extend grows b in place to the smallest box enclosing both b and o.
func (b *Box) Extend(o *Box) {
	// The builtin min/max share math.Min/Max's IEEE semantics (NaN
	// propagation, -0 < +0) but inline to branch-free code — this is the
	// inner loop of tree construction, of the block directory and of
	// snapshot verification, which compares its results bit for bit.
	b.Min = Point{min(b.Min[0], o.Min[0]), min(b.Min[1], o.Min[1]), min(b.Min[2], o.Min[2])}
	b.Max = Point{max(b.Max[0], o.Max[0]), max(b.Max[1], o.Max[1]), max(b.Max[2], o.Max[2])}
}

// ContainsPoint reports whether p lies inside or on the boundary of b.
func (b Box) ContainsPoint(p Point) bool {
	for d := 0; d < Dims; d++ {
		if p[d] < b.Min[d] || p[d] > b.Max[d] {
			return false
		}
	}
	return true
}

// Expand grows the box by eps on every side of every dimension and
// returns the result. Expanding one dataset's boxes by ε turns the
// distance predicate dist(a,b) ≤ ε into an intersection predicate
// (per-dimension interval distance ≤ ε ⇔ expanded boxes overlap).
func (b Box) Expand(eps float64) Box {
	b.Grow(eps)
	return b
}

// Grow is Expand in place. Assigning Expand's result back copies the box
// through the stack: growing a 200K-object arena that way as it was
// gathered took three times as long as the gather (2 vCPUs, go1.24).
func (b *Box) Grow(eps float64) {
	for d := 0; d < Dims; d++ {
		b.Min[d] -= eps
		b.Max[d] += eps
	}
}

// Union returns the smallest box enclosing both b and o.
func (b Box) Union(o Box) Box {
	b.Extend(&o)
	return b
}

// Center returns the center point of the box.
func (b Box) Center() Point {
	var c Point
	for d := 0; d < Dims; d++ {
		c[d] = (b.Min[d] + b.Max[d]) / 2
	}
	return c
}

// Extent returns the side length of the box in dimension d.
func (b Box) Extent(d int) float64 { return b.Max[d] - b.Min[d] }

// Volume returns the volume of the box (product of extents).
func (b Box) Volume() float64 {
	v := 1.0
	for d := 0; d < Dims; d++ {
		v *= b.Extent(d)
	}
	return v
}

// Distance returns the minimum Euclidean distance between the two boxes;
// zero when they intersect.
func (b Box) Distance(o Box) float64 {
	sum := 0.0
	for d := 0; d < Dims; d++ {
		gap := max(b.Min[d]-o.Max[d], o.Min[d]-b.Max[d])
		if gap > 0 {
			sum += gap * gap
		}
	}
	return math.Sqrt(sum)
}

// PointDistance returns the minimum Euclidean distance from point p to
// the box; zero when p lies inside or on the boundary. It is the
// node-MBR lower bound driving the best-first kNN descent: no object
// inside the box can be closer to p than this.
func (b Box) PointDistance(p Point) float64 {
	sum := 0.0
	for d := 0; d < Dims; d++ {
		// The product is rounded on its own, so no fused multiply-add can
		// make the sum differ from NextWithin's.
		gap := max(b.Min[d]-p[d], p[d]-b.Max[d])
		if gap > 0 {
			sum += float64(gap * gap)
		}
	}
	return math.Sqrt(sum)
}

// AxisDistance returns the per-dimension (L∞-style) distance between the
// boxes: the largest single-axis gap, zero when they intersect. This is
// exactly the predicate captured by ε-expansion of MBRs.
func (b Box) AxisDistance(o Box) float64 {
	worst := 0.0
	for d := 0; d < Dims; d++ {
		gap := max(b.Min[d]-o.Max[d], o.Min[d]-b.Max[d])
		if gap > worst {
			worst = gap
		}
	}
	return worst
}

// String implements fmt.Stringer.
func (b Box) String() string {
	return fmt.Sprintf("[%g,%g,%g]-[%g,%g,%g]",
		b.Min[0], b.Min[1], b.Min[2], b.Max[0], b.Max[1], b.Max[2])
}

// EmptyBox returns the identity element for Union: a box with +Inf minima
// and -Inf maxima. Union of EmptyBox with any box yields that box.
func EmptyBox() Box {
	var b Box
	for d := 0; d < Dims; d++ {
		b.Min[d] = math.Inf(1)
		b.Max[d] = math.Inf(-1)
	}
	return b
}
