package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func box(x1, y1, z1, x2, y2, z2 float64) Box {
	return NewBox(Point{x1, y1, z1}, Point{x2, y2, z2})
}

func TestNewBoxNormalizes(t *testing.T) {
	b := NewBox(Point{3, -1, 5}, Point{1, 2, 5})
	want := Box{Min: Point{1, -1, 5}, Max: Point{3, 2, 5}}
	if b != want {
		t.Fatalf("NewBox = %v, want %v", b, want)
	}
	if !b.Valid() {
		t.Fatal("normalized box reported invalid")
	}
}

// TestBoxValid: Valid admits what a query box may be — infinite
// coordinates included — and Finite only what may be indexed.
func TestBoxValid(t *testing.T) {
	inf := math.Inf(1)
	cases := []struct {
		name          string
		b             Box
		valid, finite bool
	}{
		{"point box", BoxAt(Point{1, 2, 3}), true, true},
		{"regular", box(0, 0, 0, 1, 1, 1), true, true},
		{"inverted", Box{Min: Point{1, 0, 0}, Max: Point{0, 1, 1}}, false, false},
		{"nan min", Box{Min: Point{math.NaN(), 0, 0}, Max: Point{1, 1, 1}}, false, false},
		{"nan max", Box{Min: Point{0, 0, 0}, Max: Point{1, math.NaN(), 1}}, false, false},
		{"infinite max", Box{Min: Point{0, 0, 0}, Max: Point{1, 1, inf}}, true, false},
		{"infinite min", Box{Min: Point{0, -inf, 0}, Max: Point{1, 1, 1}}, true, false},
		{"the universe", Box{Min: Point{-inf, -inf, -inf}, Max: Point{inf, inf, inf}}, true, false},
		{"empty identity", EmptyBox(), false, false},
	}
	for _, tc := range cases {
		if got := tc.b.Valid(); got != tc.valid {
			t.Errorf("%s: Valid() = %v, want %v", tc.name, got, tc.valid)
		}
		if got := tc.b.Finite(); got != tc.finite {
			t.Errorf("%s: Finite() = %v, want %v", tc.name, got, tc.finite)
		}
	}
}

func TestIntersectsBasics(t *testing.T) {
	a := box(0, 0, 0, 10, 10, 10)
	cases := []struct {
		name string
		b    Box
		want bool
	}{
		{"identical", a, true},
		{"contained", box(2, 2, 2, 3, 3, 3), true},
		{"overlapping corner", box(9, 9, 9, 12, 12, 12), true},
		{"touching face", box(10, 0, 0, 12, 10, 10), true},
		{"touching edge", box(10, 10, 0, 12, 12, 10), true},
		{"touching corner", box(10, 10, 10, 11, 11, 11), true},
		{"disjoint x", box(11, 0, 0, 12, 10, 10), false},
		{"disjoint y", box(0, 10.5, 0, 10, 12, 10), false},
		{"disjoint z", box(0, 0, -5, 10, 10, -0.5), false},
		{"near but apart in one dim only", box(0, 0, 10.01, 10, 10, 12), false},
	}
	for _, tc := range cases {
		if got := a.Intersects(tc.b); got != tc.want {
			t.Errorf("%s: Intersects = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestContains(t *testing.T) {
	a := box(0, 0, 0, 10, 10, 10)
	if !a.Contains(a) {
		t.Error("box must contain itself")
	}
	if !a.Contains(box(0, 0, 0, 10, 10, 10)) {
		t.Error("closed semantics: equal box contained")
	}
	if a.Contains(box(0, 0, 0, 10, 10, 10.001)) {
		t.Error("slightly larger box must not be contained")
	}
	if !a.Contains(BoxAt(Point{10, 10, 10})) {
		t.Error("corner point contained")
	}
	if a.Contains(box(-1, 2, 2, 3, 3, 3)) {
		t.Error("box sticking out must not be contained")
	}
}

func TestContainsPoint(t *testing.T) {
	a := box(0, 0, 0, 1, 1, 1)
	for _, p := range []Point{{0, 0, 0}, {1, 1, 1}, {0.5, 0.5, 0.5}, {0, 1, 0.3}} {
		if !a.ContainsPoint(p) {
			t.Errorf("point %v should be contained", p)
		}
	}
	for _, p := range []Point{{-0.001, 0, 0}, {1.001, 1, 1}, {0.5, 0.5, 2}} {
		if a.ContainsPoint(p) {
			t.Errorf("point %v should not be contained", p)
		}
	}
}

func TestExpand(t *testing.T) {
	a := box(1, 2, 3, 4, 5, 6)
	got := a.Expand(2)
	want := box(-1, 0, 1, 6, 7, 8)
	if got != want {
		t.Fatalf("Expand(2) = %v, want %v", got, want)
	}
	if a != box(1, 2, 3, 4, 5, 6) {
		t.Fatal("Expand mutated the receiver")
	}
	if a.Expand(0) != a {
		t.Fatal("Expand(0) must be identity")
	}
}

func TestExpandDistanceEquivalence(t *testing.T) {
	// dist(a,b) <= eps per dimension  <=>  a.Expand(eps) intersects b.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		a := randomBox(rng, 100, 5)
		b := randomBox(rng, 100, 5)
		eps := rng.Float64() * 10
		byDist := a.AxisDistance(b) <= eps
		byExpand := a.Expand(eps).Intersects(b)
		if byDist != byExpand {
			t.Fatalf("a=%v b=%v eps=%g: AxisDistance<=eps %v, expanded intersect %v",
				a, b, eps, byDist, byExpand)
		}
	}
}

func TestUnionAndIntersection(t *testing.T) {
	a := box(0, 0, 0, 4, 4, 4)
	b := box(2, -2, 1, 6, 3, 3)
	u := a.Union(b)
	if u != box(0, -2, 0, 6, 4, 4) {
		t.Fatalf("Union = %v", u)
	}
}

func TestVolumeMarginExtentCenter(t *testing.T) {
	b := box(0, 0, 0, 2, 3, 4)
	if b.Volume() != 24 {
		t.Errorf("Volume = %g, want 24", b.Volume())
	}
	if b.Extent(1) != 3 {
		t.Errorf("Extent(1) = %g, want 3", b.Extent(1))
	}
	if b.Center() != (Point{1, 1.5, 2}) {
		t.Errorf("Center = %v", b.Center())
	}
	if BoxAt(Point{1, 1, 1}).Volume() != 0 {
		t.Error("point box must have zero volume")
	}
}

func TestDistance(t *testing.T) {
	a := box(0, 0, 0, 1, 1, 1)
	cases := []struct {
		b    Box
		want float64
	}{
		{a, 0},
		{box(0.5, 0.5, 0.5, 2, 2, 2), 0},
		{box(2, 0, 0, 3, 1, 1), 1},
		{box(2, 2, 0, 3, 3, 1), math.Sqrt(2)},
		{box(2, 2, 2, 3, 3, 3), math.Sqrt(3)},
		{box(1, 1, 1, 2, 2, 2), 0}, // touching corner
	}
	for _, tc := range cases {
		if got := a.Distance(tc.b); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("Distance(%v) = %g, want %g", tc.b, got, tc.want)
		}
		if got := tc.b.Distance(a); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("Distance symmetric (%v) = %g, want %g", tc.b, got, tc.want)
		}
	}
}

func TestAxisDistance(t *testing.T) {
	a := box(0, 0, 0, 1, 1, 1)
	if got := a.AxisDistance(box(3, 4, 0, 4, 5, 1)); got != 3 {
		t.Errorf("AxisDistance = %g, want 3 (largest per-axis gap)", got)
	}
	if got := a.AxisDistance(a); got != 0 {
		t.Errorf("AxisDistance self = %g", got)
	}
}

func TestEmptyBoxIdentity(t *testing.T) {
	e := EmptyBox()
	if !e.IsEmpty() {
		t.Fatal("EmptyBox must be empty")
	}
	b := box(1, 1, 1, 2, 2, 2)
	if e.Union(b) != b {
		t.Fatal("EmptyBox must be the Union identity")
	}
	if b.IsEmpty() {
		t.Fatal("regular box reported empty")
	}
}

func TestBoxString(t *testing.T) {
	s := box(1, 2, 3, 4, 5, 6).String()
	if s != "[1,2,3]-[4,5,6]" {
		t.Fatalf("String = %q", s)
	}
}

// randomBox returns a box with center in [0,space)³ and sides in
// [0,maxSide).
func randomBox(rng *rand.Rand, space, maxSide float64) Box {
	var c, h Point
	for d := 0; d < Dims; d++ {
		c[d] = rng.Float64() * space
		h[d] = rng.Float64() * maxSide / 2
	}
	return NewBox(Sub(c, h), Add(c, h))
}

// Property-based tests over the box algebra.

func TestPropIntersectsSymmetric(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomBox(r, 50, 10), randomBox(r, 50, 10)
		return a.Intersects(b) == b.Intersects(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropUnionContainsBoth(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomBox(r, 50, 10), randomBox(r, 50, 10)
		u := a.Union(b)
		return u.Contains(a) && u.Contains(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropExpansionMonotone(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomBox(r, 50, 10)
		e1, e2 := r.Float64()*5, r.Float64()*5
		if e1 > e2 {
			e1, e2 = e2, e1
		}
		return a.Expand(e2).Contains(a.Expand(e1))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropContainsImpliesIntersects(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomBox(r, 20, 15), randomBox(r, 20, 15)
		if a.Contains(b) && !a.Intersects(b) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropDistanceZeroIffIntersects(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomBox(r, 20, 15), randomBox(r, 20, 15)
		return (a.Distance(b) == 0) == a.Intersects(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPointDistance(t *testing.T) {
	b := box(0, 0, 0, 10, 10, 10)
	cases := []struct {
		p    Point
		want float64
	}{
		{Point{5, 5, 5}, 0},          // inside
		{Point{10, 10, 10}, 0},       // corner (closed semantics)
		{Point{13, 5, 5}, 3},         // one-axis gap
		{Point{13, 14, 5}, 5},        // 3-4-5 in two axes
		{Point{-3, -4, 10 + 12}, 13}, // 3-4-12 in three axes
	}
	for _, tc := range cases {
		if got := b.PointDistance(tc.p); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("PointDistance(%v) = %g, want %g", tc.p, got, tc.want)
		}
	}
}

// TestPropPointDistanceMatchesBoxDistance: point-to-box distance must
// agree with the general box-to-box distance of a zero-extent box.
func TestPropPointDistanceMatchesBoxDistance(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		b := randomBox(r, 100, 5)
		p := Point{r.Float64() * 100, r.Float64() * 100, r.Float64() * 100}
		got, want := b.PointDistance(p), b.Distance(BoxAt(p))
		return math.Abs(got-want) < 1e-12 && (got == 0) == b.ContainsPoint(p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPointerFormsKeepTheTruthTable pins Meets, Covers and Extend — and
// through them Intersects, Contains and Union — to the per-dimension loops
// they replaced, on every pair of boxes over a lattice that holds what the
// loops' comparisons distinguish: NaN (every comparison false, so a NaN
// corner neither lies beyond nor sticks out), both zeros (equal, but
// min/max order them and Thaw compares unions bit for bit), both
// infinities, inverted corners. A <= chain in place of a negated > fails
// the NaN rows; a min or max written as a comparison fails the zero rows.
func TestPointerFormsKeepTheTruthTable(t *testing.T) {
	intersects := func(b, o Box) bool {
		for d := 0; d < Dims; d++ {
			if b.Min[d] > o.Max[d] || o.Min[d] > b.Max[d] {
				return false
			}
		}
		return true
	}
	contains := func(b, o Box) bool {
		for d := 0; d < Dims; d++ {
			if o.Min[d] < b.Min[d] || o.Max[d] > b.Max[d] {
				return false
			}
		}
		return true
	}
	union := func(b, o Box) Box {
		for d := 0; d < Dims; d++ {
			b.Min[d] = min(b.Min[d], o.Min[d])
			b.Max[d] = max(b.Max[d], o.Max[d])
		}
		return b
	}
	bits := func(b Box) (out [2 * Dims]uint64) {
		for d := 0; d < Dims; d++ {
			out[d], out[Dims+d] = math.Float64bits(b.Min[d]), math.Float64bits(b.Max[d])
		}
		return out
	}
	vals := []float64{math.Inf(-1), -1, math.Copysign(0, -1), 0, 1, math.Inf(1), math.NaN()}
	// Every (min, max) pair of the lattice in one dimension at a time, the
	// other two held at an overlapping [0, 1]: the predicates are
	// conjunctions over the dimensions, so one free dimension reaches every
	// row of the table.
	var boxes []Box
	for d := 0; d < Dims; d++ {
		for _, lo := range vals {
			for _, hi := range vals {
				b := Box{Min: Point{0, 0, 0}, Max: Point{1, 1, 1}}
				b.Min[d], b.Max[d] = lo, hi
				boxes = append(boxes, b)
			}
		}
	}
	for _, b := range boxes {
		for _, o := range boxes {
			if got, want := b.Meets(&o), intersects(b, o); got != want || b.Intersects(o) != want {
				t.Fatalf("%v meets %v: Meets %v, Intersects %v, the loop %v", b, o, got, b.Intersects(o), want)
			}
			if got, want := b.Covers(&o), contains(b, o); got != want || b.Contains(o) != want {
				t.Fatalf("%v covers %v: Covers %v, Contains %v, the loop %v", b, o, got, b.Contains(o), want)
			}
			grown, want := b, bits(union(b, o))
			grown.Extend(&o)
			if bits(grown) != want || bits(b.Union(o)) != want {
				t.Fatalf("%v ∪ %v: Extend %v, Union %v, the loop %v", b, o, grown, b.Union(o), union(b, o))
			}
		}
	}
}

// TestBuiltinMinMaxMatchMath pins NewBox, Distance and AxisDistance, which
// take the builtin min and max, to math.Min and math.Max on every pair of
// corners: both zeros, both infinities, the subnormals, the extremes and
// NaNs with other payloads and signs. Without a NaN operand the results
// agree bit for bit. With one the builtins return a NaN, where math
// returns a NaN of its own, or the infinity the other operand is when
// that is -Inf for Min and +Inf for Max: a box either way is neither
// Valid nor Finite, so no index holds one and no served query is one.
func TestBuiltinMinMaxMatchMath(t *testing.T) {
	inf := math.Inf(1)
	corners := []float64{
		math.Inf(-1), -math.MaxFloat64, -1, -math.SmallestNonzeroFloat64, math.Copysign(0, -1),
		0, math.SmallestNonzeroFloat64, 1, math.MaxFloat64, inf,
		math.NaN(), math.Float64frombits(0x7ff0000000000123), math.Float64frombits(0xfff8000000000456),
	}
	nan := math.IsNaN
	for _, a := range corners {
		for _, b := range corners {
			for _, tc := range []struct {
				name            string
				builtin, method float64
				inf             float64 // what math returns for a NaN beside this infinity
			}{
				{"min", min(a, b), math.Min(a, b), -inf},
				{"max", max(a, b), math.Max(a, b), inf},
			} {
				switch {
				case !nan(a) && !nan(b):
					if math.Float64bits(tc.builtin) != math.Float64bits(tc.method) {
						t.Errorf("%s(%g, %g): builtin %g, math %g", tc.name, a, b, tc.builtin, tc.method)
					}
				case !nan(tc.builtin):
					t.Errorf("%s(%g, %g): builtin %g, want a NaN", tc.name, a, b, tc.builtin)
				case a == tc.inf || b == tc.inf:
					if tc.method != tc.inf {
						t.Errorf("%s(%g, %g): math %g, want %g", tc.name, a, b, tc.method, tc.inf)
					}
				case !nan(tc.method):
					t.Errorf("%s(%g, %g): math %g, want a NaN", tc.name, a, b, tc.method)
				}
			}
			if nan(a) || nan(b) {
				continue
			}
			// The three functions, as they read before taking the builtins.
			p, q := Point{a, b, 1}, Point{b, a, -1}
			var want Box
			for d := 0; d < Dims; d++ {
				want.Min[d], want.Max[d] = math.Min(p[d], q[d]), math.Max(p[d], q[d])
			}
			if got := NewBox(p, q); !sameBits(got, want) {
				t.Errorf("NewBox(%v, %v) = %v, math %v", p, q, got, want)
			}
			o := Box{Min: Point{b, 0, math.Copysign(0, -1)}, Max: Point{b, 1, 0}}
			dist, axis := 0.0, 0.0
			for d := 0; d < Dims; d++ {
				gap := math.Max(want.Min[d]-o.Max[d], o.Min[d]-want.Max[d])
				if gap > 0 {
					dist += gap * gap
				}
				if gap > axis {
					axis = gap
				}
			}
			if got := want.Distance(o); math.Float64bits(got) != math.Float64bits(math.Sqrt(dist)) {
				t.Errorf("%v Distance %v = %g, math %g", want, o, got, math.Sqrt(dist))
			}
			if got := want.AxisDistance(o); math.Float64bits(got) != math.Float64bits(axis) {
				t.Errorf("%v AxisDistance %v = %g, math %g", want, o, got, axis)
			}
		}
	}
}

// sameBits reports whether two boxes hold the same bits.
func sameBits(a, b Box) bool {
	for d := 0; d < Dims; d++ {
		if math.Float64bits(a.Min[d]) != math.Float64bits(b.Min[d]) || math.Float64bits(a.Max[d]) != math.Float64bits(b.Max[d]) {
			return false
		}
	}
	return true
}

// IsEmpty reports whether the box is the EmptyBox identity (or otherwise
// inverted in some dimension).
func (b Box) IsEmpty() bool {
	for d := 0; d < Dims; d++ {
		if b.Min[d] > b.Max[d] {
			return true
		}
	}
	return false
}
