package touch

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"
)

// TestJoinHostileExtents drives boxes whose extents overflow everything
// sized from them — a mean extent of +Inf, an MBR extent of +Inf, cell
// quotients far beyond int64 — through every TOUCH join path, on either
// side of the join. Finite coordinates pass every loader, so such a box
// is one request away. The pair sets must equal the nested loop's; a
// grid-sizing loop that never ends shows as the test's own timeout.
//
// The last order is hostile by skew, not by overflow: one universe-sized
// box among 2,047 small ones. The cell side follows the mean extent, so the
// one box overlaps every cell of a grid sized for the others. What that
// must not cost is asserted by count, not by the clock: the replicas stay
// within a small multiple of the objects joined.
func TestJoinHostileExtents(t *testing.T) {
	hostile := GenerateUniform(500, 801)
	for _, b := range []Box{
		{Min: Point{-1e308, -1e308, -1e308}, Max: Point{1e308, 1e308, 1e308}}, // extent overflows to +Inf
		{Min: Point{0, 500, 500}, Max: Point{1e308, 500.5, 500.5}},            // a sliver, 1e308 long
		{Min: Point{400, 400, 400}, Max: Point{1e25, 410, 1e25}},              // cell quotients beyond 2^63
	} {
		hostile = append(hostile, Object{ID: ID(len(hostile)), Box: b})
	}
	plain := GenerateUniform(700, 802)
	// An oversized box widens the cells it is hashed into, which keeps its
	// quotients small. Alone among ordinary boxes, under a CellFactor that
	// forces the finest grid, the box reaching 1e25 loses that margin and
	// the grid's clamp has to hold on its own.
	far := append(GenerateUniform(500, 803), Object{ID: 500, Box: hostile[len(hostile)-1].Box})

	// The other end of the scale: boxes two denormal steps wide, strung
	// along the diagonal, each meeting its twin shifted by one step. A
	// cell side of four steps halves to zero on its third halving.
	const step = math.SmallestNonzeroFloat64
	var tinyA, tinyB Dataset
	for k := 0; k < 300; k++ {
		lo := float64(8*k) * step
		tinyA = append(tinyA, Object{ID: ID(k), Box: Box{Min: Point{lo, lo, lo}, Max: Point{lo + 2*step, lo + 2*step, lo + 2*step}}})
		tinyB = append(tinyB, Object{ID: ID(k), Box: Box{Min: Point{lo + step, lo + step, lo + step}, Max: Point{lo + 3*step, lo + 3*step, lo + 3*step}}})
	}

	// One box over the whole universe among 2,047 small ones: a legal
	// inline probe. Unbounded, the root's grid alone holds 72.5M replicas.
	skewed := append(GenerateUniform(2047, 804), Object{ID: 2047, Box: Box{Min: Point{0, 0, 0}, Max: Point{1000, 1000, 1000}}})
	indexed := GenerateUniform(20_000, 805)

	for _, order := range []struct {
		name string
		a, b Dataset
		eps  float64
		cfg  TOUCHConfig
		// maxReplicas, when set, bounds Stats.Replicas of every path.
		maxReplicas int64
	}{
		{name: "hostile-indexed", a: hostile, b: plain, eps: 5},
		{name: "hostile-probing", a: plain, b: hostile, eps: 5},
		{name: "far-probing-finest-grid", a: plain, b: far, eps: 5, cfg: TOUCHConfig{CellFactor: 1e-22}},
		{name: "denormal", a: tinyA, b: tinyB},
		{name: "one-universe-box-probing", a: indexed, b: skewed, maxReplicas: 8 * int64(len(indexed)+len(skewed))},
	} {
		a, b, eps := order.a, order.b, order.eps
		nl, err := SpatialJoin(context.Background(), AlgNL, a, b, &Options{KeepOrder: true, Eps: eps})
		if err != nil {
			t.Fatal(err)
		}
		want := sortPairSet(nl.Pairs)
		if len(want) == 0 {
			t.Fatalf("%s: premise: the oracle found no pair", order.name)
		}
		check := func(path string, res *Result, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s/%s: %v", order.name, path, err)
			}
			if got := sortPairSet(res.Pairs); !slices.Equal(got, want) {
				t.Errorf("%s/%s: %d pairs, nested loop has %d", order.name, path, len(got), len(want))
			}
			if order.maxReplicas > 0 && res.Stats.Replicas > order.maxReplicas {
				t.Errorf("%s/%s: %d replicas joining %d × %d objects, want at most %d",
					order.name, path, res.Stats.Replicas, len(a), len(b), order.maxReplicas)
			}
		}

		idx := BuildIndex(a, order.cfg)
		for _, workers := range []int{1, 4} {
			// KeepOrder: each order must build the tree on its own A side.
			res, err := SpatialJoin(context.Background(), AlgTOUCH, a, b, &Options{KeepOrder: true, Workers: workers, TOUCH: order.cfg, Eps: eps})
			check(fmt.Sprintf("one-shot/w%d", workers), res, err)
			res, err = idx.Join(context.Background(), b, &Options{Workers: workers, Eps: eps})
			check(fmt.Sprintf("index/w%d", workers), res, err)
		}

		// The last object of a (the box reaching 1e25, or an ordinary one)
		// as a pending insert over an index of the rest.
		last := len(a) - 1
		m, err := NewMutable(a[:last], order.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if ids, err := m.Insert([]Box{a[last].Box}); err != nil || ids[0] != a[last].ID {
			t.Fatalf("%s: Insert = %v, %v, want ID %d", order.name, ids, err, a[last].ID)
		}
		res, err := m.View().Join(context.Background(), b, &Options{Eps: eps})
		check("overlay", res, err)
	}
}
