package testutil

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"touch"
	"touch/internal/geom"
	"touch/internal/stats"
)

// The tail-join differential suite: an Overlay joins its pending inserts
// with TOUCH, the tree over the live inserts or over the probe, whichever
// is smaller unless KeepOrder keeps it on the inserts. Every join of a
// generation with a live tail must equal the join of an index rebuilt
// from the generation's dataset, whichever side builds the tree, at every
// distance, worker count and probe shape, under a limit and through a
// cancellation.

// tailGeneration returns a generation of a 400-object base with 240
// pending inserts, the first of them first, three with infinite corners
// and two with a NaN one, and tombstones on base objects and inserts
// alike: 226 inserts stay live.
func tailGeneration(t *testing.T) (v *touch.Overlay, first geom.ID) {
	t.Helper()
	rng := rand.New(rand.NewSource(9501))
	idx := touch.BuildIndex(touch.GenerateUniform(400, 9502).Expand(6), touch.TOUCHConfig{})
	inserts := randBoxes(rng, 240)
	nan, inf := math.NaN(), math.Inf(1)
	inserts[20].Min[0], inserts[21].Max[1] = -inf, inf
	inserts[22] = geom.Box{Min: geom.Point{-inf, -inf, -inf}, Max: geom.Point{inf, inf, inf}}
	inserts[23].Min[2], inserts[24].Max[0] = nan, nan
	v, first, _, ok := idx.Apply(inserts, nil)
	if !ok {
		t.Fatal("Apply refused the inserts")
	}
	deletes := []geom.ID{3, 77, 350, first, first + 1, first + 239}
	for i := geom.ID(10); i < 230; i += 20 {
		deletes = append(deletes, first+i)
	}
	v, _, deleted, ok := v.Apply(nil, deletes)
	if !ok || deleted != len(deletes) {
		t.Fatalf("Apply deleted %d of %d", deleted, len(deletes))
	}
	return v, first
}

// tailProbes returns the probe shapes of the suite: one box; fewer and
// more boxes than the live tail, so that either side builds the tree;
// boxes with infinite corners; none; and many copies of one box.
func tailProbes() map[string]touch.Dataset {
	inf := math.Inf(1)
	corners := touch.GenerateUniform(60, 9504)
	corners[0].Box.Min[0], corners[1].Box.Max[1] = -inf, inf
	corners[2].Box = geom.Box{Min: geom.Point{-inf, -inf, -inf}, Max: geom.Point{inf, inf, inf}}
	corners[3].Box.Min[2], corners[3].Box.Max[2] = -inf, -1e300
	return map[string]touch.Dataset{
		"one-box":      touch.GenerateUniform(1, 9503).Expand(80),
		"smaller":      touch.GenerateUniform(60, 9505).Expand(30),
		"larger":       touch.GenerateUniform(300, 9506).Expand(10),
		"inf-corners":  corners,
		"empty":        nil,
		"all-one-spot": IdenticalSet(250, geom.NewBox(geom.Point{500, 500, 500}, geom.Point{520, 520, 520})),
	}
}

// TestOverlayTailJoinDifferential: every probe shape, distance and join
// form equals the rebuilt index's join, pair for pair and in
// Stats.Results; the rebuilt index's pairs are the nested loop's.
func TestOverlayTailJoinDifferential(t *testing.T) {
	v, _ := tailGeneration(t)
	oracle := touch.BuildIndex(v.Dataset(), touch.TOUCHConfig{})
	for name, probe := range tailProbes() {
		for _, eps := range []float64{0, 5, math.Inf(1)} {
			want := PairSet(mustJoin(t, oracle, probe, &touch.Options{Eps: eps}).Pairs)
			if nested, err := OraclePairs(v.Dataset().Expand(eps), probe); err != nil || !slices.Equal(want, nested) {
				t.Fatalf("%s, eps=%g: premise: the rebuilt index's %d pairs are not the nested loop's %d (%v)", name, eps, len(want), len(nested), err)
			}
			for _, opt := range []touch.Options{{}, {KeepOrder: true}, {Workers: 2}} {
				opt.Eps = eps
				t.Run(fmt.Sprintf("%s/eps=%g/keep=%t/workers=%d", name, eps, opt.KeepOrder, opt.Workers), func(t *testing.T) {
					got := mustJoin(t, v, probe, &opt)
					if g := PairSet(got.Pairs); !slices.Equal(g, want) {
						t.Fatalf("%d pairs, the rebuilt index's %d (first diff %d)", len(g), len(want), firstDiff(g, want))
					}
					if got.Stats.Results != int64(len(got.Pairs)) {
						t.Fatalf("Stats.Results=%d but %d pairs", got.Stats.Results, len(got.Pairs))
					}
				})
			}
		}
	}
}

// TestOverlayTailJoinLimit: a limit that stops the join in the tiers, in
// the tail's pass, at the total and past it delivers exactly min(limit,
// total) pairs, each one of the rebuilt index's, on either side of the
// tail's tree; a join stopped in the tiers does not build the tail's.
func TestOverlayTailJoinLimit(t *testing.T) {
	v, first := tailGeneration(t)
	oracle := touch.BuildIndex(v.Dataset(), touch.TOUCHConfig{})
	for _, name := range []string{"smaller", "larger"} {
		probe := tailProbes()[name]
		all := PairSet(mustJoin(t, oracle, probe, &touch.Options{Eps: 5}).Pairs)
		tiers := int64(slices.IndexFunc(all, func(p touch.Pair) bool { return p.A >= first }))
		total := int64(len(all))
		if tiers <= 0 || total-tiers < 4 {
			t.Fatalf("%s: premise: %d tier pairs and %d tail pairs", name, tiers, total-tiers)
		}
		for _, limit := range []int64{1, tiers + 1, (tiers + total) / 2, total, total + 3} {
			res := mustJoin(t, v, probe, &touch.Options{Eps: 5, Limit: limit})
			if n := min(limit, total); int64(len(res.Pairs)) != n || res.Stats.Results != n {
				t.Fatalf("%s, Limit %d: %d pairs, Stats.Results %d, want %d", name, limit, len(res.Pairs), res.Stats.Results, n)
			}
			for _, p := range res.Pairs {
				if _, ok := slices.BinarySearchFunc(all, p, comparePairs); !ok {
					t.Fatalf("%s, Limit %d: pair %v is not the rebuilt index's", name, limit, p)
				}
			}
		}
		// Stopped in the tiers, the join builds no tree over the tail.
		tiersOnly := touch.NewOverlay(v, nil, nil)
		got := mustJoin(t, v, probe, &touch.Options{Eps: 5, Limit: 1}).Stats.MemoryBytes
		if want := mustJoin(t, tiersOnly, probe, &touch.Options{Eps: 5, Limit: 1}).Stats.MemoryBytes; got != want {
			t.Fatalf("%s, Limit 1: MemoryBytes %d, the tiers' alone %d", name, got, want)
		}
	}
}

// comparePairs orders pairs as PairSet sorts them.
func comparePairs(x, y touch.Pair) int {
	return cmp.Or(cmp.Compare(x.A, y.A), cmp.Compare(x.B, y.B))
}

// TestOverlayTailJoinCancel: a sink that cancels the context on the
// first pair of the tail stops the tail's pass at a checkpoint, on either
// side of its tree and at either worker count: the join returns
// ErrJoinCanceled, and Emit is not called after it returns.
func TestOverlayTailJoinCancel(t *testing.T) {
	v, first := tailGeneration(t)
	for _, name := range []string{"smaller", "larger"} {
		for _, workers := range []int{1, 2} {
			ctx, cancel := context.WithCancel(context.Background())
			var returned, late atomic.Bool
			sink := stats.FuncSink(func(a, b geom.ID) {
				if returned.Load() {
					late.Store(true)
				}
				if a >= first {
					cancel()
				}
			})
			_, err := v.Join(ctx, tailProbes()[name], &touch.Options{Eps: math.Inf(1), Workers: workers, Sink: sink})
			returned.Store(true)
			time.Sleep(time.Millisecond)
			cancel()
			if !errors.Is(err, touch.ErrJoinCanceled) || !errors.Is(err, context.Canceled) {
				t.Errorf("%s, workers=%d: err %v, want ErrJoinCanceled", name, workers, err)
			}
			if late.Load() {
				t.Errorf("%s, workers=%d: Emit called after the join returned", name, workers)
			}
		}
	}
}

// TestOverlayTailJoinAllDead: a tail whose inserts are all tombstoned
// adds no pair, and the join equals the rebuilt index's.
func TestOverlayTailJoinAllDead(t *testing.T) {
	v, first := tailGeneration(t)
	ins, _ := v.Pending()
	var ids []geom.ID
	for id := first; id < first+geom.ID(ins); id++ {
		ids = append(ids, id)
	}
	w, _, _, ok := v.Apply(nil, ids)
	if !ok {
		t.Fatal("Apply refused the deletes")
	}
	oracle := touch.BuildIndex(w.Dataset(), touch.TOUCHConfig{})
	for name, probe := range tailProbes() {
		got, want := mustJoin(t, w, probe, &touch.Options{Eps: 5}), mustJoin(t, oracle, probe, &touch.Options{Eps: 5})
		if g, w := PairSet(got.Pairs), PairSet(want.Pairs); !slices.Equal(g, w) || got.Stats.Results != int64(len(w)) {
			t.Fatalf("%s: %d pairs (Stats.Results %d), the rebuilt index's %d", name, len(g), got.Stats.Results, len(w))
		}
	}
}

// TestOverlayTailJoinMemory: Stats.MemoryBytes of a join over a live tail
// holds the tail tree's static bytes on top of what the tiers' probes
// account, the tree over the inserts under KeepOrder and over the smaller
// side without it.
func TestOverlayTailJoinMemory(t *testing.T) {
	v, first := tailGeneration(t)
	live := slices.DeleteFunc(v.Dataset(), func(o touch.Object) bool { return o.ID < first })
	inserts := touch.BuildIndex(live, v.Config()).Stats().StaticBytes
	tiersOnly := touch.NewOverlay(v, nil, nil)
	for _, name := range []string{"smaller", "larger"} {
		probe := tailProbes()[name]
		memory := func(v *touch.Overlay, keep bool) int64 {
			return mustJoin(t, v, probe, &touch.Options{Eps: 5, NoPairs: true, KeepOrder: keep}).Stats.MemoryBytes
		}
		tiers, kept, picked := memory(tiersOnly, true), memory(v, true), memory(v, false)
		tree := inserts
		if len(probe) < len(live) {
			tree = touch.BuildIndex(probe.Expand(5), v.Config()).Stats().StaticBytes
		}
		if inserts <= 0 || kept < tiers+inserts || picked < tiers+tree {
			t.Errorf("%s: MemoryBytes %d with KeepOrder and %d without, want at least the tiers' %d and the tail tree's, %d over the inserts and %d over the smaller side",
				name, kept, picked, tiers, inserts, tree)
		}
		if swapped := picked != kept; swapped != (len(probe) < len(live)) {
			t.Errorf("%s: %d probe boxes, %d live inserts: MemoryBytes %d with KeepOrder and %d without", name, len(probe), len(live), kept, picked)
		}
	}
}
