package touch

import (
	"context"
	"math/rand"
	"testing"

	"touch/internal/core"
	"touch/internal/stats"
)

// The tail-read harness: the update schedule of the benchmark's
// serve_mixed workload replayed on its 200K uniform base with no server
// and no goroutine, and reads on the generations it passes through.
const (
	tailBase    = 200_000
	tailInserts = 16 // boxes inserted per update
	tailDeletes = 8  // oldest live inserts deleted per update...
	tailAtLive  = 32 // ...once this many are live
	tailEvery   = 97 // updates between two sampled generations
	tailK       = 10
	tailJoinN   = 2048 // boxes of a join probe, as serve_read's wire joins
	tailEps     = 5    // and their distance
	// tailJoinMaxCmp bounds the comparisons of a join's tail: TOUCH over
	// the live inserts makes about 120 a join.
	tailJoinMaxCmp = 50_000
)

// tailReplay replays updates updates of the schedule — each deletes the
// 8 oldest live inserts once 32 are live and inserts 16 boxes, drawn in
// turn from 4,096 small boxes; an update that takes the unfolded tail to
// DefaultCompactThreshold folds it at once, through Overlay.Fold and
// Fold.Next — and hands every tailEvery-th generation to view.
func tailReplay(tb testing.TB, updates int, view func(v *Overlay)) {
	tb.Helper()
	v := BuildIndex(GenerateUniform(tailBase, 42), TOUCHConfig{})
	pool := GenerateUniform(4096, 45)
	var live []ID
	next := 0
	for u := 1; u <= updates; u++ {
		var deletes []ID
		if len(live) >= tailAtLive {
			deletes, live = live[:tailDeletes:tailDeletes], live[tailDeletes:]
		}
		inserts := make([]Box, tailInserts)
		for i := range inserts {
			// The pool's sides (at most 1) doubled, as serve_mixed draws them.
			b := pool[next%len(pool)].Box
			for d := range b.Max {
				b.Max[d] = b.Min[d] + 2*(b.Max[d]-b.Min[d])
			}
			inserts[i], next = b, next+1
		}
		nv, first, _, ok := v.Apply(inserts, deletes)
		if !ok {
			tb.Fatal("Apply refused an update")
		}
		for i := range inserts {
			live = append(live, first+ID(i))
		}
		v = nv
		if ins, tombs := v.Pending(); ins+tombs >= DefaultCompactThreshold {
			v = v.Fold(false, BuildIndex).Next(v)
		}
		if u%tailEvery == 0 {
			view(v)
		}
	}
}

// tailShapes returns the range boxes and kNN points of
// testutil.QueryWorkload(44, n), drawn in its order (its k is drawn and
// dropped: the harness reads with k = tailK).
func tailShapes(n int) ([]Box, []Point) {
	rng := rand.New(rand.NewSource(44))
	boxes, points := make([]Box, n), make([]Point, n)
	for i := range boxes {
		boxes[i], points[i] = queryBox(rng), queryPoint(rng)
		rng.Intn(24)
	}
	return boxes, points
}

// tailProbes returns n join probes of tailJoinN uniform boxes, seeds 142
// on, as the benchmark's serve_read draws its wire joins' probes.
func tailProbes(n int) []Dataset {
	probes := make([]Dataset, n)
	for i := range probes {
		probes[i] = GenerateUniform(tailJoinN, 142+int64(i))
	}
	return probes
}

// tailCounts is the work of one kind of read, summed over the reads.
type tailCounts struct {
	reads                     int
	baseCmp, baseNode         int64 // the base tier read alone, as a frozen index
	upperCmp, upperNode       int64 // the tiers above it
	tailCmp, tailNode         int64 // the unfolded tail
	overlayCmp, overlayNode   int64 // the whole traced read
	tiers, inserts, tombstone int   // per generation, summed per read
}

// countTailReads reads every shape on v, range and kNN, and adds each
// read's counters to rc and kc, split between the base, the upper tiers
// and the tail: the base's from a probe of the base tree alone, the
// tiers' from the same probe over every tier (with the tombstones as a
// kNN's skip list), the whole read's from the traced call.
func countTailReads(tb testing.TB, v *Overlay, boxes []Box, points []Point, rc, kc *tailCounts) {
	tb.Helper()
	probes := v.tiers[0].probes
	p := probes.Get().(*core.Probe)
	defer probes.Put(p)
	ins, tombs := v.Pending()
	for _, c := range []*tailCounts{rc, kc} {
		c.reads += len(boxes)
		c.tiers += len(v.tiers) * len(boxes)
		c.inserts += ins * len(boxes)
		c.tombstone += tombs * len(boxes)
	}
	skip := v.tail.Tombs()
	for i := range boxes {
		var base, tiers Stats
		p.RangeQuery(boxes[i], &base)
		p.RangeQuery(boxes[i], &tiers, v.upper...)
		var sp Span
		if _, err := v.RangeQueryTraced(boxes[i], &sp); err != nil {
			tb.Fatal(err)
		}
		rc.add(&base, &tiers, sp.Comparisons, sp.NodeTests)

		base, tiers, sp = Stats{}, Stats{}, Span{}
		p.Nearest(points[i], tailK, &base, skip)
		p.Nearest(points[i], tailK, &tiers, skip, v.upper...)
		if _, err := v.KNNTraced(points[i], tailK, &sp); err != nil {
			tb.Fatal(err)
		}
		kc.add(&base, &tiers, sp.Comparisons, sp.NodeTests)
	}
}

// countTailJoins joins every probe with v, as a server joins its current
// generation, and adds each join's counters to jc, split as
// countTailReads splits a read's: the base's from the base tier probed
// alone, the tiers' from every tier probed in turn, the whole join's —
// the tail's TOUCH join included — from Overlay.Join.
func countTailJoins(tb testing.TB, v *Overlay, probes []Dataset, jc *tailCounts) {
	tb.Helper()
	ins, tombs := v.Pending()
	jc.reads += len(probes)
	jc.tiers += len(v.tiers) * len(probes)
	jc.inserts += ins * len(probes)
	jc.tombstone += tombs * len(probes)
	none := stats.FuncSink(func(ID, ID) {})
	for _, b := range probes {
		var base, tiers Stats
		v.tiers[0].runProbe(b, tailEps, 1, nil, &base, none)
		v.probeTiers(b, tailEps, 1, nil, &tiers, none)
		res, err := v.Join(context.Background(), b, &Options{Eps: tailEps, NoPairs: true, Workers: 1})
		if err != nil {
			tb.Fatal(err)
		}
		jc.add(&base, &tiers, res.Stats.Comparisons, res.Stats.NodeTests)
	}
}

// add adds one read's counters: the base tier's, every tier's, and the
// whole read's comparisons and node tests.
func (c *tailCounts) add(base, tiers *Stats, cmp, node int64) {
	c.baseCmp += base.Comparisons
	c.baseNode += base.NodeTests
	c.upperCmp += tiers.Comparisons - base.Comparisons
	c.upperNode += tiers.NodeTests - base.NodeTests
	c.tailCmp += cmp - tiers.Comparisons
	c.tailNode += node - tiers.NodeTests
	c.overlayCmp += cmp
	c.overlayNode += node
}

func (c *tailCounts) log(tb testing.TB, kind, op string) {
	per := func(n int64) float64 { return float64(n) / float64(c.reads) }
	tb.Logf("%s, per %s over %d %ss (%.2f tiers, %.0f pending inserts, %.0f tombstones): "+
		"base alone %.1f comparisons / %.1f node tests; loaded overlay %.1f / %.1f = base %.1f / %.1f + upper tiers %.1f / %.1f + tail %.1f / %.1f",
		kind, op, c.reads, op, per(int64(c.tiers)), per(int64(c.inserts)), per(int64(c.tombstone)),
		per(c.baseCmp), per(c.baseNode), per(c.overlayCmp), per(c.overlayNode),
		per(c.baseCmp), per(c.baseNode), per(c.upperCmp), per(c.upperNode), per(c.tailCmp), per(c.tailNode))
}

// TestOverlayTailReadCounts prints what a read costs on the harness's
// generations — comparisons and node tests per range and kNN read, and
// per join of a tailJoinN-box probe, for the base alone and for the
// loaded overlay split into base, upper tiers and tail (run it with -v) —
// and pins their integer totals to a literal table, so a change that moves
// the work of a read shows in the test's diff. It checks the split's
// premise: the tail's box tests and the upper tiers' node
// tests are counted. And it holds a join's tail to tailJoinMaxCmp
// comparisons: a brute-force pass over the pending inserts makes about
// 2.8M. The counts do not depend on the race detector, which would only
// make the replay slow.
func TestOverlayTailReadCounts(t *testing.T) {
	if raceEnabled {
		t.Skip("a count harness; the race detector adds nothing but time")
	}
	boxes, points := tailShapes(4096)
	probes := tailProbes(2)
	var rc, kc, jc tailCounts
	gens := 0
	tailReplay(t, 51*tailEvery, func(v *Overlay) {
		gens++
		countTailReads(t, v, boxes, points, &rc, &kc)
		countTailJoins(t, v, probes, &jc)
	})
	t.Logf("%d generations, %d shapes and %d join probes each", gens, len(boxes), len(probes))
	rc.log(t, "range", "read")
	kc.log(t, "kNN", "read")
	jc.log(t, "join", "join")
	// The totals are exact: the base, the update schedule, the shapes and
	// the probes are seeded, and every read and join runs on one worker.
	// They move only with what a read or a join tests — the engine's
	// descent, leaf scans or local join, the overlay's tier and tail
	// reads — or with what shapes the tiers: the schedule, the fold and
	// the build. A change that moves them edits this table, and the old
	// and the new totals show in its diff.
	for _, g := range []struct {
		kind      string
		got, want tailCounts
	}{
		{"range", rc, tailCounts{
			reads: 208896, baseCmp: 76106943, baseNode: 13009284, upperCmp: 9507685, upperNode: 9113760,
			tailCmp: 44434762, tailNode: 0, overlayCmp: 130049390, overlayNode: 22123044,
			tiers: 524288, inserts: 290062336, tombstone: 144965632,
		}},
		{"kNN", kc, tailCounts{
			reads: 208896, baseCmp: 53712894, baseNode: 9254868, upperCmp: 14690316, upperNode: 7383008,
			tailCmp: 36764009, tailNode: 0, overlayCmp: 105167219, overlayNode: 16637876,
			tiers: 524288, inserts: 290062336, tombstone: 144965632,
		}},
		{"join", jc, tailCounts{
			reads: 102, baseCmp: 4069902, baseNode: 8060040, upperCmp: 334023, upperNode: 5800177,
			tailCmp: 12127, tailNode: 3370144, overlayCmp: 4416052, overlayNode: 17230361,
			tiers: 256, inserts: 141632, tombstone: 70784,
		}},
	} {
		if g.got != g.want {
			t.Errorf("%s totals:\n got %+v\nwant %+v", g.kind, g.got, g.want)
		}
	}
	for _, c := range []*tailCounts{&rc, &kc, &jc} {
		if c.tailCmp <= 0 || c.upperNode <= 0 {
			t.Errorf("premise: the tail's box tests (%d) and the upper tiers' node tests (%d) are not counted", c.tailCmp, c.upperNode)
		}
	}
	if per := jc.tailCmp / int64(jc.reads); per >= tailJoinMaxCmp {
		t.Errorf("a join's tail makes %d comparisons, at most %d allowed: the pending inserts are not joined through a tree", per, tailJoinMaxCmp)
	}
}

// BenchmarkOverlayTailReads times range and kNN reads and joins on the
// harness's sampled generations, one read or join an op: every shape on
// one generation, then on the next, as a server reads its current
// generation; the replay itself is set-up. A join is count-only on one
// worker, a tailJoinN-box probe at ε = tailEps.
func BenchmarkOverlayTailReads(b *testing.B) {
	var views []*Overlay
	tailReplay(b, 51*tailEvery, func(v *Overlay) { views = append(views, v) })
	boxes, points := tailShapes(4096)
	probes := tailProbes(6)
	for _, kind := range []string{"range", "knn", "join"} {
		b.Run(kind, func(b *testing.B) {
			n := len(boxes)
			if kind == "join" {
				n = len(probes)
			}
			for i := 0; i < b.N; i++ {
				v, j := views[(i/n)%len(views)], i%n
				var err error
				switch kind {
				case "range":
					_, err = v.RangeQuery(boxes[j])
				case "knn":
					_, err = v.KNN(points[j], tailK)
				default:
					_, err = v.Join(context.Background(), probes[j], &Options{Eps: tailEps, NoPairs: true, Workers: 1})
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
