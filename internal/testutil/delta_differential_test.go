package testutil

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"touch"
	"touch/internal/geom"
	"touch/internal/nl"
	"touch/internal/stats"
)

// The delta-layer differential suite: a Mutable driven through random
// interleavings of insert / delete / compact must answer every query
// shape and every join bit-identically to an index rebuilt from scratch
// over its merged dataset after every single step. The rebuild oracle
// is the definition of correctness the Overlay merge path claims, so
// any divergence — a tombstone leaking into an answer, an insert
// missed by a join, a compaction dropping an in-flight update — fails
// here with the op script that produced it.

// randBoxes generates n random boxes in the generator universe.
func randBoxes(rng *rand.Rand, n int) []geom.Box {
	boxes := make([]geom.Box, n)
	for i := range boxes {
		var lo, hi geom.Point
		for d := 0; d < geom.Dims; d++ {
			lo[d] = rng.Float64() * 1000
			hi[d] = lo[d] + rng.Float64()*60
		}
		boxes[i] = geom.NewBox(lo, hi)
	}
	return boxes
}

// foldTail has the scheduler fold the unfolded tail of m, whose automatic
// compaction the test keeps off otherwise, and returns once that fold has
// published — the scheduled fold, which decides by its rule how many
// tiers it rewrites, where Compact always rewrites them all. The caller
// is the only writer.
func foldTail(t testing.TB, m *touch.Mutable) {
	t.Helper()
	st := m.Stats()
	if st.DeltaInserts+st.DeltaTombstones == 0 {
		return
	}
	m.SetCompactThreshold(1)
	for deadline := time.Now().Add(30 * time.Second); m.Stats().Compactions == st.Compactions; time.Sleep(50 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("the scheduled fold never published")
		}
	}
	m.SetCompactThreshold(0)
	checkTiers(t, m, true)
}

// checkTiers holds the tiers of m's current generation to their
// invariants: ID ranges ascending and disjoint, nothing empty above the
// base — and, right after a fold, every tier more than twice as large as
// everything above it together (which bounds the tier count by the
// logarithm of the dataset) and less than half dead.
func checkTiers(t testing.TB, m *touch.Mutable, folded bool) {
	t.Helper()
	tiers := m.View().Tiers()
	above, last := 0, geom.ID(-1)
	for i := len(tiers) - 1; i >= 0; i-- {
		tier := tiers[i]
		if folded && (2*above >= tier.Objects || 2*tier.Dead >= tier.Objects) && tier.Objects+above > 0 {
			t.Fatalf("after a fold tier %d holds %d objects, %d of them dead, under %d above it: %+v", i, tier.Objects, tier.Dead, above, tiers)
		}
		above += tier.Objects
	}
	for i, tier := range tiers {
		if tier.Objects == 0 && i > 0 {
			t.Fatalf("tier %d is empty: %+v", i, tiers)
		}
		if tier.Objects > 0 && (tier.MinID <= last || tier.MaxID < tier.MinID) {
			t.Fatalf("tier %d spans IDs [%d, %d] after %d: %+v", i, tier.MinID, tier.MaxID, last, tiers)
		}
		if tier.Objects > 0 {
			last = tier.MaxID
		}
	}
	if folded && len(tiers) > bits.Len(uint(above))+1 {
		t.Fatalf("%d tiers over %d objects: %+v", len(tiers), above, tiers)
	}
}

// liveIDs lists the IDs currently live in the mutable's merged view.
func liveIDs(m *touch.Mutable) []geom.ID {
	ds := m.Dataset()
	ids := make([]geom.ID, len(ds))
	for i, o := range ds {
		ids[i] = o.ID
	}
	return ids
}

// checkMutableAgainstRebuild compares every query shape and the
// materializing, count-only and streaming join forms between the
// mutable's current generation and an index rebuilt from its merged
// dataset.
func checkMutableAgainstRebuild(t *testing.T, m *touch.Mutable, probe touch.Dataset, seed int64) {
	t.Helper()
	checkOverlayAgainstRebuild(t, m.View(), probe, seed)
}

// checkOverlayAgainstRebuild is checkMutableAgainstRebuild for one
// generation v, which must hold its dataset (built by BuildIndex and the
// steps after it).
func checkOverlayAgainstRebuild(t *testing.T, v *touch.Overlay, probe touch.Dataset, seed int64) {
	t.Helper()
	merged := v.Dataset()
	rebuilt := touch.BuildIndex(merged, touch.TOUCHConfig{})

	boxes, points, ks := QueryWorkload(seed, 8)
	for i := range boxes {
		got, err := v.RangeQuery(boxes[i])
		if err != nil {
			t.Fatalf("RangeQuery: %v", err)
		}
		want, err := rebuilt.RangeQuery(boxes[i])
		if err != nil {
			t.Fatalf("rebuilt RangeQuery: %v", err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("RangeQuery(%v) diverges from rebuild: got %v, want %v", boxes[i], got, want)
		}
		if oracle := nl.RangeQuery(merged, boxes[i]); !slices.Equal(got, oracle) {
			t.Fatalf("RangeQuery(%v) diverges from oracle: got %v, want %v", boxes[i], got, oracle)
		}

		p := points[i]
		gotPt, err := v.PointQuery(p[0], p[1], p[2])
		if err != nil {
			t.Fatalf("PointQuery: %v", err)
		}
		wantPt, _ := rebuilt.PointQuery(p[0], p[1], p[2])
		if !slices.Equal(gotPt, wantPt) {
			t.Fatalf("PointQuery(%v) diverges from rebuild: got %v, want %v", p, gotPt, wantPt)
		}

		gotK, err := v.KNN(p, ks[i])
		if err != nil {
			t.Fatalf("KNN: %v", err)
		}
		wantK, _ := rebuilt.KNN(p, ks[i])
		if !slices.Equal(gotK, wantK) {
			t.Fatalf("KNN(%v, %d) diverges from rebuild: got %v, want %v", p, ks[i], gotK, wantK)
		}
	}

	for _, eps := range []float64{0, 7.5} {
		res, err := v.DistanceJoin(probe, eps, nil)
		if err != nil {
			t.Fatalf("DistanceJoin: %v", err)
		}
		wantRes, err := rebuilt.DistanceJoin(probe, eps, nil)
		if err != nil {
			t.Fatalf("rebuilt DistanceJoin: %v", err)
		}
		got, want := PairSet(res.Pairs), PairSet(wantRes.Pairs)
		if !slices.Equal(got, want) {
			t.Fatalf("DistanceJoin(eps=%g) diverges from rebuild: %d pairs, want %d (first diff %d)",
				eps, len(got), len(want), firstDiff(got, want))
		}
		if res.Stats.Results != int64(len(got)) {
			t.Fatalf("DistanceJoin(eps=%g): Stats.Results=%d but %d pairs", eps, res.Stats.Results, len(got))
		}

		count, err := v.DistanceJoin(probe, eps, &touch.Options{NoPairs: true})
		if err != nil {
			t.Fatalf("count-only DistanceJoin: %v", err)
		}
		if count.Stats.Results != int64(len(want)) {
			t.Fatalf("count-only DistanceJoin(eps=%g) = %d, want %d", eps, count.Stats.Results, len(want))
		}

		var streamed []touch.Pair
		sink := stats.FuncSink(func(a, b geom.ID) { streamed = append(streamed, touch.Pair{A: a, B: b}) })
		if _, err := v.DistanceJoinCtx(context.Background(), probe, eps, &touch.Options{Sink: sink}); err != nil {
			t.Fatalf("DistanceJoinCtx into a sink: %v", err)
		}
		if got := PairSet(streamed); !slices.Equal(got, want) {
			t.Fatalf("DistanceJoinCtx(eps=%g) into a sink diverges from rebuild: %d pairs, want %d", eps, len(got), len(want))
		}
	}

	// Limit must deliver exactly min(limit, total) live pairs — never a
	// tombstoned one (every delivered pair's A side must be live).
	res := v.Join(probe, &touch.Options{Limit: 5})
	if res != nil {
		alive := make(map[geom.ID]bool, len(merged))
		for _, o := range merged {
			alive[o.ID] = true
		}
		full, _ := rebuilt.JoinCtx(context.Background(), probe, nil)
		wantN := min(5, len(full.Pairs))
		if len(res.Pairs) != wantN {
			t.Fatalf("Limit=5 delivered %d pairs, want %d", len(res.Pairs), wantN)
		}
		for _, p := range res.Pairs {
			if !alive[p.A] {
				t.Fatalf("Limit join delivered tombstoned pair %v", p)
			}
		}
	}
}

// TestDifferentialMutable drives random op scripts — insert a random
// batch, delete a random subset (live IDs, repeats and unknowns mixed),
// fold the tail as the scheduler would, or compact — and verifies the
// full rebuild equivalence and the tier invariants after every step,
// across several seeds and base shapes.
func TestDifferentialMutable(t *testing.T) {
	bases := []struct {
		name string
		ds   touch.Dataset
	}{
		{"uniform", touch.GenerateUniform(250, 9001).Expand(10)},
		{"clustered", touch.GenerateClustered(200, 9002).Expand(6)},
		{"empty", nil},
	}
	for _, base := range bases {
		for seed := int64(0); seed < 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", base.name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(9100 + seed))
				m, err := touch.NewMutable(base.ds, touch.TOUCHConfig{})
				if err != nil {
					t.Fatal(err)
				}
				m.SetCompactThreshold(0) // compaction only via the explicit op
				probe := touch.GenerateUniform(120, 9200+seed)

				issued := geom.ID(len(base.ds)) - 1
				for step := 0; step < 14; step++ {
					switch op := rng.Intn(6); {
					case op <= 1: // insert
						ids, err := m.Insert(randBoxes(rng, 1+rng.Intn(40)))
						if err != nil {
							t.Fatalf("step %d insert: %v", step, err)
						}
						if ids[0] <= issued {
							t.Fatalf("step %d: insert received ID %d, IDs up to %d have been issued", step, ids[0], issued)
						}
						issued = ids[len(ids)-1]
					case op <= 3: // delete
						ids := liveIDs(m)
						var del []geom.ID
						for i := 0; i < rng.Intn(20); i++ {
							if len(ids) > 0 && rng.Intn(4) > 0 {
								del = append(del, ids[rng.Intn(len(ids))]) // live (maybe repeated)
							} else {
								del = append(del, geom.ID(rng.Intn(100000))) // likely unknown
							}
						}
						m.Delete(del)
					case op == 4: // the scheduled fold
						foldTail(t, m)
					default: // compact
						m.Compact()
						if tiers := m.View().Tiers(); len(tiers) != 1 || tiers[0].Dead != 0 {
							t.Fatalf("step %d: Compact left %+v", step, tiers)
						}
					}
					checkTiers(t, m, false)
					checkMutableAgainstRebuild(t, m, probe, 9300+seed*100+int64(step))
				}
			})
		}
	}
}

// TestDifferentialMutableLargeDelta is the regime the compaction
// threshold normally keeps out of sight: a delta of more than twice
// DefaultCompactThreshold inserts with auto-compaction off, half of
// them tombstoned, tombstones on base and insert IDs alike and handed
// to Delete shuffled and with repeats. Every query shape and join form
// of checkMutableAgainstRebuild must still equal the rebuilt index —
// before the fold, after more updates on top, and after the fold.
func TestDifferentialMutableLargeDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(9400))
	base := touch.GenerateUniform(900, 9401).Expand(6)
	m, err := touch.NewMutable(base, touch.TOUCHConfig{})
	if err != nil {
		t.Fatal(err)
	}
	m.SetCompactThreshold(0)
	probe := touch.GenerateUniform(90, 9402)

	ids, err := m.Insert(randBoxes(rng, 2*touch.DefaultCompactThreshold+57))
	if err != nil {
		t.Fatal(err)
	}
	var del []geom.ID
	for i, id := range ids {
		if i%2 == 0 {
			del = append(del, id)
		}
	}
	for i := 0; i < len(base); i += 3 {
		del = append(del, base[i].ID, base[i].ID) // repeats inside the batch
	}
	rng.Shuffle(len(del), func(i, j int) { del[i], del[j] = del[j], del[i] })
	if got, want := m.Delete(del), (len(ids)+1)/2+(len(base)+2)/3; got != want {
		t.Fatalf("Delete tombstoned %d objects, want %d", got, want)
	}
	if st := m.Stats(); st.DeltaInserts != len(ids) || st.DeltaTombstones*2 < st.DeltaInserts {
		t.Fatalf("delta is not the large regime: %+v", st)
	}
	checkMutableAgainstRebuild(t, m, probe, 9410)

	// More history on top: inserts after the tombstones, deletes that
	// hit old inserts, new inserts, dead IDs and the base again.
	more, err := m.Insert(randBoxes(rng, 300))
	if err != nil {
		t.Fatal(err)
	}
	m.Delete([]geom.ID{more[7], ids[1], ids[0], base[1].ID, more[7], ids[len(ids)-1], 1 << 30})
	checkMutableAgainstRebuild(t, m, probe, 9411)

	if !m.Compact() {
		t.Fatal("Compact had nothing to fold")
	}
	if st := m.Stats(); st.DeltaInserts != 0 || st.DeltaTombstones != 0 {
		t.Fatalf("post-compact delta not empty: %+v", st)
	}
	checkMutableAgainstRebuild(t, m, probe, 9412)
}

// TestDifferentialMutableTiers is the history the fold rule is for: a
// base of 4,000 objects under tails that come in geometrically smaller,
// so that the scheduled folds stack three tiers on it before anything is
// merged; then rounds of inserts and of deletes aimed into every tier and
// into the tail, with scheduled folds that now add a tier and now rewrite
// the ones the tail has outgrown. After every step every query and join
// form must equal the index rebuilt from Dataset(), no ID may come back,
// and after every fold the tiers must satisfy checkTiers.
func TestDifferentialMutableTiers(t *testing.T) {
	rng := rand.New(rand.NewSource(9700))
	base := touch.GenerateUniform(4000, 9701).Expand(4)
	m, err := touch.NewMutable(base, touch.TOUCHConfig{})
	if err != nil {
		t.Fatal(err)
	}
	m.SetCompactThreshold(0)
	probe := touch.GenerateUniform(150, 9702)
	issued := geom.ID(len(base)) - 1
	insert := func(n int) {
		t.Helper()
		ids, err := m.Insert(randBoxes(rng, n))
		if err != nil {
			t.Fatal(err)
		}
		if ids[0] <= issued {
			t.Fatalf("insert received ID %d, IDs up to %d have been issued", ids[0], issued)
		}
		issued = ids[len(ids)-1]
	}
	// deleteEverywhere tombstones a few live objects of every tier and of
	// the tail, plus IDs that are already dead or were never issued.
	deleteEverywhere := func() {
		live := liveIDs(m)
		var del []geom.ID
		for _, tier := range m.View().Tiers() {
			lo, _ := slices.BinarySearch(live, tier.MinID)
			hi, _ := slices.BinarySearch(live, tier.MaxID+1)
			for i := 0; i < 1+tier.Objects/25 && lo < hi; i++ {
				del = append(del, live[lo+rng.Intn(hi-lo)])
			}
		}
		if st := m.Stats(); st.DeltaInserts > 0 {
			del = append(del, live[len(live)-1-rng.Intn(min(st.DeltaInserts, len(live)))], issued+7, del[0])
		}
		rng.Shuffle(len(del), func(i, j int) { del[i], del[j] = del[j], del[i] })
		m.Delete(del)
	}
	step := int64(0)
	check := func() {
		t.Helper()
		checkTiers(t, m, false)
		checkMutableAgainstRebuild(t, m, probe, 9710+step)
		step++
	}

	for _, n := range []int{1000, 300, 100} {
		insert(n)
		check()
		foldTail(t, m)
		check()
	}
	if tiers := m.View().Tiers(); len(tiers) != 4 {
		t.Fatalf("three geometrically shrinking tails left %d tiers, want 4: %+v", len(tiers), tiers)
	}
	added, merged, outlived := 0, 0, 0
	for round := 0; round < 14; round++ {
		insert(20 + rng.Intn(150))
		deleteEverywhere()
		check()
		if round%2 == 1 {
			before := len(m.View().Tiers())
			foldTail(t, m)
			if after := len(m.View().Tiers()); after > before {
				added++
			} else {
				merged++
			}
			if st := m.Stats(); st.DeltaInserts+st.DeltaTombstones != 0 {
				t.Fatalf("a fold left %d inserts and %d tombstones unfolded", st.DeltaInserts, st.DeltaTombstones)
			}
			for _, tier := range m.View().Tiers() {
				outlived += tier.Dead
			}
			check()
		}
	}
	if added == 0 || merged == 0 {
		t.Fatalf("%d folds added a tier and %d merged some: the history exercises one kind only", added, merged)
	}
	if outlived == 0 {
		t.Fatal("no tombstone outlived a fold: the settled-tombstone path never ran")
	}
	insert(60)
	foldTail(t, m)
	deleteEverywhere()
	if !m.Compact() {
		t.Fatal("Compact had nothing to fold")
	}
	if tiers := m.View().Tiers(); len(tiers) != 1 || tiers[0].Dead != 0 || tiers[0].Objects != len(m.Dataset()) {
		t.Fatalf("Compact left %+v over %d live objects", tiers, len(m.Dataset()))
	}
	check()
	insert(1)
}

// TestMutableTiersUnderRacingWrites: folds racing writers. One writer
// inserts and deletes (into old tiers as well) with the threshold at 48,
// so background folds add and merge tiers underneath it the whole time,
// while readers take a View, rebuild an index from that very View's
// Dataset and hold the View to it: a generation is immutable, whatever
// publishes meanwhile. Run under -race.
func TestMutableTiersUnderRacingWrites(t *testing.T) {
	m, err := touch.NewMutable(touch.GenerateUniform(3000, 9801).Expand(6), touch.TOUCHConfig{})
	if err != nil {
		t.Fatal(err)
	}
	m.SetCompactThreshold(48)
	stop := make(chan struct{})
	errs := make(chan error, 8)
	var readers sync.WaitGroup
	var maxTiers atomic.Int64
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(9810 + r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := m.View()
				tiers := v.Tiers()
				for old := maxTiers.Load(); int64(len(tiers)) > old && !maxTiers.CompareAndSwap(old, int64(len(tiers))); old = maxTiers.Load() {
				}
				for i := 1; i < len(tiers); i++ {
					if tiers[i].MinID <= tiers[i-1].MaxID {
						errs <- fmt.Errorf("tier ID ranges overlap: %+v", tiers)
						return
					}
				}
				rebuilt := touch.BuildIndex(v.Dataset(), touch.TOUCHConfig{})
				boxes, points, ks := QueryWorkload(rng.Int63(), 6)
				for i := range boxes {
					got, _ := v.RangeQuery(boxes[i])
					if want, _ := rebuilt.RangeQuery(boxes[i]); !slices.Equal(got, want) {
						errs <- fmt.Errorf("RangeQuery(%v) over %d tiers: %d ids, its generation's rebuild has %d", boxes[i], len(tiers), len(got), len(want))
						return
					}
					gotK, _ := v.KNN(points[i], ks[i])
					if wantK, _ := rebuilt.KNN(points[i], ks[i]); !slices.Equal(gotK, wantK) {
						errs <- fmt.Errorf("KNN(%v, %d) over %d tiers diverges from its generation's rebuild", points[i], ks[i], len(tiers))
						return
					}
				}
			}
		}(r)
	}
	rng := rand.New(rand.NewSource(9820))
	issued := geom.ID(2999)
	for i := 0; i < 500; i++ {
		ids, err := m.Insert(randBoxes(rng, 12))
		if err != nil {
			t.Fatal(err)
		}
		if ids[0] <= issued {
			t.Fatalf("insert received ID %d, IDs up to %d have been issued", ids[0], issued)
		}
		issued = ids[len(ids)-1]
		m.Delete([]geom.ID{geom.ID(rng.Intn(int(issued))), geom.ID(rng.Intn(int(issued))), ids[0] - 5, ids[3]})
		// Writes cost microseconds and folds milliseconds: wait for the
		// scheduler now and then, or one fold absorbs the whole history.
		for st := m.Stats(); st.DeltaInserts > 150; st = m.Stats() {
			time.Sleep(100 * time.Microsecond)
		}
	}
	close(stop)
	readers.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	// Let the scheduler's chain end, then hold the final state to both.
	for st := m.Stats(); st.DeltaInserts+st.DeltaTombstones >= 48; st = m.Stats() {
		time.Sleep(time.Millisecond)
	}
	if st := m.Stats(); st.Compactions < 20 || maxTiers.Load() < 3 {
		t.Fatalf("%d folds published and at most %d tiers seen: the writer never raced a tiered fold", st.Compactions, maxTiers.Load())
	}
	checkTiers(t, m, false)
	checkMutableAgainstRebuild(t, m, touch.GenerateUniform(100, 9830), 9831)
}

// TestNewOverlayContract: the public constructor accepts what callers
// outside the delta layer hand it — inserts already filtered of the
// deleted objects or not, deleted IDs in any order — answers exactly as
// the rebuilt index either way, leaves the caller's slices alone, and
// refuses inserts that break the ID invariant instead of answering out
// of order.
func TestNewOverlayContract(t *testing.T) {
	base := touch.GenerateUniform(300, 9501).Expand(8)
	idx := touch.BuildIndex(base, touch.TOUCHConfig{})
	var inserts, live touch.Dataset
	for i, b := range randBoxes(rand.New(rand.NewSource(9502)), 200) {
		inserts = append(inserts, touch.Object{ID: geom.ID(1000 + 3*i), Box: b})
	}
	deleted := []geom.ID{1000 + 3*150, 7, 1000, 299, 1000 + 3*42, 0, 123}
	merged := slices.Clone(base)
	for _, o := range inserts {
		if !slices.Contains(deleted, o.ID) {
			live = append(live, o)
		}
	}
	merged = slices.DeleteFunc(append(merged, live...), func(o touch.Object) bool { return slices.Contains(deleted, o.ID) })
	rebuilt := touch.BuildIndex(merged, touch.TOUCHConfig{})
	probe := touch.GenerateUniform(80, 9503)
	wantJoin := PairSet(rebuilt.Join(probe, nil).Pairs)

	order := slices.Clone(deleted)
	for name, ov := range map[string]*touch.Overlay{
		"unfiltered":  touch.NewOverlay(idx, inserts, deleted),
		"prefiltered": touch.NewOverlay(idx, live, deleted),
	} {
		boxes, points, ks := QueryWorkload(9504, 12)
		for i := range boxes {
			got, err := ov.RangeQuery(boxes[i])
			want, _ := rebuilt.RangeQuery(boxes[i])
			if err != nil || !slices.Equal(got, want) {
				t.Fatalf("%s: RangeQuery(%v) = %v, %v; want %v", name, boxes[i], got, err, want)
			}
			p := points[i]
			gotPt, err := ov.PointQuery(p[0], p[1], p[2])
			wantPt, _ := rebuilt.PointQuery(p[0], p[1], p[2])
			if err != nil || !slices.Equal(gotPt, wantPt) {
				t.Fatalf("%s: PointQuery(%v) = %v, %v; want %v", name, p, gotPt, err, wantPt)
			}
			gotK, err := ov.KNN(p, ks[i])
			wantK, _ := rebuilt.KNN(p, ks[i])
			if err != nil || !slices.Equal(gotK, wantK) {
				t.Fatalf("%s: KNN(%v, %d) = %v, %v; want %v", name, p, ks[i], gotK, err, wantK)
			}
		}
		if got := PairSet(ov.Join(probe, nil).Pairs); !slices.Equal(got, wantJoin) {
			t.Fatalf("%s: Join has %d pairs, want %d", name, len(got), len(wantJoin))
		}
	}
	if !slices.Equal(deleted, order) {
		t.Fatalf("NewOverlay reordered the caller's deleted slice: %v", deleted)
	}

	for name, bad := range map[string]touch.Dataset{
		"insert ID inside the base's range": {{ID: 299, Box: inserts[0].Box}},
		"inserts out of ID order":           {inserts[1], inserts[0]},
		"duplicate insert ID":               {inserts[0], inserts[0]},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewOverlay accepted %s", name)
				}
			}()
			touch.NewOverlay(idx, bad, nil)
		}()
	}
}

// TestMutableStatsAndIDs pins the bookkeeping contract: consecutive
// ascending IDs from Insert, idempotent Delete, live-object accounting
// and monotone IDs across a compaction (never reused).
func TestMutableStatsAndIDs(t *testing.T) {
	m, err := touch.NewMutable(touch.GenerateUniform(10, 42), touch.TOUCHConfig{})
	if err != nil {
		t.Fatal(err)
	}
	m.SetCompactThreshold(0)

	ids, err := m.Insert(randBoxes(rand.New(rand.NewSource(1)), 3))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(ids, []geom.ID{10, 11, 12}) {
		t.Fatalf("Insert IDs = %v, want [10 11 12]", ids)
	}
	if n := m.Delete([]geom.ID{11, 11, 999}); n != 1 {
		t.Fatalf("Delete = %d, want 1", n)
	}
	st := m.Stats()
	if st.Objects != 12 || st.DeltaInserts != 3 || st.DeltaTombstones != 1 {
		t.Fatalf("Stats = %+v", st)
	}

	if !m.Compact() {
		t.Fatal("Compact had nothing to fold")
	}
	st = m.Stats()
	if st.Compactions != 1 || st.DeltaInserts != 0 || st.DeltaTombstones != 0 || st.Base.Objects != 12 {
		t.Fatalf("post-compact Stats = %+v", st)
	}
	// IDs continue after the compacted generation — 11 is never reused.
	ids, err = m.Insert(randBoxes(rand.New(rand.NewSource(2)), 1))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(ids, []geom.ID{13}) {
		t.Fatalf("post-compact Insert IDs = %v, want [13]", ids)
	}
}

// TestMutableCompactionRearms: a burst that lands while a background
// compaction is building carries over into the next generation's delta;
// if that is again over the threshold, a second compaction must follow
// on its own — no later write arrives here to trigger it. Nothing here
// waits for the burst to land inside a build; whichever way the writes
// and the folds interleave, every insert must end up in a tier.
func TestMutableCompactionRearms(t *testing.T) {
	m, err := touch.NewMutable(touch.GenerateUniform(40_000, 9601), touch.TOUCHConfig{})
	if err != nil {
		t.Fatal(err)
	}
	const threshold = 8
	m.SetCompactThreshold(threshold)
	rng := rand.New(rand.NewSource(9602))
	for i := 0; i < 20; i++ {
		if _, err := m.Insert(randBoxes(rng, 16)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := m.Stats()
		if st.DeltaInserts+st.DeltaTombstones < threshold {
			indexed := 0
			for _, tier := range m.View().Tiers() {
				indexed += tier.Objects
			}
			if want := 40_000 + 20*16 - st.DeltaInserts; indexed != want || st.Base.Objects != 40_000 {
				t.Fatalf("the tiers hold %d objects (base %d), want %d (base 40000: 320 inserts never reach half of it)",
					indexed, st.Base.Objects, want)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("delta of %d entries left pending at threshold %d after %d compactions",
				st.DeltaInserts+st.DeltaTombstones, threshold, st.Compactions)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMutableRace is the -race centerpiece for the delta layer: eight
// readers hammer every query and join shape while one writer inserts
// and deletes and the auto-compactor (threshold 24) hot-swaps the base
// underneath. Readers verify structural invariants that hold under any
// interleaving — sorted unique range IDs, KNN ordering, join pair
// sanity — since the moving target has no single oracle answer.
func TestMutableRace(t *testing.T) {
	m, err := touch.NewMutable(touch.GenerateUniform(400, 7777).Expand(8), touch.TOUCHConfig{})
	if err != nil {
		t.Fatal(err)
	}
	m.SetCompactThreshold(24)
	probe := touch.GenerateUniform(60, 7778)
	ctx, cancel := context.WithCancel(context.Background())
	errs := make(chan error, 16)

	const readers = 8
	done := make(chan struct{})
	for r := 0; r < readers; r++ {
		go func(r int) {
			defer func() { done <- struct{}{} }()
			rng := rand.New(rand.NewSource(int64(7800 + r)))
			for i := 0; ctx.Err() == nil; i++ {
				switch i % 5 {
				case 0:
					q := geom.NewBox(geom.Point{0, 0, 0}, geom.Point{1200, 1200, 1200})
					ids, err := m.View().RangeQuery(q)
					if err != nil {
						errs <- err
						return
					}
					if !slices.IsSorted(ids) {
						errs <- fmt.Errorf("reader %d: unsorted range IDs", r)
						return
					}
					for j := 1; j < len(ids); j++ {
						if ids[j] == ids[j-1] {
							errs <- fmt.Errorf("reader %d: duplicate ID %d", r, ids[j])
							return
						}
					}
				case 1:
					if _, err := m.View().PointQuery(rng.Float64()*1000, rng.Float64()*1000, rng.Float64()*1000); err != nil {
						errs <- err
						return
					}
				case 2:
					nbrs, err := m.View().KNN(geom.Point{rng.Float64() * 1000, rng.Float64() * 1000, rng.Float64() * 1000}, 10)
					if err != nil {
						errs <- err
						return
					}
					for j := 1; j < len(nbrs); j++ {
						if nbrs[j].Distance < nbrs[j-1].Distance {
							errs <- fmt.Errorf("reader %d: KNN out of order", r)
							return
						}
					}
				case 3:
					if _, err := m.View().DistanceJoinCtx(ctx, probe, 5, &touch.Options{Workers: 2}); err != nil && ctx.Err() == nil {
						errs <- err
						return
					}
				default:
					// A sink that stops its own join after 500 pairs.
					jctx, stop := context.WithCancel(ctx)
					n := 0
					_, err := m.View().DistanceJoinCtx(jctx, probe, 0, &touch.Options{Sink: stats.FuncSink(func(a, b geom.ID) {
						if n++; n == 500 {
							stop()
						}
					})})
					stop()
					if err != nil && ctx.Err() == nil && !errors.Is(err, touch.ErrJoinCanceled) {
						errs <- err
						return
					}
				}
			}
		}(r)
	}

	writer := make(chan struct{})
	go func() {
		defer close(writer)
		rng := rand.New(rand.NewSource(7900))
		for i := 0; i < 300; i++ {
			if i%3 == 0 {
				ids := liveIDs(m)
				var del []geom.ID
				for j := 0; j < 8 && len(ids) > 0; j++ {
					del = append(del, ids[rng.Intn(len(ids))])
				}
				m.Delete(del)
			} else {
				if _, err := m.Insert(randBoxes(rng, 12)); err != nil {
					errs <- err
					return
				}
			}
		}
	}()

	<-writer
	cancel()
	for r := 0; r < readers; r++ {
		<-done
	}
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	// The writer pushed the delta past the threshold repeatedly; at
	// least one background compaction must have landed. Wait for any
	// straggler to publish, then verify the final state against a
	// rebuild.
	m.Compact()
	if st := m.Stats(); st.Compactions < 1 {
		t.Fatalf("no compaction ran (stats %+v)", st)
	}
	checkMutableAgainstRebuild(t, m, probe, 7999)
}
