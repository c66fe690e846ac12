package testutil

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"touch"
	"touch/internal/delta"
	"touch/internal/geom"
	"touch/internal/nl"
)

// The seams of the sealed runs: the unfolded tail is read by single
// probes as x-sorted runs of delta.RunLen inserts plus an unsealed rest,
// so every count of inserts around a multiple of RunLen, a tie on the
// sort key across two runs, a box whose x-extent makes its run's window
// the whole run, a fold that cuts a run in two and corners that are NaN
// or infinite must all answer as the linear pass over the tail does.

// seamBoxes returns n random boxes shaped for the seams of the runs: the
// six boxes around each multiple of delta.RunLen share one Min[0] — a
// tie on the runs' sort key that straddles two runs — the box in the
// middle of the first run spans the whole universe, so that run's window
// is all of it, and the one in the middle of the second has the widest
// x-extent of its run, 64 + 2⁻⁵², which rounds to 64 below its true
// value.
func seamBoxes(rng *rand.Rand, n int) []geom.Box {
	boxes := randBoxes(rng, n)
	for i := range boxes {
		if j := i % delta.RunLen; j < 3 || j >= delta.RunLen-3 {
			w := boxes[i].Max[0] - boxes[i].Min[0]
			boxes[i].Min[0], boxes[i].Max[0] = 500, 500+w
		}
	}
	if mid := delta.RunLen / 2; mid < n {
		boxes[mid] = geom.NewBox(geom.Point{-40, -40, -40}, geom.Point{1100, 1100, 1100})
	}
	if mid := delta.RunLen + delta.RunLen/2; mid < n {
		boxes[mid].Min[0], boxes[mid].Max[0] = -63, math.Nextafter(1, 2)
	}
	return boxes
}

// checkShapes asks v the queries that put the edges of a run's window on
// the boxes of around, against nl's linear pass over merged: the range
// query of each box, of a box touching it along x from the left and of
// one from the right; the point query at its lower x edge; the kNN
// searches for k = 1, 10, 60 just outside either x edge.
func checkShapes(t *testing.T, v *touch.Overlay, merged touch.Dataset, around []geom.Box) {
	t.Helper()
	for _, b := range around {
		left, right := b, b
		left.Min[0], left.Max[0] = b.Min[0]-7, b.Min[0]
		right.Min[0], right.Max[0] = b.Max[0], b.Max[0]+7
		for _, q := range []geom.Box{b, left, right} {
			got, err := v.RangeQuery(q)
			if want := nl.RangeQuery(merged, q); err != nil || !slices.Equal(got, want) {
				t.Fatalf("RangeQuery(%v) = %v, %v; the linear pass gives %v", q, got, err, want)
			}
		}
		pt := geom.Point{b.Min[0], (b.Min[1] + b.Max[1]) / 2, (b.Min[2] + b.Max[2]) / 2}
		got, err := v.PointQuery(pt[0], pt[1], pt[2])
		if want := nl.PointQuery(merged, pt); err != nil || !slices.Equal(got, want) {
			t.Fatalf("PointQuery(%v) = %v, %v; the linear pass gives %v", pt, got, err, want)
		}
		for _, p := range []geom.Point{{b.Min[0] - 2, b.Min[1], b.Max[2]}, {b.Max[0] + 2, b.Max[1], b.Min[2]}} {
			for _, k := range []int{1, 10, 60} {
				got, err := v.KNN(p, k)
				if want := nl.KNN(merged, p, k); err != nil || !slices.Equal(got, want) {
					t.Fatalf("KNN(%v, %d) = %v, %v; the linear pass gives %v", p, k, got, err, want)
				}
			}
		}
	}
}

// TestDeltaSealedRunBoundaries inserts tails of 0, 1, RunLen−1, RunLen,
// RunLen+1 and 3·RunLen+17 objects in batches of 1 to 40 — so runs are
// sealed by the last box of a batch and inside one — and holds every
// query shape and join to the rebuild oracle, and the seam queries to the
// linear pass: before any delete, then with tombstones on sealed and
// unsealed inserts (the universe-wide one included) and on the base.
func TestDeltaSealedRunBoundaries(t *testing.T) {
	const R = delta.RunLen
	base := touch.GenerateUniform(300, 9901).Expand(8)
	probe := touch.GenerateUniform(100, 9902)
	for _, n := range []int{0, 1, R - 1, R, R + 1, 3*R + 17} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			rng := rand.New(rand.NewSource(9903 + int64(n)))
			boxes := seamBoxes(rng, n)
			m, err := touch.NewMutable(base, touch.TOUCHConfig{})
			if err != nil {
				t.Fatal(err)
			}
			m.SetCompactThreshold(0)
			for from := 0; from < n; {
				to := min(n, from+1+rng.Intn(40))
				if _, err := m.Insert(boxes[from:to]); err != nil {
					t.Fatal(err)
				}
				from = to
			}
			if st := m.Stats(); st.DeltaInserts != n {
				t.Fatalf("%d inserts pending, want %d", st.DeltaInserts, n)
			}
			around := []geom.Box{base[0].Box, base[1].Box}
			for i, b := range boxes {
				if j := i % R; j < 4 || j >= R-4 || j == R/2 || i%29 == 0 {
					around = append(around, b)
				}
			}
			checkMutableAgainstRebuild(t, m, probe, 9904+int64(n))
			checkShapes(t, m.View(), m.Dataset(), around)

			first := geom.ID(len(base))
			del := []geom.ID{0, 17, 299}
			for i := 0; i < n; i += 5 {
				del = append(del, first+geom.ID(i))
			}
			if n > R/2 {
				del = append(del, first+R/2, first+geom.ID(n-1))
			}
			m.Delete(del)
			checkMutableAgainstRebuild(t, m, probe, 9905+int64(n))
			checkShapes(t, m.View(), m.Dataset(), around)
		})
	}
}

// TestOverlayFoldCarriesSealedRuns publishes a fold while updates land
// mid-run: the fold is built from a generation of RunLen+44 inserts, and
// before it publishes 519 more arrive — completing the run the fold cuts
// through, sealing one whole run and starting another — with deletes
// into the folded tail and into the new inserts. The carried generation,
// the same after more inserts seal runs past its carried ones, and after
// the next fold must answer as the index rebuilt from its dataset.
func TestOverlayFoldCarriesSealedRuns(t *testing.T) {
	const R = delta.RunLen
	rng := rand.New(rand.NewSource(9911))
	base := touch.GenerateUniform(2000, 9912).Expand(4)
	probe := touch.GenerateUniform(120, 9913)
	apply := func(v *touch.Overlay, n int, del []geom.ID) *touch.Overlay {
		t.Helper()
		next, _, _, ok := v.Apply(seamBoxes(rng, n), del)
		if !ok {
			t.Fatal("Apply refused the batch")
		}
		return next
	}
	v := apply(touch.BuildIndex(base, touch.TOUCHConfig{}), R+44, []geom.ID{3})
	fold := v.Fold(false, touch.BuildIndex)
	if fold == nil {
		t.Fatal("nothing to fold")
	}
	first := geom.ID(len(base))
	cur := v
	for i, n := range []int{100, 150, R, 13} {
		cur = apply(cur, n, []geom.ID{first + geom.ID(7*i), first + R + 44 + geom.ID(50*i), geom.ID(100 * i)})
	}
	next := fold.Next(cur)
	if ins, _ := next.Pending(); ins != 100+150+R+13 {
		t.Fatalf("%d inserts carried over, want %d", ins, 100+150+R+13)
	}
	check := func(v *touch.Overlay, seed int64) {
		t.Helper()
		checkOverlayAgainstRebuild(t, v, probe, seed)
		ds := v.Dataset()
		checkShapes(t, v, ds, []geom.Box{ds[len(ds)-1].Box, ds[len(ds)-R].Box, ds[len(ds)/2].Box, base[5].Box})
	}
	check(next, 9914)
	next = apply(next, R+9, []geom.ID{first + R + 44 + 1, first + R + 44 + 300})
	check(next, 9915)
	if f := next.Fold(false, touch.BuildIndex); f != nil {
		check(f.Next(apply(next, 30, nil)), 9916)
	}
}

// TestMutableSealedRunsUnderRacingWrites: readers hold generations whose
// tails are several sealed runs deep while one writer keeps appending —
// sealing new runs into the arrays those generations share — and the
// scheduler folds at 3·RunLen+100 pending updates, carrying runs over
// and cutting one. Every answer must equal the linear pass over its own
// generation's dataset. Run under -race.
func TestMutableSealedRunsUnderRacingWrites(t *testing.T) {
	m, err := touch.NewMutable(touch.GenerateUniform(2000, 9931).Expand(6), touch.TOUCHConfig{})
	if err != nil {
		t.Fatal(err)
	}
	m.SetCompactThreshold(3*delta.RunLen + 100)
	stop := make(chan struct{})
	errs := make(chan error, 4)
	var readers sync.WaitGroup
	var deepest, views atomic.Int64
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for seed := int64(9940 + 100*r); ; seed++ {
				select {
				case <-stop:
					return
				default:
				}
				v := m.View()
				ins, _ := v.Pending()
				for old := deepest.Load(); int64(ins) > old && !deepest.CompareAndSwap(old, int64(ins)); old = deepest.Load() {
				}
				ds := v.Dataset()
				boxes, points, ks := QueryWorkload(seed, 4)
				for i := range boxes {
					if got, _ := v.RangeQuery(boxes[i]); !slices.Equal(got, nl.RangeQuery(ds, boxes[i])) {
						errs <- fmt.Errorf("RangeQuery(%v) over %d pending inserts diverges from the linear pass", boxes[i], ins)
						return
					}
					if got, _ := v.KNN(points[i], ks[i]); !slices.Equal(got, nl.KNN(ds, points[i], ks[i])) {
						errs <- fmt.Errorf("KNN(%v, %d) over %d pending inserts diverges from the linear pass", points[i], ks[i], ins)
						return
					}
				}
				views.Add(1)
			}
		}(r)
	}
	rng := rand.New(rand.NewSource(9932))
	for i := 0; i < 400; i++ {
		ids, err := m.Insert(seamBoxes(rng, 7))
		if err != nil {
			t.Fatal(err)
		}
		m.Delete([]geom.ID{ids[rng.Intn(len(ids))], geom.ID(rng.Intn(2000))})
		// The readers keep up: one generation checked per ten writes.
		for views.Load() < int64(i/10) && len(errs) == 0 {
			time.Sleep(50 * time.Microsecond)
		}
	}
	close(stop)
	readers.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if deepest.Load() < 2*delta.RunLen {
		t.Fatalf("readers saw at most %d pending inserts: no generation was two sealed runs deep", deepest.Load())
	}
	if m.Stats().Compactions == 0 {
		t.Fatal("no fold published under the readers")
	}
	checkMutableAgainstRebuild(t, m, touch.GenerateUniform(100, 9933), 9934)
}

// TestNewOverlaySealedRunsHostileCorners: NewOverlay checks only the IDs
// of its inserts, so they may have gaps and NaN or infinite corners. A
// run holding a corner that is NaN or infinite along x is scanned whole
// — its window cannot be computed — while a run whose odd corners lie off
// the x axis keeps its window; every answer must still be the linear
// pass's over the merged dataset.
func TestNewOverlaySealedRunsHostileCorners(t *testing.T) {
	const R = delta.RunLen
	rng := rand.New(rand.NewSource(9921))
	base := touch.GenerateUniform(400, 9922).Expand(5)
	idx := touch.BuildIndex(base, touch.TOUCHConfig{})
	boxes := seamBoxes(rng, 3*R+17)
	nan, inf := math.NaN(), math.Inf(1)
	boxes[10].Min[0], boxes[12].Min[0] = nan, nan // run 0
	boxes[R+20].Max[0], boxes[R+22].Max[0] = inf, nan
	boxes[R+21].Min[0], boxes[R+23].Min[0] = -inf, -inf   // run 1
	boxes[2*R+30].Min[1], boxes[2*R+31].Max[2] = nan, inf // run 2 keeps its window
	boxes[3*R+5].Min[0], boxes[3*R+5].Max[0] = -inf, inf  // the unsealed rest
	boxes[3*R+6].Max[0], boxes[3*R+7].Min[2] = nan, -inf
	inserts := make(touch.Dataset, len(boxes))
	for i, b := range boxes {
		inserts[i] = touch.Object{ID: geom.ID(1000 + 3*i), Box: b}
	}
	// Tombstones on one hostile box of each sealed run and of the rest,
	// on plain inserts and on the base.
	deleted := []geom.ID{1000 + 3*12, 1000 + 3*(R+23), 1000 + 3*(2*R+1), 1000 + 3*(3*R+6), 7, 123, 1000 + 3*(R-1)}
	ov := touch.NewOverlay(idx, inserts, deleted)
	merged := slices.DeleteFunc(append(slices.Clone(base), inserts...), func(o touch.Object) bool { return slices.Contains(deleted, o.ID) })

	var finite []geom.Box
	for _, i := range []int{9, 11, R - 3, R, R + 19, R + 24, 2*R + 29, 2*R + 32, 3*R + 4, 3*R + 8} {
		finite = append(finite, boxes[i])
	}
	checkShapes(t, ov, merged, append(finite, base[2].Box))
	all := geom.Box{Min: geom.Point{-inf, -inf, -inf}, Max: geom.Point{inf, inf, inf}}
	qs, points, ks := QueryWorkload(9923, 24)
	for _, q := range append(qs, all) {
		got, err := ov.RangeQuery(q)
		if want := nl.RangeQuery(merged, q); err != nil || !slices.Equal(got, want) {
			t.Fatalf("RangeQuery(%v) = %d ids, %v; the linear pass gives %d", q, len(got), err, len(want))
		}
	}
	// A NaN x corner adds nothing to a box's distance: seen from far
	// along x, such a box can still be the nearest.
	for _, b := range []geom.Box{boxes[R+20], boxes[R+22], boxes[3*R+7]} {
		points = append(points, geom.Point{b.Min[0] - 200, (b.Min[1] + b.Max[1]) / 2, (b.Min[2] + b.Max[2]) / 2})
		ks = append(ks, 1)
	}
	for i, p := range points {
		got, err := ov.KNN(p, ks[i])
		if want := nl.KNN(merged, p, ks[i]); err != nil || !slices.Equal(got, want) {
			t.Fatalf("KNN(%v, %d) = %v, %v; the linear pass gives %v", p, ks[i], got, err, want)
		}
	}
}
