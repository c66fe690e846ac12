package touch

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"touch/internal/stats"
	"touch/internal/trace"
)

// querier is the read surface the package declares once, on the
// unexported reader; the interface exists only here, to hold both
// exported readers to it at compile time.
type querier interface {
	RangeQuery(Box) ([]ID, error)
	RangeQueryTraced(Box, *Span) ([]ID, error)
	PointQuery(x, y, z float64) ([]ID, error)
	PointQueryTraced(x, y, z float64, sp *Span) ([]ID, error)
	KNN(Point, int) ([]Neighbor, error)
	KNNTraced(Point, int, *Span) ([]Neighbor, error)
	Join(Dataset, *Options) *Result
	JoinCtx(context.Context, Dataset, *Options) (*Result, error)
	DistanceJoin(Dataset, float64, *Options) (*Result, error)
	DistanceJoinCtx(context.Context, Dataset, float64, *Options) (*Result, error)
}

var (
	_ querier = (*Index)(nil)
	_ querier = (*Overlay)(nil)
)

// raceEnabled is set by race_test.go under the race detector, where
// sync.Pool drops items at random and allocation counts mean nothing.
var raceEnabled bool

// untimed returns the span with its durations cleared, after checking
// that only the phases in recorded carry time.
func untimed(t *testing.T, sp Span, recorded ...trace.Phase) Span {
	t.Helper()
	for _, p := range trace.Phases() {
		if sp.Durations[p] != 0 && !slices.Contains(recorded, p) {
			t.Errorf("phase %s recorded %v on a reader with nothing pending", p.Name(), sp.Durations[p])
		}
	}
	sp.Durations = [trace.NumPhases]time.Duration{}
	return sp
}

// TestOverlayEmptyDeltaReaderParity: the four ways to hold a dataset
// with nothing pending — the bare Index, an Overlay built with no
// updates, the first generation of OverlayOf and a fresh Mutable's View —
// are one reader: the same answers, the same trace apart from the
// durations (no delta or overlay phase), the same allocations per call.
func TestOverlayEmptyDeltaReaderParity(t *testing.T) {
	ds := GenerateClustered(3000, 1501).Expand(4)
	probe := GenerateUniform(2000, 1502)
	idx := BuildIndex(ds, TOUCHConfig{})
	m, err := NewMutable(ds, TOUCHConfig{})
	if err != nil {
		t.Fatal(err)
	}
	readers := []struct {
		name string
		r    querier
	}{
		{"Index", idx},
		{"NewOverlay(nil,nil)", NewOverlay(idx, nil, nil)},
		{"OverlayOf", OverlayOf(ds, idx)},
		{"Mutable.View", m.View()},
	}

	box, pt := ds[11].Box.Expand(40), queryPoint(rand.New(rand.NewSource(1503)))
	ctx := context.Background()
	shapes := []struct {
		name     string
		recorded []trace.Phase
		ask      func(querier, *Span) any
	}{
		{"range", []trace.Phase{trace.PhaseQuery}, func(r querier, sp *Span) any {
			ids, err := r.RangeQueryTraced(box, sp)
			return []any{ids, err}
		}},
		{"point", []trace.Phase{trace.PhaseQuery}, func(r querier, sp *Span) any {
			c := ds[7].Box.Center()
			ids, err := r.PointQueryTraced(c[0], c[1], c[2], sp)
			return []any{ids, err}
		}},
		{"knn", []trace.Phase{trace.PhaseQuery}, func(r querier, sp *Span) any {
			nbrs, err := r.KNNTraced(pt, 10, sp)
			return []any{nbrs, err}
		}},
		{"Join", []trace.Phase{trace.PhaseAssign, trace.PhaseJoin}, func(r querier, sp *Span) any {
			return r.Join(probe, &Options{Trace: sp}).Pairs
		}},
		{"DistanceJoinCtx", []trace.Phase{trace.PhaseAssign, trace.PhaseJoin}, func(r querier, sp *Span) any {
			res, err := r.DistanceJoinCtx(ctx, probe, 3, &Options{Trace: sp})
			return []any{res.Pairs, statsKey(&res.Stats), err}
		}},
		{"Sink+Limit", []trace.Phase{trace.PhaseAssign, trace.PhaseJoin}, func(r querier, sp *Span) any {
			var pairs []Pair
			sink := stats.FuncSink(func(a, b ID) { pairs = append(pairs, Pair{A: a, B: b}) })
			res, err := r.JoinCtx(ctx, probe, &Options{Limit: 40, Sink: sink, Trace: sp})
			return []any{pairs, statsKey(&res.Stats), err}
		}},
	}
	for _, sh := range shapes {
		var wantSpan Span
		want := sh.ask(idx, &wantSpan)
		wantSpan = untimed(t, wantSpan, sh.recorded...)
		if wantSpan.Results == 0 {
			t.Fatalf("%s: the fixture answers nothing", sh.name)
		}
		for _, rd := range readers[1:] {
			var sp Span
			if got := sh.ask(rd.r, &sp); !reflect.DeepEqual(got, want) {
				t.Errorf("%s on %s: answer differs from the Index's", sh.name, rd.name)
			}
			if sp = untimed(t, sp, sh.recorded...); sp != wantSpan {
				t.Errorf("%s on %s: span %+v, the Index's %+v", sh.name, rd.name, sp, wantSpan)
			}
		}
	}

	if raceEnabled {
		return
	}
	for _, sh := range shapes[:3] {
		want := testing.AllocsPerRun(200, func() { sh.ask(idx, nil) })
		for _, rd := range readers[1:] {
			if got := testing.AllocsPerRun(200, func() { sh.ask(rd.r, nil) }); got != want {
				t.Errorf("%s on %s: %v allocs per call, the Index's %v", sh.name, rd.name, got, want)
			}
		}
	}
}

// TestMutableViewIsOneGeneration: a View is immutable. One taken before
// a writer inserts, deletes and compacts keeps answering as the rebuild
// of its own generation while those writes publish; a fresh View
// answers the new state. Run under -race.
func TestMutableViewIsOneGeneration(t *testing.T) {
	m, err := NewMutable(GenerateUniform(2000, 1511), TOUCHConfig{})
	if err != nil {
		t.Fatal(err)
	}
	m.SetCompactThreshold(-1)
	rng := rand.New(rand.NewSource(1512))
	boxes := func(n int) []Box {
		bs := make([]Box, n)
		for i := range bs {
			bs[i] = queryBox(rng)
		}
		return bs
	}
	// Start from a generation with both kinds of update pending.
	if _, err := m.Insert(boxes(50)); err != nil {
		t.Fatal(err)
	}
	m.Delete([]ID{3, 400, 2010})

	probe := GenerateUniform(1500, 1513)
	qs, pts := boxes(20), make([]Point, 20)
	for i := range pts {
		pts[i] = queryPoint(rng)
	}
	check := func(v *Overlay, oracle *Index) {
		t.Helper()
		for i := range qs {
			got, _ := v.RangeQuery(qs[i])
			if want, _ := oracle.RangeQuery(qs[i]); !slices.Equal(got, want) {
				t.Fatalf("RangeQuery(%v): %d ids, its generation's rebuild has %d", qs[i], len(got), len(want))
			}
			gotK, _ := v.KNN(pts[i], 8)
			if wantK, _ := oracle.KNN(pts[i], 8); !slices.Equal(gotK, wantK) {
				t.Fatalf("KNN(%v): %v, its generation's rebuild has %v", pts[i], gotK, wantK)
			}
		}
		got, want := v.Join(probe, nil), oracle.Join(probe, nil)
		if !slices.Equal(sortPairSet(got.Pairs), sortPairSet(want.Pairs)) {
			t.Fatalf("Join: %d pairs, its generation's rebuild has %d", len(got.Pairs), len(want.Pairs))
		}
	}

	old, oldLive := m.View(), m.Dataset()
	oldOracle := BuildIndex(oldLive, TOUCHConfig{})
	inserts := boxes(400) // rng is not shared with the writer
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			ids, err := m.Insert(inserts[i%len(inserts) : i%len(inserts)+1])
			if err != nil {
				t.Error(err)
				return
			}
			m.Delete([]ID{ids[0] - 1, ID(i % 2000)})
			if i%8 == 7 {
				m.Compact()
			}
		}
	}()
	for m.Stats().Compactions < 2 {
		check(old, oldOracle)
	}
	close(stop)
	wg.Wait()
	check(old, oldOracle)

	if fresh := m.View(); fresh == old {
		t.Fatal("View did not move after writes")
	} else {
		check(fresh, BuildIndex(m.Dataset(), TOUCHConfig{}))
	}
	if got, _ := old.RangeQuery(NewBox(Point{-1, -1, -1}, Point{1e9, 1e9, 1e9})); len(got) != len(oldLive) {
		t.Fatalf("the old View now holds %d objects, its generation had %d", len(got), len(oldLive))
	}
}

// TestViewOutlivesTierMerges: a View taken over three tiers, a tail and
// tombstones in every one of them keeps answering as the rebuild of its
// own generation while a writer keeps inserting, deleting and folding
// underneath it — through at least two folds that rewrite tiers the View
// still reads and one that adds a tier beside them. The tiers are
// immutable and shared, not copied: the old View and the new generations
// read the same trees until a merge replaces them for the new ones only.
// Run under -race.
func TestViewOutlivesTierMerges(t *testing.T) {
	m, err := NewMutable(GenerateUniform(3000, 1531), TOUCHConfig{})
	if err != nil {
		t.Fatal(err)
	}
	m.SetCompactThreshold(-1)
	rng := rand.New(rand.NewSource(1532))
	boxes := func(n int) []Box {
		bs := make([]Box, n)
		for i := range bs {
			bs[i] = queryBox(rng)
		}
		return bs
	}
	var first, second []ID
	for i, n := range []int{700, 200} {
		ids, err := m.Insert(boxes(n))
		if err != nil {
			t.Fatal(err)
		}
		if !m.fold(false) {
			t.Fatal("nothing to fold")
		}
		if i == 0 {
			first = ids
		} else {
			second = ids
		}
	}
	tail, err := m.Insert(boxes(40))
	if err != nil {
		t.Fatal(err)
	}
	m.Delete([]ID{5, 2999, first[0], first[333], second[7], tail[3]})
	old := m.View()
	if tiers := old.Tiers(); len(tiers) != 3 || tiers[0].Dead != 2 || tiers[1].Dead != 2 || tiers[2].Dead != 1 || len(old.inserts) != 40 {
		t.Fatalf("the fixture holds %+v under %d pending inserts", tiers, len(old.inserts))
	}
	oldLive := old.Dataset()
	oldOracle := BuildIndex(oldLive, TOUCHConfig{})

	probe := GenerateUniform(1200, 1533)
	qs, pts := boxes(16), make([]Point, 16)
	for i := range pts {
		pts[i] = queryPoint(rng)
	}
	check := func(v *Overlay, oracle *Index) {
		t.Helper()
		for i := range qs {
			got, _ := v.RangeQuery(qs[i])
			if want, _ := oracle.RangeQuery(qs[i]); !slices.Equal(got, want) {
				t.Fatalf("RangeQuery(%v): %d ids, its generation's rebuild has %d", qs[i], len(got), len(want))
			}
			gotK, _ := v.KNN(pts[i], 12)
			if wantK, _ := oracle.KNN(pts[i], 12); !slices.Equal(gotK, wantK) {
				t.Fatalf("KNN(%v): %v, its generation's rebuild has %v", pts[i], gotK, wantK)
			}
		}
		got, want := v.Join(probe, nil), oracle.Join(probe, nil)
		if !slices.Equal(sortPairSet(got.Pairs), sortPairSet(want.Pairs)) {
			t.Fatalf("Join: %d pairs, its generation's rebuild has %d", len(got.Pairs), len(want.Pairs))
		}
	}

	inserts := boxes(600) // rng is not shared with the writer
	var merges, adds atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			at := i * 37 % (len(inserts) - 60)
			ids, err := m.Insert(inserts[at : at+20+i%40])
			if err != nil {
				t.Error(err)
				return
			}
			m.Delete([]ID{ids[0], ID(i * 13 % 3000), first[(i*7)%len(first)]})
			before := len(m.View().tiers)
			m.fold(false)
			if len(m.View().tiers) > before {
				adds.Add(1)
			} else {
				merges.Add(1)
			}
		}
	}()
	for merges.Load() < 2 || adds.Load() < 1 {
		check(old, oldOracle)
	}
	close(stop)
	wg.Wait()
	check(old, oldOracle)
	if got, _ := old.RangeQuery(NewBox(Point{-1, -1, -1}, Point{1e9, 1e9, 1e9})); len(got) != len(oldLive) {
		t.Fatalf("the old View now holds %d objects, its generation had %d", len(got), len(oldLive))
	}
	check(m.View(), BuildIndex(m.Dataset(), TOUCHConfig{}))
}

// TestMutableDatasetAllocatesOnce: Dataset hands out one fresh slice of
// the merged objects, whether or not the delta is empty — not a clone
// of the slice Merged just built.
func TestMutableDatasetAllocatesOnce(t *testing.T) {
	m, err := NewMutable(GenerateUniform(50_000, 1521), TOUCHConfig{})
	if err != nil {
		t.Fatal(err)
	}
	m.SetCompactThreshold(-1)
	for _, pending := range []bool{false, true} {
		if pending {
			m.Delete([]ID{1, 2, 3})
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ds := m.Dataset()
		runtime.ReadMemStats(&after)
		got := after.TotalAlloc - before.TotalAlloc
		one := uint64(len(ds)) * uint64(unsafe.Sizeof(Object{}))
		if got < one || got >= 2*one {
			t.Errorf("pending=%v: Dataset allocated %d bytes, want one %d-byte slice", pending, got, one)
		}
		if pending {
			continue
		}
		// The empty-delta answer must still be the caller's own.
		ds[0].ID = -7
		if m.Dataset()[0].ID == -7 {
			t.Error("Dataset aliases the base when nothing is pending")
		}
	}
}

// TestReadOnlyOverlayAccounts: an Overlay built by NewOverlay has no
// write side, only what it was given to read. Pending and Stats count
// exactly that, and the three methods that need the dataset the index was
// built from — Apply, Fold, Dataset — panic with a message that says what
// to use instead, as EncodeSnapshot refuses with an error; none of them
// runs into a nil pointer halfway.
func TestReadOnlyOverlayAccounts(t *testing.T) {
	base := GenerateUniform(300, 3)
	idx := BuildIndex(base, TOUCHConfig{})
	ins := Dataset{{ID: 300, Box: Box{Max: Point{1, 1, 1}}}, {ID: 301, Box: Box{Max: Point{2, 2, 2}}}}
	v := NewOverlay(idx, ins, []ID{301, 7, 12})
	if i, d := v.Pending(); i != 2 || d != 3 {
		t.Errorf("Pending() = %d inserts, %d tombstones; the overlay was given 2 and 3", i, d)
	}
	if got := v.Stats().Objects; got != 300 {
		t.Errorf("Stats().Objects = %d, want the base's 300", got)
	}
	if ids, err := v.RangeQuery(Box{Max: Point{2, 2, 2}}); err != nil || !slices.Contains(ids, 300) || slices.Contains(ids, 301) {
		t.Errorf("range over the read-only overlay: %v, %v", ids, err)
	}
	if _, err := v.EncodeSnapshot(SnapshotInfo{Name: "d", Version: 1}); err == nil {
		t.Error("EncodeSnapshot encoded an overlay that holds no dataset")
	}
	for name, call := range map[string]func(){
		"Apply":   func() { v.Apply([]Box{{}}, nil) },
		"Fold":    func() { v.Fold(true, BuildIndex) },
		"Dataset": func() { v.Dataset() },
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "Overlay."+name) || !strings.Contains(msg, "OverlayOf") {
					t.Errorf("%s on a read-only overlay: recovered %q, want a panic naming the method and OverlayOf", name, msg)
				}
			}()
			call()
		}()
	}
}
