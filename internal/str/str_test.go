package str

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"touch/internal/datagen"
	"touch/internal/geom"
)

func center(o geom.Object) geom.Point { return o.Box.Center() }

func TestPackEmpty(t *testing.T) {
	if got := PackObjects(nil, 4); got != nil {
		t.Fatalf("PackObjects(nil) = %v, want nil", got)
	}
}

func TestPackSingleGroup(t *testing.T) {
	ds := datagen.UniformSet(5, 1)
	groups := PackObjects(ds, 10)
	if len(groups) != 1 || len(groups[0]) != 5 {
		t.Fatalf("got %d groups, want 1 full group", len(groups))
	}
}

func TestPackGroupSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("groupSize 0 must panic")
		}
	}()
	PackObjects(datagen.UniformSet(3, 1), 0)
}

func TestPackCoversEveryObjectExactlyOnce(t *testing.T) {
	for _, n := range []int{1, 2, 7, 100, 1000, 1023, 1024, 1025} {
		ds := datagen.UniformSet(n, int64(n))
		groups := PackObjects(ds, 16)
		seen := make(map[geom.ID]int)
		for _, g := range groups {
			for _, o := range g {
				seen[o.ID]++
			}
		}
		if len(seen) != n {
			t.Fatalf("n=%d: %d distinct objects in groups", n, len(seen))
		}
		for id, k := range seen {
			if k != 1 {
				t.Fatalf("n=%d: object %d appears %d times", n, id, k)
			}
		}
	}
}

func TestPackGroupSizes(t *testing.T) {
	ds := datagen.UniformSet(1000, 2)
	groups := PackObjects(ds, 16)
	want := (1000 + 15) / 16 // ⌈n/g⌉
	// STR slab rounding can produce slightly more groups than ⌈n/g⌉ but
	// never more than one extra per slab chain; verify the bound loosely
	// and the cap strictly.
	if len(groups) < want {
		t.Fatalf("got %d groups, expected at least %d", len(groups), want)
	}
	for i, g := range groups {
		if len(g) == 0 {
			t.Fatalf("group %d empty", i)
		}
		if len(g) > 16 {
			t.Fatalf("group %d has %d > 16 objects", i, len(g))
		}
	}
}

func TestPackDoesNotMutateInput(t *testing.T) {
	ds := datagen.UniformSet(100, 3)
	orig := make(geom.Dataset, len(ds))
	copy(orig, ds)
	PackObjects(ds, 8)
	for i := range ds {
		if ds[i] != orig[i] {
			t.Fatal("Pack reordered the caller's slice")
		}
	}
}

// TestPackSpatialQuality verifies the point of STR: grouping spatially
// close objects. The summed group-MBR volume must be far below the
// volume of random grouping.
func TestPackSpatialQuality(t *testing.T) {
	ds := datagen.UniformSet(2000, 4)
	groups := PackObjects(ds, 20)
	strVol := totalGroupVolume(groups)

	rng := rand.New(rand.NewSource(4))
	shuffled := make(geom.Dataset, len(ds))
	copy(shuffled, ds)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	var random [][]geom.Object
	for i := 0; i < len(shuffled); i += 20 {
		end := i + 20
		if end > len(shuffled) {
			end = len(shuffled)
		}
		random = append(random, shuffled[i:end])
	}
	randVol := totalGroupVolume(random)
	if strVol*10 > randVol {
		t.Fatalf("STR volume %g not clearly better than random %g", strVol, randVol)
	}
}

func totalGroupVolume(groups [][]geom.Object) float64 {
	total := 0.0
	for _, g := range groups {
		mbr := geom.EmptyBox()
		for _, o := range g {
			mbr = mbr.Union(o.Box)
		}
		total += mbr.Volume()
	}
	return total
}

func TestGroupSizeFor(t *testing.T) {
	cases := []struct{ n, partitions, want int }{
		{1000, 10, 100},
		{1001, 10, 101},
		{5, 10, 1},
		{0, 10, 1},
		{1024, 1024, 1},
		{2048, 1024, 2},
	}
	for _, tc := range cases {
		if got := GroupSizeFor(tc.n, tc.partitions); got != tc.want {
			t.Errorf("GroupSizeFor(%d,%d) = %d, want %d", tc.n, tc.partitions, got, tc.want)
		}
	}
}

func TestGroupSizeForPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("partitions 0 must panic")
		}
	}()
	GroupSizeFor(10, 0)
}

func TestPropPackPreservesMultiset(t *testing.T) {
	f := func(seed int64, rawN uint16, rawG uint8) bool {
		n := int(rawN%500) + 1
		g := int(rawG%32) + 1
		ds := datagen.UniformSet(n, seed)
		groups := Pack(ds, center, g)
		total := 0
		for _, grp := range groups {
			total += len(grp)
			if len(grp) > g {
				return false
			}
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPackGeneric(t *testing.T) {
	// Pack over a non-object type: ints positioned on a line.
	items := []int{9, 1, 8, 2, 7, 3, 6, 4, 5}
	groups := Pack(items, func(v int) geom.Point { return geom.Point{float64(v), 0, 0} }, 3)
	// For items on a line, the concatenated groups must be the sorted
	// order (contiguous tiles), each at most groupSize long. STR's slab
	// rounding may produce more than ⌈n/g⌉ groups.
	var flat []int
	for _, g := range groups {
		if len(g) == 0 || len(g) > 3 {
			t.Fatalf("bad group size %d", len(g))
		}
		flat = append(flat, g...)
	}
	if len(flat) != len(items) {
		t.Fatalf("flattened %d items, want %d", len(flat), len(items))
	}
	for i := range flat {
		if flat[i] != i+1 {
			t.Fatalf("groups not in sorted contiguous order: %v", groups)
		}
	}
}

// stablePack is the reference PackStages must equal: the same tiling and
// the same record of its cuts, written the plain way — whole (center,
// item) structs sorted with the standard library's stable sort.
func stablePack(objs []geom.Object, groupSize int) ([][]geom.Object, Stages) {
	type keyed struct {
		c    geom.Point
		item geom.Object
	}
	work := make([]keyed, len(objs))
	for i, o := range objs {
		work[i] = keyed{center(o), o}
	}
	var out [][]geom.Object
	var stages Stages
	done := int32(0) // items in out
	var pack func(work []keyed, dim int)
	pack = func(work []keyed, dim int) {
		n := len(work)
		if n > groupSize {
			slices.SortStableFunc(work, func(a, b keyed) int { return cmp.Compare(a.c[dim], b.c[dim]) })
		}
		if n <= groupSize || dim == geom.Dims-1 {
			// Nothing but the chop into groups cuts this run again: it is
			// one run of every cut that is left above that.
			for d := max(dim, 1); d < geom.Dims; d++ {
				stages[d-1] = append(stages[d-1], done)
			}
			for chunk := range slices.Chunk(work, groupSize) {
				g := make([]geom.Object, len(chunk))
				for i := range chunk {
					g[i] = chunk[i].item
				}
				out = append(out, g)
				stages[geom.Dims-1] = append(stages[geom.Dims-1], done)
				done += int32(len(g))
			}
			return
		}
		if dim > 0 {
			stages[dim-1] = append(stages[dim-1], done)
		}
		groups := (n + groupSize - 1) / groupSize
		slabs := int(math.Ceil(math.Pow(float64(groups), 1/float64(geom.Dims-dim))))
		for slab := range slices.Chunk(work, (n+slabs-1)/slabs) {
			pack(slab, dim+1)
		}
	}
	pack(work, 0)
	for d := range stages {
		stages[d] = append(stages[d], done)
	}
	return out, stages
}

// TestPackTiesAreStable: on grid-aligned points, where most centers tie
// in every dimension, Pack must keep tied items in the order the
// previous sort left them — i.e. equal the stable-sort reference — and
// therefore give the same groups on every call.
func TestPackTiesAreStable(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	objs := make([]geom.Object, 3000)
	for i := range objs {
		p := geom.Point{float64(rng.Intn(6)), float64(rng.Intn(6)), float64(rng.Intn(6))}
		objs[i] = geom.Object{ID: geom.ID(i), Box: geom.BoxAt(p)}
	}
	for _, groupSize := range []int{1, 7, 64, 500} {
		got := PackObjects(objs, groupSize)
		want, _ := stablePack(objs, groupSize)
		equal := func(a, b []geom.Object) bool { return slices.Equal(a, b) }
		if !slices.EqualFunc(got, want, equal) {
			t.Fatalf("groupSize %d: groups differ from the stable-sort reference", groupSize)
		}
		if !slices.EqualFunc(PackObjects(objs, groupSize), got, equal) {
			t.Fatalf("groupSize %d: two calls on one input gave different groups", groupSize)
		}
	}
}

// TestPackEqualsStableReference holds the radix selection and sort to
// the stable-sort reference, group for group, on this file's datasets and
// on the keys a bit-pattern sort gets wrong first: NaN centers (first,
// all equal), −0 beside +0 (equal), negative coordinates, infinities, one
// value everywhere, and a handful of distinct keys each held by hundreds
// of items. Tied items differ only by ID, so a sort that is not stable
// fails on the group contents.
//
// The cases after those are where a selection goes wrong first: cuts
// inside long runs of tied keys, where the earlier dimensions' keys and
// then the input position decide the side an item falls on; cuts exactly
// on the edge between two digit buckets; one dimension all equal beside
// two distinct ones; and sizes one past a group, or one past two, so a
// slab is too small to be cut again and keeps the order of the cut
// before it.
func TestPackEqualsStableReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	at := func(p geom.Point) geom.Box { return geom.Box{Min: p, Max: p} }
	tables := keyTables(rng)
	cases := map[string][]geom.Object{}
	for name, box := range tables {
		objs := make([]geom.Object, 5000)
		for i := range objs {
			objs[i] = geom.Object{ID: geom.ID(i), Box: box(i)}
		}
		cases[name] = objs
	}
	for _, n := range []int{1, 7, 100, 511, 512, 1000, 1025, 20_000} {
		cases[fmt.Sprintf("uniform %d", n)] = datagen.UniformSet(n, int64(n))
	}
	cases["clustered"] = datagen.ClusteredSet(6000, 3)
	// The cases below draw from their own source, in a fixed order, so
	// their data does not depend on the order the map above was read in.
	src := rand.New(rand.NewSource(22))
	for _, c := range []struct {
		name string
		box  func() geom.Box
	}{
		// Two x values, eight y, four z: every cut of every dimension falls
		// inside a run of equal keys.
		{"cuts inside ties", func() geom.Box {
			return at(geom.Point{float64(src.Intn(2)), float64(src.Intn(8)), float64(src.Intn(4))})
		}},
		{"x all equal", func() geom.Box { return at(geom.Point{3, src.Float64(), src.Float64()}) }},
		{"y all equal", func() geom.Box { return at(geom.Point{src.Float64(), -3, src.Float64()}) }},
		{"z all equal", func() geom.Box { return at(geom.Point{src.Float64(), src.Float64(), 0}) }},
	} {
		objs := make([]geom.Object, 5000)
		for i := range objs {
			objs[i] = geom.Object{ID: geom.ID(i), Box: c.box()}
		}
		cases[c.name] = objs
	}
	for _, n := range []int{17, 33, 197, 393, 3001, 6001} { // one past 16, 196 and 3000 items, and past twice that
		cases[fmt.Sprintf("uniform %d", n)] = datagen.UniformSet(n, int64(n))
		tied := make([]geom.Object, n)
		for i := range tied {
			tied[i] = geom.Object{ID: geom.ID(i), Box: at(geom.Point{float64(src.Intn(3)), float64(src.Intn(3)), float64(src.Intn(3))})}
		}
		cases[fmt.Sprintf("tied %d", n)] = tied
	}
	for name, objs := range cases {
		for _, groupSize := range []int{1, 16, 196, 3000} {
			checkPack(t, name, objs, groupSize)
		}
	}
	// 4,000 items in groups of 500 make two slabs of 2,000 and two runs of
	// 1,000 in each: x is 1 or 2 and y is 1 or 2, 1,000 items each way, so
	// both cuts fall exactly where one digit bucket of keys ends and the
	// next begins.
	edge := make([]geom.Object, 4000)
	for i := range edge {
		edge[i] = geom.Object{ID: geom.ID(i), Box: at(geom.Point{float64(1 + i%2), float64(1 + i/2%2), src.Float64()})}
	}
	checkPack(t, "cuts on a bucket edge", edge, 500)
}

// keyTables are the center tables a bit-pattern sort gets wrong first,
// each a box for item i drawn from rng: NaN centers (first, all equal),
// −0 beside +0 (equal), negative coordinates, infinities, one value
// everywhere, a handful of distinct keys each held by many items, and NaN
// in one dimension.
func keyTables(rng *rand.Rand) map[string]func(i int) geom.Box {
	at := func(p geom.Point) geom.Box { return geom.Box{Min: p, Max: p} }
	special := []float64{math.NaN(), math.Copysign(0, -1), 0, -1.5, 1.5, math.Inf(-1), math.Inf(1),
		-math.MaxFloat64, math.MaxFloat64, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64}
	return map[string]func(i int) geom.Box{
		"special values": func(int) geom.Box {
			return at(geom.Point{special[rng.Intn(len(special))], special[rng.Intn(len(special))], special[rng.Intn(len(special))]})
		},
		"signed zeros": func(i int) geom.Box {
			return at(geom.Point{math.Copysign(0, float64(i%2)-0.5), 0, math.Copysign(0, float64(i%3)-1.5)})
		},
		"all equal": func(int) geom.Box { return at(geom.Point{7, 7, 7}) },
		"few keys": func(int) geom.Box {
			return at(geom.Point{float64(rng.Intn(3)), float64(rng.Intn(3)) - 1, -float64(rng.Intn(3))})
		},
		"negative side": func(int) geom.Box { return at(geom.Point{-rng.Float64() * 1e6, rng.NormFloat64(), -rng.ExpFloat64()}) },
		"NaN in one dimension": func(i int) geom.Box {
			p := geom.Point{rng.Float64(), rng.Float64(), rng.Float64()}
			if i%4 == 0 {
				p[i/4%3] = math.NaN()
			}
			return at(p)
		},
	}
}

// TestPackSameAtAnyWorkerCount: the slabs packed on several goroutines
// leave the items and the cuts exactly as one goroutine does, on the key
// tables, at sizes that make no cut at all (one group short of full, and
// full), one item past a group (two slabs of one group each), and many
// slabs; eight workers are more than some of those have slabs.
func TestPackSameAtAnyWorkerCount(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for name, box := range keyTables(rng) {
		for _, groupSize := range []int{16, 196} {
			for _, n := range []int{groupSize - 1, groupSize, groupSize + 1, 20_000} {
				objs := make([]geom.Object, n)
				for i := range objs {
					objs[i] = geom.Object{ID: geom.ID(i), Box: box(i)}
				}
				checkWorkers(t, fmt.Sprintf("%s %d", name, n), objs, groupSize, 2, 3, 8)
			}
		}
	}
}

// checkWorkers fails t unless PackStages at each of the worker counts
// orders objs and cuts them bit for bit as it does at one worker.
func checkWorkers(t testing.TB, name string, objs []geom.Object, groupSize int, workers ...int) {
	t.Helper()
	want, wantStages := PackStages(objs, center, groupSize, 1)
	for _, w := range workers {
		got, gotStages := PackStages(objs, center, groupSize, w)
		if !slices.Equal(got, want) {
			t.Errorf("%s, groupSize %d, %d workers: the items are not in one worker's order", name, groupSize, w)
		}
		for d := range gotStages {
			if !slices.Equal(gotStages[d], wantStages[d]) {
				t.Errorf("%s, groupSize %d, %d workers: runs of the cut along dimension %d begin at %v, at one worker at %v",
					name, groupSize, w, d, gotStages[d], wantStages[d])
			}
		}
	}
}

// gather returns the objects in the order PackStages handed back.
func gather(objs []geom.Object, order []int32) []geom.Object {
	out := make([]geom.Object, len(order))
	for i, j := range order {
		out[i] = objs[j]
	}
	return out
}

// sameObject compares two objects by ID and by the bits of their boxes:
// they hold NaN, which no value equals.
func sameObject(a, b geom.Object) bool {
	if a.ID != b.ID {
		return false
	}
	for d := 0; d < geom.Dims; d++ {
		if math.Float64bits(a.Box.Min[d]) != math.Float64bits(b.Box.Min[d]) || math.Float64bits(a.Box.Max[d]) != math.Float64bits(b.Box.Max[d]) {
			return false
		}
	}
	return true
}

// checkPack fails t unless Pack and PackStages give the stable-sort
// reference's groups, ordered items and cuts for objs.
func checkPack(t testing.TB, name string, objs []geom.Object, groupSize int) {
	t.Helper()
	got := PackObjects(objs, groupSize)
	order, gotStages := PackStages(objs, center, groupSize, 1)
	ordered := gather(objs, order)
	want, wantStages := stablePack(objs, groupSize)
	if !slices.EqualFunc(got, want, func(a, b []geom.Object) bool { return slices.EqualFunc(a, b, sameObject) }) {
		t.Errorf("%s, groupSize %d: groups differ from the stable-sort reference", name, groupSize)
	}
	if !slices.EqualFunc(ordered, slices.Concat(want...), sameObject) {
		t.Errorf("%s, groupSize %d: the ordered items are not the reference's groups end to end", name, groupSize)
	}
	for d := range gotStages {
		if !slices.Equal(gotStages[d], wantStages[d]) {
			t.Errorf("%s, groupSize %d: runs of the cut along dimension %d begin at %v, in the reference at %v",
				name, groupSize, d, gotStages[d], wantStages[d])
		}
	}
}

// fuzzCoords is what FuzzPack's bytes pick coordinates from: the values
// a key gets wrong first, and small integers that make ties.
var fuzzCoords = [16]float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(-1), math.Inf(1),
	-math.MaxFloat64, math.SmallestNonzeroFloat64, -1.5, 1, 2, 3, 4, 5, 6, 7, 8}

// FuzzPack holds PackStages to the stable-sort reference on decoded
// points, and at four workers to itself at one: the first byte picks the
// group size, 1 to 32, and every three after it one item's center, a byte
// a coordinate — below 128 one of fuzzCoords, above it one of 128
// quarters in [0, 32).
func FuzzPack(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3})
	f.Add(append([]byte{4}, bytes.Repeat([]byte{9, 10, 0, 2, 1, 3}, 40)...))
	stripes := []byte{7}
	for i := range 600 {
		stripes = append(stripes, byte(i*37))
	}
	f.Add(stripes)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		groupSize := int(data[0]%32) + 1
		objs := make([]geom.Object, (len(data)-1)/3)
		if len(objs) == 0 {
			return // no items, no runs: TestPackEmpty
		}
		for i := range objs {
			var p geom.Point
			for d, b := range data[1+3*i : 4+3*i] {
				p[d] = fuzzCoords[b%16]
				if b >= 128 {
					p[d] = float64(b-128) / 4
				}
			}
			objs[i] = geom.Object{ID: geom.ID(i), Box: geom.BoxAt(p)}
		}
		checkPack(t, "fuzzed", objs, groupSize)
		checkWorkers(t, "fuzzed", objs, groupSize, 4)
	})
}

// TestPackAllocBudget pins what PackStages allocates: one key per
// dimension, the index it permutes and hands back, and as much scratch —
// 32 bytes an object — and little else; the items are not copied.
// At two workers the slabs' own packers and stage lists and the
// goroutines add a few kilobytes, well inside the same budget.
func TestPackAllocBudget(t *testing.T) {
	const n = 100_000
	objs := datagen.UniformSet(n, 41)
	for _, workers := range []int{1, 2} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		PackStages(objs, center, GroupSizeFor(n, 1024), workers)
		runtime.ReadMemStats(&after)
		if perItem := float64(after.TotalAlloc-before.TotalAlloc) / n; perItem > 33 {
			t.Errorf("PackStages at %d workers allocated %.1f bytes an item, want at most 33", workers, perItem)
		}
	}
}

// TestStagesTileTheItems: the cuts PackStages reports are the cuts it
// made. The runs of every cut tile the ordered items from the first to
// the last, the last cut's in groups of groupSize with remainders only
// where a run ends; a run of one cut is made of whole runs of the next;
// and inside one run the parts it was cut into ascend by center in the
// dimension of that cut: no center of a part lies before a center of the
// part before it.
func TestStagesTileTheItems(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	tied := make([]geom.Object, 4000)
	for i := range tied {
		p := geom.Point{float64(rng.Intn(5)), float64(rng.Intn(5)), float64(rng.Intn(5))}
		tied[i] = geom.Object{ID: geom.ID(i), Box: geom.BoxAt(p)}
	}
	same := make([]geom.Object, 1000)
	for i := range same {
		same[i] = geom.Object{ID: geom.ID(i), Box: geom.BoxAt(geom.Point{3, 3, 3})}
	}
	cases := map[string][]geom.Object{
		"uniform":           datagen.UniformSet(20_000, 31),
		"clustered":         datagen.ClusteredSet(6000, 32),
		"grid-aligned":      tied,
		"all centers equal": same,
		"one object":        datagen.UniformSet(1, 34),
	}
	for name, objs := range cases {
		for _, groupSize := range []int{1, 7, 20, 196, 999, 1000, 30_000} {
			order, stages := PackStages(objs, center, groupSize, 1)
			ordered := gather(objs, order)
			n := int32(len(ordered))
			if len(ordered) != len(objs) {
				t.Fatalf("%s, groupSize %d: %d items ordered, %d given", name, groupSize, len(ordered), len(objs))
			}
			// span returns the lowest and highest center, in dimension d, of
			// the items [lo, hi).
			span := func(d int, lo, hi int32) (float64, float64) {
				least, most := math.Inf(1), math.Inf(-1)
				for _, o := range ordered[lo:hi] {
					c := center(o)[d]
					least, most = min(least, c), max(most, c)
				}
				return least, most
			}
			outer := []int32{0, n} // the whole input, as the one run of a cut above the first
			for d, inner := range stages {
				if len(inner) < 2 || inner[0] != 0 || inner[len(inner)-1] != n || !slices.IsSorted(inner) ||
					len(slices.Compact(slices.Clone(inner))) != len(inner) {
					t.Fatalf("%s, groupSize %d: runs of the cut along dimension %d begin at %v: not a tiling of %d items",
						name, groupSize, d, inner, n)
				}
				for r, lo := range outer[:len(outer)-1] {
					hi := outer[r+1]
					i, whole := slices.BinarySearch(inner, lo)
					j, wholeToo := slices.BinarySearch(inner, hi)
					if !whole || !wholeToo {
						t.Fatalf("%s, groupSize %d: the run [%d, %d) is not made of whole runs of the cut along dimension %d",
							name, groupSize, lo, hi, d)
					}
					// The parts of the run [lo, hi): [inner[k], inner[k+1]) for k in [i, j).
					for k := i; k < j; k++ {
						if size := int(inner[k+1] - inner[k]); d == geom.Dims-1 && (size > groupSize || size < groupSize && k+1 < j) {
							t.Errorf("%s, groupSize %d: the group at item %d holds %d items inside a run that ends at %d",
								name, groupSize, inner[k], size, hi)
						}
						if k == i {
							continue
						}
						_, before := span(d, inner[k-1], inner[k])
						if after, _ := span(d, inner[k], inner[k+1]); after < before {
							t.Errorf("%s, groupSize %d: along dimension %d the part at item %d begins at center %g, before %g of the part it follows",
								name, groupSize, d, inner[k], after, before)
						}
					}
				}
				outer = inner
			}
		}
	}
}

// TestSortKeyOrdersAsCompare: sortKey is monotone in cmp.Compare's order
// of the floats, and equal exactly where that order ties.
func TestSortKeyOrdersAsCompare(t *testing.T) {
	vals := []float64{math.NaN(), -math.NaN(), math.Inf(-1), -math.MaxFloat64, -2, -1, -math.SmallestNonzeroFloat64,
		math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, 1, 2, math.MaxFloat64, math.Inf(1)}
	for _, a := range vals {
		for _, b := range vals {
			if got, want := cmp.Compare(sortKey(a), sortKey(b)), cmp.Compare(a, b); got != want {
				t.Errorf("sortKey orders %v and %v as %d, cmp.Compare as %d", a, b, got, want)
			}
		}
	}
}
