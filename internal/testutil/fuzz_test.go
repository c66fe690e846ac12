package testutil

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"touch"
	"touch/internal/core"
	"touch/internal/geom"
	"touch/internal/nl"
	"touch/internal/stats"
)

// The fuzz targets decode raw bytes into small datasets and check the
// fast paths against the brute-force oracles — the adversarial
// counterpart of the seeded differential tables above. Coordinates are
// quantized onto a coarse lattice (multiples of 5 in [0, 315]) so the
// fuzzer constantly produces touching boundaries, zero-extent boxes,
// duplicates and distance ties — the inputs where tie-breaking and
// closed-interval semantics actually matter — rather than 2⁶⁴ distinct
// floats that never collide. NaN/Inf never enter: the public API
// rejects them by contract (ErrInvalidBox / ErrInvalidPoint).

// fuzzVal maps two bytes onto the coordinate lattice.
func fuzzVal(data []byte, i int) float64 {
	return float64(binary.LittleEndian.Uint16(data[i:])%64) * 5
}

const bytesPerBox = 12 // 6 lattice values

// fuzzBox decodes one box starting at byte offset i, normalizing corner
// order through NewBox.
func fuzzBox(data []byte, i int) geom.Box {
	var lo, hi geom.Point
	for d := 0; d < geom.Dims; d++ {
		lo[d] = fuzzVal(data, i+2*d)
		hi[d] = fuzzVal(data, i+6+2*d)
	}
	return geom.NewBox(lo, hi)
}

// fuzzDataset decodes up to maxN boxes from data starting at offset i,
// returning the dataset and the offset past the consumed bytes.
func fuzzDataset(data []byte, i, maxN int) (geom.Dataset, int) {
	n := min(maxN, (len(data)-i)/bytesPerBox)
	ds := make(geom.Dataset, 0, max(n, 0))
	for j := 0; j < n; j++ {
		ds = append(ds, geom.Object{ID: geom.ID(j), Box: fuzzBox(data, i)})
		i += bytesPerBox
	}
	return ds, i
}

// fuzzSeeds adds a shared seed corpus: empty input, a single pair,
// identical boxes, and a striped pattern exercising every lattice
// value.
func fuzzSeeds(f *testing.F) {
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0x11}, 3+2*bytesPerBox))
	f.Add(bytes.Repeat([]byte{0x00, 0x40}, 40)) // identical boxes
	stripes := make([]byte, 0, 200)
	for i := 0; i < 200; i++ {
		stripes = append(stripes, byte(i*7))
	}
	f.Add(stripes)
}

// nestSeeds returns the two datasets, n boxes each, on which the cuts the
// tree is built along have their edge cases: every box around one centre,
// with extents that differ, so each of STR's sorts is one long tie and the
// runs are cut by position alone; and n scattered boxes, for an n one past
// a count that tiles evenly (a cube of slabs, a multiple of the bucket), so
// the last slab, run and bucket are each a remainder of one.
func nestSeeds(n int) (sameCentre, scattered []byte) {
	for j := 0; j < n; j++ {
		hx, hy, hz := float64(5*(j%7)), float64(5*(j/7%5)), float64(5*(j%3))
		sameCentre = append(sameCentre, fuzzLattice(160-hx, 160-hy, 160-hz, 160+hx, 160+hy, 160+hz)...)
		x, y, z := float64(5*(j*7%62)), float64(5*(j*13%62)), float64(5*(j*29%62))
		scattered = append(scattered, fuzzLattice(x, y, z, x+float64(5*(j%3)), y+5, z)...)
	}
	return sameCentre, scattered
}

// fuzzGrid is the configuration FuzzJoin runs both grid kinds on: a
// local-join grid of at most four cells per dimension, with a cell side
// of a hundredth of the larger mean extent, so a node gets all four along
// every dimension its MBR spans widely. On a node over [0, 300]³ the cell
// boundaries then fall on the lattice, every 75, and the decoded boxes
// span several cells: the pairs whose owning cell the probe must pick.
var fuzzGrid = core.Config{Partitions: 4, LocalCells: 4, CellFactor: 0.01}

// alignedSeed is 27 A boxes and 27 B boxes whose minimum corners sit on
// the cell boundaries of fuzzGrid's grid over [0, 300]³ (A's MBR) and
// which span three cells (A) or two (B, whose maximum corners are
// boundaries too) in every dimension: pairs that share several cells and
// begin on a boundary, where an off-by-one in the owning cell shows.
func alignedSeed() []byte {
	out := []byte{27}
	for _, ext := range []float64{150, 75} {
		for i := 0; i < 27; i++ {
			x, y, z := float64(75*(i%3)), float64(75*(i/3%3)), float64(75*(i/9))
			out = append(out, fuzzLattice(x, y, z, x+ext, y+ext, z+ext)...)
		}
	}
	return out
}

// FuzzJoin: TOUCH (sequential and 4 workers) and the clamped PBSM grid
// must reproduce the nested-loop pair set on arbitrary decoded
// datasets, and so must core.JoinExpanded with both grid local joins — the
// pre-test canonical-cell rule and the paper's post-test dedup — which
// must also agree on Results, the post-test kind comparing at least as
// much and replicating at least as much: pre-test dedup builds a node's
// grid only when some task of it is not a lone-box scan, and then the
// same grid post-test dedup builds for every node.
func FuzzJoin(f *testing.F) {
	fuzzSeeds(f)
	// 28 objects in buckets of one: a cube of 27 and one over.
	sameCentre, scattered := nestSeeds(28)
	f.Add(slices.Concat([]byte{28}, sameCentre, scattered))
	f.Add(slices.Concat([]byte{28}, scattered, sameCentre))
	f.Add(alignedSeed())
	// A node whose only task is a lone probe box: pre-test dedup scans it
	// without a grid (no replicas), post-test dedup builds one.
	f.Add([]byte("A00A0000000A0000000000000"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		a, off := fuzzDataset(data, 1, int(data[0])%64)
		b, _ := fuzzDataset(data, off, 64)
		c := Case{Name: "fuzz", A: a, B: b}
		want, err := OraclePairs(a, b)
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range []touch.Algorithm{touch.AlgTOUCH, touch.AlgPBSM500} {
			for _, workers := range []int{1, 4} {
				if err := CheckJoin(alg, c, workers, want); err != nil {
					t.Error(err)
				}
			}
		}
		for _, workers := range []int{1, 4} {
			var counts [2]stats.Counters
			for i, kind := range []core.LocalJoinKind{core.LocalJoinGrid, core.LocalJoinGridPostDedup} {
				cfg := fuzzGrid
				cfg.LocalJoin = kind
				sink := &stats.CollectSink{}
				core.JoinExpanded(a, 0, b, 0, cfg, workers, nil, &counts[i], sink)
				if got := PairSet(sink.Pairs); !slices.Equal(got, want) {
					t.Errorf("core.JoinExpanded %s workers=%d: %d pairs, oracle has %d (first diff at %d)",
						kind, workers, len(got), len(want), firstDiff(got, want))
				}
			}
			pre, post := &counts[0], &counts[1]
			if pre.Results != post.Results || pre.Replicas > post.Replicas || post.Comparisons < pre.Comparisons {
				t.Errorf("core.JoinExpanded workers=%d: grid results %d, replicas %d, comparisons %d; grid-postdedup %d, %d, %d",
					workers, pre.Results, pre.Replicas, pre.Comparisons, post.Results, post.Replicas, post.Comparisons)
			}
		}
	})
}

// FuzzDistanceJoin: a distance join that applies ε in the engine's own
// copies must equal the intersection join over the expanded dataset —
// pairs and counters — on an index (ε on the probe) and one-shot (ε on
// A, kept as the tree or swapped to the probe), with 1 and 4 workers.
// The datasets decode as FuzzJoin's after one more byte, the ε: a
// multiple of 2.5 up to 30, so ε is often exactly a lattice gap or half
// of one.
func FuzzDistanceJoin(f *testing.F) {
	fuzzSeeds(f)
	f.Add(slices.Concat([]byte{27, 2}, alignedSeed()[1:]))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		eps := float64(data[1]%13) * 2.5
		a, off := fuzzDataset(data, 2, int(data[0])%64)
		b, _ := fuzzDataset(data, off, 64)
		idx := touch.BuildIndex(a, fuzzGrid)
		for _, workers := range []int{1, 4} {
			if err := checkOneShotFold(a, b, eps, workers); err != nil {
				t.Errorf("eps=%g workers=%d: %v", eps, workers, err)
			}
			if err := checkReaderFold(idx, b, eps, workers); err != nil {
				t.Errorf("eps=%g workers=%d index: %v", eps, workers, err)
			}
		}
	})
}

// FuzzRangeQuery: the tree-accelerated range and point queries must
// match the exhaustive scans on arbitrary decoded datasets and query
// boxes.
func FuzzRangeQuery(f *testing.F) {
	fuzzSeeds(f)
	// The most objects a run decodes, every one meeting the query box: an
	// answer past the cut-over of the engine's radix sort, which the
	// shared seeds' few dozen hits never reach.
	long := fuzzLattice(100, 100, 100, 200, 200, 200)
	for i := 0; i < 128; i++ {
		lo := float64(5 * (i % 40))
		long = append(long, fuzzLattice(lo, lo, 150, 200, 200, 150)...)
	}
	f.Add(long)
	// 65 objects in buckets of one: a cube of 64 and one over.
	sameCentre, scattered := nestSeeds(65)
	f.Add(append(fuzzLattice(100, 100, 100, 200, 200, 200), sameCentre...))
	f.Add(append(fuzzLattice(100, 100, 100, 200, 200, 200), scattered...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < bytesPerBox {
			return
		}
		q := fuzzBox(data, 0)
		ds, _ := fuzzDataset(data, bytesPerBox, 128)
		ix := touch.BuildIndex(ds, touch.TOUCHConfig{})

		got, err := ix.RangeQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		if want := nl.RangeQuery(ds, q); !slices.Equal(got, want) {
			t.Fatalf("RangeQuery(%v) on %d objects: got %v, want %v", q, len(ds), got, want)
		}

		p := q.Min
		gotPt, err := ix.PointQuery(p[0], p[1], p[2])
		if err != nil {
			t.Fatal(err)
		}
		if want := nl.PointQuery(ds, p); !slices.Equal(gotPt, want) {
			t.Fatalf("PointQuery(%v) on %d objects: got %v, want %v", p, len(ds), gotPt, want)
		}
	})
}

// FuzzSortIDs: the order of a range answer. Every four bytes are one
// object ID — any int32, duplicates and negatives included — of an object
// that meets the query box, so the answer is all of them and must come
// back as slices.Sort leaves them: through the comparison sort below the
// engine's cut-over, through the radix sort above it, whatever the IDs
// span.
func FuzzSortIDs(f *testing.F) {
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0x80}, 40)) // MaxInt32 and MinInt32
	f.Add(bytes.Repeat([]byte{7, 0, 0, 0}, 100))                           // all equal
	stripes := make([]byte, 0, 800)
	for i := 0; i < 800; i++ {
		stripes = append(stripes, byte(i*37))
	}
	f.Add(stripes)
	f.Fuzz(func(t *testing.T, data []byte) {
		ds := make(geom.Dataset, min(len(data)/4, 1024))
		want := make([]geom.ID, len(ds))
		for i := range ds {
			x := float64(i % 7)
			ds[i] = geom.Object{
				ID:  geom.ID(binary.LittleEndian.Uint32(data[4*i:])),
				Box: geom.NewBox(geom.Point{x, 0, 0}, geom.Point{x + 1, 1, 1}),
			}
			want[i] = ds[i].ID
		}
		slices.Sort(want)
		ix := touch.BuildIndex(ds, touch.TOUCHConfig{Partitions: 1 + len(data)%5})
		got, err := ix.RangeQuery(geom.NewBox(geom.Point{-1, 0, 0}, geom.Point{9, 0, 0}))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("RangeQuery over %d objects that all match: ids not as slices.Sort leaves them\n got %v\nwant %v", len(ds), got, want)
		}
	})
}

// fuzzLattice encodes lattice values (multiples of 5 in [0, 315]) the way
// fuzzVal decodes them.
func fuzzLattice(vals ...float64) []byte {
	out := make([]byte, 0, 2*len(vals))
	for _, v := range vals {
		out = binary.LittleEndian.AppendUint16(out, uint16(v/5))
	}
	return out
}

// knnTieSeeds are two FuzzKNN inputs in which most objects share the k-th
// distance and the smaller IDs are met last, so the fuzzer starts from the
// bound's tie rule instead of having to find it.
func knnTieSeeds() [][]byte {
	// A 3×3×3 shell of points around the query point, every point present
	// four times: 24 objects at distance 25, 48 at √1250, 32 at √1875. k =
	// 30 ends inside the second group, and four buckets put the objects in
	// STR's ascending order while the IDs run with descending coordinates.
	shell := append([]byte{2<<5 | 29}, fuzzLattice(160, 160, 160)...)
	for c := 0; c < 4; c++ {
		for _, dx := range []float64{25, 0, -25} {
			for _, dy := range []float64{25, 0, -25} {
				for _, dz := range []float64{25, 0, -25} {
					if dx != 0 || dy != 0 || dz != 0 {
						shell = append(shell, fuzzLattice(160+dx, 160+dy, 160+dz, 160+dx, 160+dy, 160+dz)...)
					}
				}
			}
		}
	}
	// Exact duplicates only: 64 copies of the point 40 to the right of the
	// query point, then 64 of the point 40 to its left. Two buckets, both
	// at the distance all 128 objects share; the left one is opened first
	// and fills the heap, and the 10 smallest IDs are all in the right one.
	sides := append([]byte{1<<5 | 9}, fuzzLattice(160, 160, 160)...)
	for _, x := range []float64{200, 120} {
		sides = append(sides, bytes.Repeat(fuzzLattice(x, 160, 160, x, 160, 160), 64)...)
	}
	return [][]byte{shell, sides}
}

// FuzzKNN: best-first kNN must match the sort-everything oracle —
// including the (Distance, ID) tie order the lattice provokes — on
// arbitrary decoded datasets, query points, k and bucket counts (1 to
// 128, so leaves of one object and leaves of two blocks both occur).
func FuzzKNN(f *testing.F) {
	fuzzSeeds(f)
	for _, seed := range knnTieSeeds() {
		f.Add(seed)
	}
	// 65 objects, k = 10: asked for 64 buckets they make 32 of two and one
	// of one, asked for 8, seven of nine and one of two.
	sameCentre, scattered := nestSeeds(65)
	for _, buckets := range []byte{6, 3} {
		head := append([]byte{buckets<<5 | 9}, fuzzLattice(160, 160, 160)...)
		f.Add(slices.Concat(head, sameCentre))
		f.Add(slices.Concat(head, scattered))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 7 {
			return
		}
		k := 1 + int(data[0])%32
		p := geom.Point{fuzzVal(data, 1), fuzzVal(data, 3), fuzzVal(data, 5)}
		ds, _ := fuzzDataset(data, 7, 128)
		ix := touch.BuildIndex(ds, touch.TOUCHConfig{Partitions: 1 << (data[0] >> 5)})

		got, err := ix.KNN(p, k)
		if err != nil {
			t.Fatal(err)
		}
		if want := nl.KNN(ds, p, k); !slices.Equal(got, want) {
			t.Fatalf("KNN(%v, %d) on %d objects: got %v, want %v", p, k, len(ds), got, want)
		}
	})
}
