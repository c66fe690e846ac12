package main

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"

	"touch"
	"touch/internal/nl"
	"touch/internal/testutil"
)

const (
	eps      = 5.0 // every distance join of the benchmark
	knnK     = 10
	pipeline = 64 // requests in flight per pipelined connection
	rounds   = 8  // serve_read interleaves its phases this many times
	dataset  = "bench"
)

// refSeconds is the --seconds value the full-scale op counts below are
// written for; another value scales them linearly.
const refSeconds = 20

// sizes holds every input size and op count of the four workloads.
type sizes struct {
	// both join workloads cycle through this many inputs
	joinInputs int
	// join_sparse
	sparseA, sparseB, sparseJoins int
	// join_dense: the paper's neuroscience counts divided by neuroDiv
	neuroDiv, denseJoins int
	// serve_read; per-phase op counts are per round
	readN, shapes, bruteShapes      int
	httpOps, http2Ops               int
	wireOps, routerOps              int
	pipeBatches                     int // per connection
	joinProbes, joinProbeN, joinOps int
	// serve_mixed
	mixedN, mixedOps, mixedChecks int
	// traced runs
	tracedJoins, ladderOps, deltaIns, deltaTombs, updateOps, compacts int
}

func sizesFor(cfg config) sizes {
	if cfg.scale == "tiny" {
		return sizes{
			joinInputs: 2,
			sparseA:    2000, sparseB: 6000, sparseJoins: 4,
			neuroDiv: 400, denseJoins: 4,
			readN: 4000, shapes: 64, bruteShapes: 16,
			httpOps: 8, http2Ops: 8, wireOps: 8, routerOps: 8,
			pipeBatches: 1, joinProbes: 2, joinProbeN: 64, joinOps: 1,
			mixedN: 3000, mixedOps: 400, mixedChecks: 16,
			tracedJoins: 2, ladderOps: 64, deltaIns: 128, deltaTombs: 64, updateOps: 16, compacts: 1,
		}
	}
	// scaled keeps an op count proportional to --seconds.
	scaled := func(n int) int { return max(n*cfg.seconds/refSeconds, 1) }
	return sizes{
		joinInputs: 4,
		sparseA:    200_000, sparseB: 600_000, sparseJoins: scaled(36),
		neuroDiv: 5, denseJoins: scaled(16),
		readN: 500_000, shapes: 4096, bruteShapes: 256,
		httpOps: scaled(2048), http2Ops: scaled(4096),
		wireOps: scaled(2048), routerOps: scaled(2048),
		pipeBatches: scaled(96), joinProbes: 6, joinProbeN: 2048, joinOps: scaled(3),
		mixedN: 200_000, mixedOps: scaled(40_000), mixedChecks: 64,
		tracedJoins: 6, ladderOps: 4096, deltaIns: 2048, deltaTombs: 1024, updateOps: 512, compacts: 3,
	}
}

// fingerprint hashes generated inputs so two runs can be told to have
// used the same (or different) data.
type fingerprint struct{ h uint64 }

func (f *fingerprint) mix(v uint64) {
	f.h = (f.h ^ v) * 0x100000001b3
	f.h ^= f.h >> 29
}

func (f *fingerprint) point(p touch.Point) {
	for _, x := range p {
		f.mix(math.Float64bits(x))
	}
}

func (f *fingerprint) boxes(bs []touch.Box) {
	for i := range bs {
		f.point(bs[i].Min)
		f.point(bs[i].Max)
	}
}

func (f *fingerprint) dataset(ds touch.Dataset) {
	f.mix(uint64(len(ds)))
	for i := range ds {
		f.mix(uint64(uint32(ds[i].ID)))
		f.point(ds[i].Box.Min)
		f.point(ds[i].Box.Max)
	}
}

func (f *fingerprint) String() string { return fmt.Sprintf("%016x", f.h) }

// hashIDs hashes a range answer: order matters, the API promises
// ascending IDs.
func hashIDs(ids []touch.ID) uint64 {
	h := uint64(len(ids)) + 0x9e3779b97f4a7c15
	for _, id := range ids {
		h = (h ^ uint64(uint32(id))) * 0x100000001b3
	}
	return h
}

// hashNeighbors hashes a kNN answer, IDs and exact distances, in order.
func hashNeighbors(nbrs []touch.Neighbor) uint64 {
	h := uint64(len(nbrs)) + 0x9e3779b97f4a7c15
	for _, n := range nbrs {
		h = (h ^ uint64(uint32(n.ID))) * 0x100000001b3
		h = (h ^ math.Float64bits(n.Distance)) * 0x100000001b3
	}
	return h
}

// hashPairs is the count plus an order-independent checksum of a join's
// pair set: engines, worker counts and transports emit in different
// orders.
func hashPairs(pairs []touch.Pair) uint64 {
	sum := uint64(len(pairs)) * 0x9e3779b97f4a7c15
	for _, p := range pairs {
		x := uint64(uint32(p.A))<<32 | uint64(uint32(p.B))
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		sum += x
	}
	return sum
}

// neighborOrder is the (distance, ID) order every kNN answer promises.
func neighborOrder(a, b touch.Neighbor) int {
	if a.Distance != b.Distance {
		return cmp.Compare(a.Distance, b.Distance)
	}
	return cmp.Compare(a.ID, b.ID)
}

// bruteKNN scans every object, keeping the k best by (distance, ID).
// internal/nl.KNN sorts the whole dataset per query, which at 500K
// objects and 256 checked shapes would cost more than the measured run.
func bruteKNN(ds touch.Dataset, q touch.Point, k int) []touch.Neighbor {
	best := make([]touch.Neighbor, 0, k+1)
	for i := range ds {
		n := touch.Neighbor{ID: ds[i].ID, Distance: ds[i].Box.PointDistance(q)}
		if len(best) == k && neighborOrder(n, best[k-1]) >= 0 {
			continue
		}
		at, _ := slices.BinarySearchFunc(best, n, neighborOrder)
		best = slices.Insert(best, at, n)
		best = best[:min(len(best), k)]
	}
	return best
}

// shapes are the query inputs shared by serve_read and serve_mixed: the
// same boxes and points at every front door and every ladder rung, with
// the expected answer of each as a hash.
type shapes struct {
	boxes     []touch.Box
	points    []touch.Point
	rangeWant []uint64
	knnWant   []uint64
	meanIDs   float64
}

// newShapes derives the query shapes from seed and computes the expected
// answers from idx, the in-process Index over ds. The first brute shapes
// are also checked against a full scan, so the reference itself is not
// taken on trust.
func (r *run) newShapes(seed int64, ds touch.Dataset, idx *touch.Index, fp *fingerprint) *shapes {
	sh := &shapes{}
	sh.boxes, sh.points, _ = testutil.QueryWorkload(seed, r.sz.shapes)
	fp.boxes(sh.boxes)
	for _, p := range sh.points {
		fp.point(p)
	}
	sh.rangeWant = make([]uint64, len(sh.boxes))
	sh.knnWant = make([]uint64, len(sh.points))
	rangeErr := make([]error, len(sh.boxes))
	knnErr := make([]error, len(sh.points))
	total := 0
	for i := range sh.boxes {
		var ids []touch.ID
		var nbrs []touch.Neighbor
		ids, rangeErr[i] = idx.RangeQuery(sh.boxes[i])
		nbrs, knnErr[i] = idx.KNN(sh.points[i], knnK)
		sh.rangeWant[i], sh.knnWant[i] = hashIDs(ids), hashNeighbors(nbrs)
		total += len(ids)
	}
	// The full scans are the expensive part of the oracle; they are not
	// measured, so they may use every core.
	var wg sync.WaitGroup
	workers := runtime.NumCPU()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < min(r.sz.bruteShapes, len(sh.boxes)); i += workers {
				r.check("oracle range", i, rangeErr[i], sh.rangeWant[i], hashIDs(nl.RangeQuery(ds, sh.boxes[i])))
				r.check("oracle knn", i, knnErr[i], sh.knnWant[i], hashNeighbors(bruteKNN(ds, sh.points[i], knnK)))
			}
		}(w)
	}
	wg.Wait()
	sh.meanIDs = float64(total) / float64(max(len(sh.boxes), 1))
	return sh
}

// boxesOf strips the IDs off a dataset: the inline probe of a wire join.
func boxesOf(ds touch.Dataset) []touch.Box {
	out := make([]touch.Box, len(ds))
	for i := range ds {
		out[i] = ds[i].Box
	}
	return out
}

// smallBoxes draws n boxes of side <= 2 from seed: the inserts of the
// update schedule.
func smallBoxes(seed int64, n int) []touch.Box {
	// A dataset generator keyed by the seed keeps the benchmark free of
	// its own RNG plumbing; the generated sides (<= 1) are doubled.
	ds := touch.GenerateUniform(n, seed)
	out := make([]touch.Box, n)
	for i := range ds {
		b := ds[i].Box
		for d := 0; d < 3; d++ {
			b.Max[d] = b.Min[d] + 2*(b.Max[d]-b.Min[d])
		}
		out[i] = b
	}
	return out
}
