package geom

import (
	"math"
	"slices"
	"testing"
)

// earlyExit is the kNN scan's decision as a loop over the dimensions that
// stops at the first partial sum of squared gaps past limit: whether the
// object is kept, and the sum it stopped at.
func earlyExit(b *Box, p *Point, limit float64) (bool, float64) {
	sum := 0.0
	for d := 0; d < Dims && sum <= limit; d++ {
		if gap := max(b.Min[d]-p[d], p[d]-b.Max[d]); gap > 0 {
			sum += gap * gap
		}
	}
	return !(sum > limit), sum
}

// FuzzBoxKernels feeds raw float64 bit patterns — NaN payloads, both
// zeros, both infinities, subnormals — to the two scan kernels as an
// object's box (a box column of one, beside an ID column of one), a query
// box, a query point and a bound:
//
//   - AppendMeeting keeps the object exactly when Box.Meets says it meets
//     the query box, after what ids already held, which it leaves alone,
//     whether ids is full or has room;
//   - Meeting keeps, in order, the entries of a run naming the object and
//     the query box itself exactly when Box.Meets does, written over the
//     run it reads and into a slice of its own;
//   - NextWithin's sum under an infinite bound is PointDistance's square,
//     bit for bit, and under the fuzzed bound it keeps the object exactly
//     when the early-exit loop does, at the sum that loop reaches.
func FuzzBoxKernels(f *testing.F) {
	nan, negZero := math.Float64bits(math.NaN()), math.Float64bits(math.Copysign(0, -1))
	inf, one, two, sub := math.Float64bits(math.Inf(1)), math.Float64bits(1), math.Float64bits(2), uint64(1)
	f.Add(uint64(0), uint64(0), uint64(0), one, one, one, // object
		uint64(0), uint64(0), uint64(0), two, two, two, // query box
		two, two, two, one) // point, bound
	// Boxes touching corner to corner, one way and the other (closed
	// intervals: they meet), and a point whose distance is the bound.
	f.Add(one, one, one, two, two, two,
		uint64(0), uint64(0), uint64(0), one, one, one,
		uint64(0), one, one, one)
	f.Add(uint64(0), uint64(0), uint64(0), one, one, one,
		one, one, one, two, two, two,
		two, one, one, one)
	f.Add(nan, uint64(0), negZero, one, inf, one,
		one, negZero, nan, inf, two, one,
		inf, nan, sub, inf)
	f.Add(sub, sub|1<<63, uint64(0x7ff0000000000123), one, one, uint64(0xfff8000000000456),
		one|1<<63, sub, uint64(0), one, one, one,
		negZero, two|1<<63, one, nan)
	f.Fuzz(func(t *testing.T, b0, b1, b2, b3, b4, b5, q0, q1, q2, q3, q4, q5, p0, p1, p2, lim uint64) {
		fl := math.Float64frombits
		b := Box{Min: Point{fl(b0), fl(b1), fl(b2)}, Max: Point{fl(b3), fl(b4), fl(b5)}}
		q := Box{Min: Point{fl(q0), fl(q1), fl(q2)}, Max: Point{fl(q3), fl(q4), fl(q5)}}
		p, limit := Point{fl(p0), fl(p1), fl(p2)}, fl(lim)
		boxes := []Box{b}

		// Into a full slice and into one with room to spare.
		for _, held := range [][]ID{{-1}, append(make([]ID, 0, 4), -1)} {
			ids := AppendMeeting(held, boxes, []ID{7}, &q)
			if want := 1 + bit(b.Meets(&q)); len(ids) != want || ids[0] != -1 || (want == 2 && ids[1] != 7) {
				t.Fatalf("AppendMeeting(%v, %v) = %v, Meets %v", b, q, ids, b.Meets(&q))
			}
		}

		objs := []Object{{ID: 7, Box: b}, {ID: 8, Box: q}}
		var want []int32
		run := []int32{1, 0, 0, 1, 0}
		for _, i := range run {
			if objs[i].Box.Meets(&q) {
				want = append(want, i)
			}
		}
		out := make([]int32, len(run))
		if n := Meeting(out, run, objs, &q); !slices.Equal(out[:n], want) {
			t.Fatalf("Meeting(%v, %v) = %v, Meets keeps %v", b, q, out[:n], want)
		}
		if n := Meeting(run, run, objs, &q); !slices.Equal(run[:n], want) {
			t.Fatalf("Meeting(%v, %v) in place = %v, Meets keeps %v", b, q, run[:n], want)
		}

		i, sum := NextWithin(boxes, 0, &p, math.Inf(1))
		if want := b.PointDistance(p); i != 0 || math.Float64bits(math.Sqrt(sum)) != math.Float64bits(want) {
			t.Fatalf("NextWithin(%v, %v, +Inf) = %d, %g: the root %g, PointDistance %g", b, p, i, sum, math.Sqrt(sum), want)
		}
		full := sum
		keep, stopped := earlyExit(&b, &p, limit)
		i, sum = NextWithin(boxes, 0, &p, limit)
		// Under a NaN bound the loop stops before the first dimension, so
		// it keeps every object at the sum 0; offer's bound is never NaN.
		if (i == 0) != keep || (keep && sum != full) || (keep && !math.IsNaN(limit) && stopped != full) {
			t.Fatalf("NextWithin(%v, %v, %g) = %d, %g; the early-exit loop keeps %v at %g, the full sum %g", b, p, limit, i, sum, keep, stopped, full)
		}
	})
}
