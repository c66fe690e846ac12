package core

import (
	"math/bits"
	"slices"

	"touch/internal/geom"
)

// radixBits is the widest digit of the ID sort; its counters, in the
// probe's queryScratch, are 1 KB. Ten bits sort the 19-bit IDs of a 500K
// index in two passes instead of three, which measured 30 µs against 41
// at 4,096 IDs but 2.9 against 2.1 at the mean answer's 177 and 2.0
// against 1.0 at 64: the counters are cleared and summed once per pass,
// whatever the length.
const radixBits = 8

// radixCutover is the length from which sortIDs sorts by radix. Measured
// on IDs drawn from 500K (three passes, the most an index of that size
// needs), best of five runs, slices.Sort against the radix sort: 0.60 µs
// against 0.72 at 48 IDs, 1.21 against 0.97 at 64, 2.7 against 1.2 at 96,
// 5.7 against 2.1 at 177, 21 against 4.4 at 512, 243 against 41 at 4,096.
const radixCutover = 64

// sortIDs sorts ids ascending. A range answer comes out of the walk in
// arena order and goes out in ID order, and its length is heavy-tailed —
// a few IDs for most queries, thousands for some — so past radixCutover
// the sort is an LSD radix sort, whose cost per ID does not grow with the
// length, and below it the comparison sort.
//
// The keys are the IDs' offsets from the smallest of them, as uint32 (the
// difference of two int32s always fits, negative IDs and a span of the
// whole type included), and only the bits the largest offset has are
// sorted on, split evenly over as few digits of at most radixBits as hold
// them: the 500K consecutive IDs of one index take three passes of seven
// bits, a tier of a few thousand two. Each pass is a stable counting sort
// between ids and the scratch's second buffer.
func (s *queryScratch) sortIDs(ids []geom.ID) {
	if len(ids) < radixCutover {
		slices.Sort(ids)
		return
	}
	lo, hi := ids[0], ids[0]
	for _, id := range ids[1:] {
		lo, hi = min(lo, id), max(hi, id)
	}
	base := uint32(lo)
	width := bits.Len32(uint32(hi) - base)
	passes := (width + radixBits - 1) / radixBits
	if passes == 0 {
		return // all equal
	}
	digit := (width + passes - 1) / passes
	mask := uint32(1)<<digit - 1
	counts := s.counts[:1<<digit]
	s.sorted = slices.Grow(s.sorted[:0], len(ids))[:len(ids)]
	src, dst := ids, s.sorted
	for shift := 0; shift < width; shift += digit {
		clear(counts)
		for _, id := range src {
			counts[(uint32(id)-base)>>shift&mask]++
		}
		at := int32(0)
		for d, n := range counts {
			counts[d], at = at, at+n
		}
		for _, id := range src {
			d := (uint32(id) - base) >> shift & mask
			dst[counts[d]] = id
			counts[d]++
		}
		src, dst = dst, src
	}
	if passes%2 == 1 {
		copy(ids, s.sorted)
	}
}
