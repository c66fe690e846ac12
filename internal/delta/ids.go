package delta

import (
	"math/bits"
	"slices"
	"sort"

	"touch/internal/geom"
)

// IDs is the ID set of one index tier, held as the runs of consecutive
// IDs it ascends through instead of one ID per object: a dataset loaded
// with the IDs 0…n-1 is one run, and a fold adds one run per gap it
// leaves where it dropped dead objects. It answers what a tier's readers
// ask of its IDs — membership, bounds, and the rank that puts the tree's
// arena, which STR ordered, back in ID order — so the tree's arena can
// be the tier's only copy of its objects. The zero IDs is the empty set.
// An IDs is immutable.
type IDs struct {
	runs []idRun
	n    int // IDs held
}

// idRun is one stretch of consecutive IDs: first, first+1, … up to the
// next run's rank.
type idRun struct {
	first geom.ID
	at    int32 // the rank of first in the set
}

// IDsOf returns the set of the IDs ids, in any order — a tree's ID
// column, or a dataset's IDs. A repeated ID counts once, so Len below
// len(ids) says ids repeats some. ID-ascending IDs — a fold's — are read
// in one pass; any others, a tree's in STR's order among them, take a
// bitmap of their span, or a sorted copy where the span is sparse.
func IDsOf(ids []geom.ID) IDs {
	s := IDs{n: len(ids)}
	for i := 0; i < len(ids); {
		j := i + 1
		for j < len(ids) && ids[j] > ids[j-1] && ids[j] == ids[j-1]+1 {
			j++
		}
		if j < len(ids) && ids[j] <= ids[j-1] {
			return unordered(ids)
		}
		s.runs = append(s.runs, idRun{first: ids[i], at: int32(i)})
		i = j
	}
	return s
}

// unordered is IDsOf of IDs that do not ascend.
func unordered(ids []geom.ID) IDs {
	lo, hi := ids[0], ids[0]
	for _, id := range ids {
		lo, hi = min(lo, id), max(hi, id)
	}
	span := int64(hi) - int64(lo) + 1
	if span > 32*int64(len(ids)) {
		// Too sparse for a bitmap of the span to beat a sorted copy.
		sorted := slices.Clone(ids)
		slices.Sort(sorted)
		var s IDs
		for _, id := range slices.Compact(sorted) {
			s.add(id, 1)
		}
		return s
	}
	bm := make([]uint64, (span+63)/64)
	for _, id := range ids {
		off := uint64(int64(id) - int64(lo))
		bm[off/64] |= 1 << (off % 64)
	}
	var s IDs
	for w, word := range bm {
		for word != 0 {
			// The lowest set stretch of the word: from its lowest one bit
			// up to the next zero.
			from := bits.TrailingZeros64(word)
			ones := bits.TrailingZeros64(^(word >> from))
			if from+ones == 64 {
				word = 0
			} else {
				word &^= (1<<ones - 1) << from
			}
			s.add(lo+geom.ID(64*w+from), ones)
		}
	}
	return s
}

// add appends the count IDs from first on, all above the set's.
func (s *IDs) add(first geom.ID, count int) {
	if k := len(s.runs); k > 0 && int64(s.runs[k-1].first)+int64(s.n-int(s.runs[k-1].at)) == int64(first) {
		s.n += count // it continues the last run
		return
	}
	s.runs = append(s.runs, idRun{first: first, at: int32(s.n)})
	s.n += count
}

// Len returns the number of IDs held.
func (s IDs) Len() int { return s.n }

// Min returns the smallest ID held, 0 for the empty set.
func (s IDs) Min() geom.ID {
	if s.n == 0 {
		return 0
	}
	return s.runs[0].first
}

// Max returns the largest ID held, -1 for the empty set.
func (s IDs) Max() geom.ID {
	if s.n == 0 {
		return -1
	}
	last := s.runs[len(s.runs)-1]
	return last.first + geom.ID(s.n-int(last.at)) - 1
}

// Rank returns the number of IDs held below id and whether id is held.
func (s IDs) Rank(id geom.ID) (int, bool) {
	// The last run starting at or below id is the only one that can hold it.
	i := sort.Search(len(s.runs), func(i int) bool { return s.runs[i].first > id })
	if i == 0 {
		return 0, false
	}
	r, end := s.runs[i-1], s.n
	if i < len(s.runs) {
		end = int(s.runs[i].at)
	}
	if off := int64(id) - int64(r.first); off < int64(end-int(r.at)) {
		return int(r.at) + int(off), true
	}
	return end, false
}

// Holds reports whether id is in the set.
func (s IDs) Holds(id geom.ID) bool {
	_, held := s.Rank(id)
	return held
}

// Gather appends the objects of the two columns boxes and ids — object
// i's box boxes[i] and its ID ids[i], the IDs exactly the set — to dst in
// ID order, each object written once, straight to its rank. Over several
// runs the ranks come from a table of the ID span, built once, where the
// span is dense enough for one (every set a fold leaves), and from Rank
// where it is not.
func (s IDs) Gather(dst geom.Dataset, boxes []geom.Box, ids []geom.ID) geom.Dataset {
	at := len(dst)
	dst = slices.Grow(dst, len(ids))[:at+len(ids)]
	out := dst[at:]
	boxes = boxes[:len(ids)]
	lo, span := s.Min(), int64(s.Max())-int64(s.Min())+1
	switch {
	case len(s.runs) == 1:
		for i, id := range ids {
			out[id-lo] = geom.Object{ID: id, Box: boxes[i]}
		}
	case span <= 2*int64(len(ids)):
		rank := make([]int32, span)
		for i, r := range s.runs {
			end := int32(s.n)
			if i+1 < len(s.runs) {
				end = s.runs[i+1].at
			}
			for k := r.at; k < end; k++ {
				rank[r.first-lo+geom.ID(k-r.at)] = k
			}
		}
		for i, id := range ids {
			out[rank[id-lo]] = geom.Object{ID: id, Box: boxes[i]}
		}
	default:
		for i, id := range ids {
			r, _ := s.Rank(id)
			out[r] = geom.Object{ID: id, Box: boxes[i]}
		}
	}
	return dst
}
