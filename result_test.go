package touch

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestSortPairsMatchesComparator: SortPairs, which sorts packed 64-bit
// keys, orders pairs exactly as a comparator on (A, B) does — negative
// IDs, the extremes of the ID range, runs of equal A and repeated pairs
// included.
func TestSortPairsMatchesComparator(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range []struct {
		name string
		id   func() ID
	}{
		{"full range", func() ID { return ID(rng.Uint32()) }},
		{"around zero", func() ID { return ID(rng.Intn(9) - 4) }},
		{"extremes", func() ID {
			return []ID{math.MinInt32, math.MinInt32 + 1, -1, 0, 1, math.MaxInt32 - 1, math.MaxInt32}[rng.Intn(7)]
		}},
	} {
		for _, n := range []int{0, 1, 2, 17, 1293} {
			pairs := make([]Pair, n)
			for i := range pairs {
				pairs[i] = Pair{A: tc.id(), B: tc.id()}
				if i > 0 && rng.Intn(3) == 0 { // a run of equal A
					pairs[i].A = pairs[i-1].A
				}
			}
			want := slices.Clone(pairs)
			slices.SortFunc(want, func(x, y Pair) int {
				return cmp.Or(cmp.Compare(x.A, y.A), cmp.Compare(x.B, y.B))
			})
			r := Result{Pairs: pairs}
			r.SortPairs()
			if !slices.Equal(r.Pairs, want) {
				t.Fatalf("%s, %d pairs: SortPairs gives %v, want %v", tc.name, n, r.Pairs, want)
			}
		}
	}
}
