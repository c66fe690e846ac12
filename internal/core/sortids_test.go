package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"touch/internal/geom"
)

// TestSortIDs checks sortIDs against slices.Sort on both sides of the
// cut-over and on the inputs a radix sort gets wrong first: a span that
// does not fit a signed difference, negative IDs, one distinct value, a
// single high bit set, duplicates that must all survive. One scratch
// serves every case, in order, the way a probe's does.
func TestSortIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(301))
	random := func(n int, lo, hi int64) []geom.ID {
		ids := make([]geom.ID, n)
		for i := range ids {
			ids[i] = geom.ID(lo + rng.Int63n(hi-lo+1))
		}
		return ids
	}
	ascending := func(n int, from, step geom.ID) []geom.ID {
		ids := make([]geom.ID, n)
		for i := range ids {
			ids[i] = from + geom.ID(i)*step
		}
		return ids
	}
	reversed := func(ids []geom.ID) []geom.ID {
		slices.Reverse(ids)
		return ids
	}
	const n = 4 * radixCutover
	cases := []struct {
		name string
		ids  []geom.ID
	}{
		{"empty", nil},
		{"one", []geom.ID{7}},
		{"below the cut-over", random(radixCutover-1, 0, 500_000)},
		{"at the cut-over", random(radixCutover, 0, 500_000)},
		{"above the cut-over", random(radixCutover+1, 0, 500_000)},
		{"one index's IDs", random(5000, 0, 499_999)},
		{"all equal", ascending(n, 42, 0)},
		{"all equal and negative", ascending(n, -42, 0)},
		{"two values", random(n, 9, 10)},
		{"duplicates", random(n, 100, 120)},
		{"already sorted", ascending(n, -100, 3)},
		{"reversed", reversed(ascending(n, -100, 3))},
		{"negative", random(n, -70_000, -3)},
		{"around zero", random(n, -300, 300)},
		{"one digit", random(n, 1000, 1255)},
		{"one bit over a digit", random(n, 1000, 1256)},
		{"span of 2^31", append(random(n, 0, 1000), math.MinInt32, -1, 0, math.MaxInt32-1)},
		{"MinInt32 and MaxInt32", append(random(n, math.MinInt32, math.MaxInt32), math.MinInt32, math.MaxInt32, math.MinInt32, math.MaxInt32)},
		{"only the top bit differs", append(ascending(n, 0, 0), ascending(n, math.MinInt32, 0)...)},
	}
	var s queryScratch
	for _, tc := range cases {
		want := slices.Clone(tc.ids)
		slices.Sort(want)
		got := slices.Clone(tc.ids)
		s.sortIDs(got)
		if !slices.Equal(got, want) {
			t.Errorf("%s (%d ids): sortIDs differs from slices.Sort\n got %v\nwant %v", tc.name, len(tc.ids), head(got, 12), head(want, 12))
		}
	}
	// Steady state allocates nothing: the second buffer has grown to the
	// longest input by now.
	ids := random(5000, 0, 499_999)
	buf := make([]geom.ID, len(ids))
	if allocs := testing.AllocsPerRun(10, func() {
		copy(buf, ids)
		s.sortIDs(buf)
	}); allocs > 0 {
		t.Errorf("a warmed sortIDs allocated %.1f times per run", allocs)
	}
}
