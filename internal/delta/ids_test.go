package delta

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"touch/internal/geom"
)

// TestIDsMatchSortedColumn holds IDs to a sorted ID column on sets of
// every shape a tier meets — one run from 0, gaps a fold leaves, a sparse
// set that takes the sorted-copy path, negative and extreme IDs, repeats —
// through every accessor: Len, Min, Max, Rank and Holds at and around
// each held ID, and Gather of a shuffled copy back into ID order. The
// one pass over an ID-ascending copy builds the same set.
func TestIDsMatchSortedColumn(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	gappy := make([]geom.ID, 0, 3000)
	for id := geom.ID(100); len(gappy) < cap(gappy); id++ {
		if rng.Intn(9) != 0 {
			gappy = append(gappy, id)
		}
	}
	sparse := make([]geom.ID, 500)
	for i := range sparse {
		sparse[i] = geom.ID(rng.Int31())
	}
	for _, tc := range []struct {
		name string
		ids  []geom.ID
		runs int // -1: not checked
	}{
		{"empty", nil, 0},
		{"one", []geom.ID{7}, 1},
		{"loaded", seq(0, 1000), 1},
		{"word seams", append(seq(60, 130), seq(192, 257)...), 2},
		{"gappy", gappy, -1},
		{"sparse", sparse, -1},
		{"negative and extreme", []geom.ID{math.MinInt32, -3, -2, -1, 0, 5, math.MaxInt32 - 1, math.MaxInt32}, 4},
		{"repeats", []geom.ID{4, 2, 4, 3, 9, 2}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			objs := make(geom.Dataset, len(tc.ids))
			for i, id := range tc.ids {
				objs[i] = geom.Object{ID: id, Box: geom.BoxAt(geom.Point{float64(id), float64(i), 0})}
			}
			rng.Shuffle(len(objs), func(i, j int) { objs[i], objs[j] = objs[j], objs[i] })
			col := slices.Compact(slices.Sorted(slices.Values(tc.ids)))
			boxes, ids := columns(objs)
			s := IDsOf(ids)
			if s.Len() != len(col) || (tc.runs >= 0 && len(s.runs) != tc.runs) {
				t.Fatalf("%d IDs in %d runs, want %d in %d", s.Len(), len(s.runs), len(col), tc.runs)
			}
			wantMin, wantMax := geom.ID(0), geom.ID(-1)
			if len(col) > 0 {
				wantMin, wantMax = col[0], col[len(col)-1]
			}
			if s.Min() != wantMin || s.Max() != wantMax {
				t.Fatalf("bounds [%d, %d], want [%d, %d]", s.Min(), s.Max(), wantMin, wantMax)
			}
			for _, id := range col {
				for d := int64(-1); d <= 1; d++ {
					if p := int64(id) + d; p < math.MinInt32 || p > math.MaxInt32 {
						continue // beyond the ID space
					}
					probe := id + geom.ID(d)
					want, held := slices.BinarySearch(col, probe)
					if got, ok := s.Rank(probe); got != want || ok != held || s.Holds(probe) != held {
						t.Fatalf("Rank(%d) = %d, %v; want %d, %v", probe, got, ok, want, held)
					}
				}
			}
			if len(col) != len(objs) {
				return // Gather takes a set without repeats
			}
			byID := slices.Clone(objs)
			slices.SortFunc(byID, func(a, b geom.Object) int { return int(int64(a.ID) - int64(b.ID)) })
			if _, ascending := columns(byID); !reflect.DeepEqual(IDsOf(ascending), s) {
				t.Fatal("the ID-ascending pass and the unordered one built different sets")
			}
			prefix := geom.Dataset{{ID: -9}}
			if got := s.Gather(prefix, boxes, ids); !slices.Equal(got[1:], byID) || got[0].ID != -9 {
				t.Fatal("Gather did not append the objects in ID order")
			}
		})
	}
}

// columns splits objs into a box column and an ID column, as a tree
// holds its arena.
func columns(objs geom.Dataset) ([]geom.Box, []geom.ID) {
	boxes, ids := make([]geom.Box, len(objs)), make([]geom.ID, len(objs))
	for i := range objs {
		boxes[i], ids[i] = objs[i].Box, objs[i].ID
	}
	return boxes, ids
}

func seq(from, to geom.ID) []geom.ID {
	out := make([]geom.ID, 0, to-from)
	for id := from; id < to; id++ {
		out = append(out, id)
	}
	return out
}
