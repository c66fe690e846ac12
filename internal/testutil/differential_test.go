package testutil

import (
	"fmt"
	"slices"
	"testing"

	"touch"
	"touch/internal/nl"
)

// TestDifferentialJoins is the cross-algorithm harness: every selectable
// algorithm must reproduce the nested-loop oracle's pair set on every
// workload of the table — random uniform/clustered/Gaussian pairs and
// the degenerate shapes — at 1 and 4 workers. Run under -race in CI,
// the 4-worker rows double as a data-race probe for every parallel
// driver.
func TestDifferentialJoins(t *testing.T) {
	for _, c := range Cases(7001) {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			want, err := OraclePairs(c.A, c.B)
			if err != nil {
				t.Fatal(err)
			}
			for _, alg := range touch.Algorithms() {
				for _, workers := range []int{1, 4} {
					t.Run(fmt.Sprintf("%s/w%d", alg, workers), func(t *testing.T) {
						if err := CheckJoin(alg, c, workers, want); err != nil {
							t.Error(err)
						}
					})
				}
			}
		})
	}
}

// TestDifferentialQueries checks RangeQuery, PointQuery and KNN against
// the brute-force oracles on every dataset shape of the table,
// including the pure all-identical-boxes shape (kNN distance ties) — in
// the paper's 1,024 buckets, where a leaf holds a handful of objects, and
// in two buckets, where it holds up to 47 blocks of them.
func TestDifferentialQueries(t *testing.T) {
	for _, d := range QueryDatasets(7101) {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			for _, cfg := range []touch.TOUCHConfig{{}, {Partitions: 2}} {
				ix := touch.BuildIndex(d.A, cfg)
				boxes, points, ks := QueryWorkload(7102, 15)
				for i := range boxes {
					got, err := ix.RangeQuery(boxes[i])
					if err != nil {
						t.Fatal(err)
					}
					if want := nl.RangeQuery(d.A, boxes[i]); !slices.Equal(got, want) {
						t.Fatalf("%d buckets: RangeQuery(%v): got %d ids, want %d", ix.Stats().Leaves, boxes[i], len(got), len(want))
					}

					p := points[i]
					gotPt, err := ix.PointQuery(p[0], p[1], p[2])
					if err != nil {
						t.Fatal(err)
					}
					if want := nl.PointQuery(d.A, p); !slices.Equal(gotPt, want) {
						t.Fatalf("%d buckets: PointQuery(%v): got %v, want %v", ix.Stats().Leaves, p, gotPt, want)
					}

					gotNbrs, err := ix.KNN(p, ks[i])
					if err != nil {
						t.Fatal(err)
					}
					if want := nl.KNN(d.A, p, ks[i]); !slices.Equal(gotNbrs, want) {
						t.Fatalf("%d buckets: KNN(%v, %d): diverged from oracle", ix.Stats().Leaves, p, ks[i])
					}
				}
			}
		})
	}
}

// TestDifferentialDistanceJoins spot-checks the ε-expansion path of
// every algorithm against the nested-loop distance oracle on one random
// and one degenerate workload.
func TestDifferentialDistanceJoins(t *testing.T) {
	cases := Cases(7201)
	picked := []Case{cases[0], cases[8]} // uniform-small, all-identical
	for _, c := range picked {
		for _, eps := range []float64{0, 7.5} {
			ref, err := touch.DistanceJoin(touch.AlgNL, c.A, c.B, eps, &touch.Options{KeepOrder: true})
			if err != nil {
				t.Fatal(err)
			}
			want := PairSet(ref.Pairs)
			for _, alg := range touch.Algorithms() {
				res, err := touch.DistanceJoin(alg, c.A, c.B, eps, nil)
				if err != nil {
					t.Fatalf("%s/%s eps=%g: %v", c.Name, alg, eps, err)
				}
				if got := PairSet(res.Pairs); !slices.Equal(got, want) {
					t.Errorf("%s/%s eps=%g: %d pairs, oracle has %d", c.Name, alg, eps, len(got), len(want))
				}
			}
		}
	}
}
