package touch

import (
	"context"
	"fmt"
	"testing"

	"touch/internal/datagen"
)

// pairsKey canonicalizes a result for set comparison.
func pairsKey(pairs []Pair) map[Pair]int {
	m := make(map[Pair]int, len(pairs))
	for _, p := range pairs {
		m[p]++
	}
	return m
}

// TestAllAlgorithmsAgree cross-validates every algorithm against the
// nested loop oracle on all three synthetic distributions: identical,
// duplicate-free result sets.
func TestAllAlgorithmsAgree(t *testing.T) {
	for _, dist := range []datagen.Distribution{datagen.Uniform, datagen.Gaussian, datagen.Clustered} {
		dist := dist
		t.Run(dist.String(), func(t *testing.T) {
			a := datagen.Generate(datagen.DefaultConfig(dist, 400, 1))
			b := datagen.Generate(datagen.DefaultConfig(dist, 900, 2))

			oracle, err := SpatialJoin(context.Background(), AlgNL, a, b, &Options{KeepOrder: true, Eps: 10})
			if err != nil {
				t.Fatal(err)
			}
			want := pairsKey(oracle.Pairs)
			if len(want) == 0 {
				t.Fatal("oracle found no pairs; workload too sparse to be meaningful")
			}
			for _, dup := range want {
				if dup != 1 {
					t.Fatal("oracle produced duplicate pairs")
				}
			}

			for _, alg := range Algorithms() {
				if alg == AlgNL {
					continue
				}
				res, err := SpatialJoin(context.Background(), alg, a, b, &Options{Eps: 10})
				if err != nil {
					t.Fatalf("%s: %v", alg, err)
				}
				got := pairsKey(res.Pairs)
				if len(res.Pairs) != len(got) {
					t.Errorf("%s: emitted %d pairs, %d distinct: duplicates present",
						alg, len(res.Pairs), len(got))
				}
				if fmt.Sprint(len(got)) != fmt.Sprint(len(want)) {
					t.Errorf("%s: got %d pairs, want %d", alg, len(got), len(want))
				}
				for p := range want {
					if got[p] == 0 {
						t.Errorf("%s: missing pair %v", alg, p)
						break
					}
				}
				for p := range got {
					if want[p] == 0 {
						t.Errorf("%s: spurious pair %v", alg, p)
						break
					}
				}
				if res.Stats.Results != int64(len(res.Pairs)) {
					t.Errorf("%s: Stats.Results=%d, len(Pairs)=%d",
						alg, res.Stats.Results, len(res.Pairs))
				}
			}
		})
	}
}
