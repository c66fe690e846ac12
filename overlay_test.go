package touch

import (
	"context"
	"slices"
	"testing"
	"time"

	"touch/internal/trace"
)

// TestOverlayTombstoneBounds: a read filters tombstones only between the
// first and the last of them, so the rows put them at either side of a
// range answer, through it and on its ends, spread over the base as the
// benchmark's traced overlay_loaded rung does, and on either end of a
// kNN's candidates. Each row deletes its tombstones from one generation
// of a base with pending inserts, and the range query and the kNN search
// must answer as an index rebuilt from the generation's dataset.
func TestOverlayTombstoneBounds(t *testing.T) {
	const n, k = 4000, 12
	base := GenerateUniform(n, 3)
	inserts := make([]Box, 600)
	for i, o := range GenerateUniform(len(inserts), 4) {
		inserts[i] = o.Box
	}
	v, _, _, ok := BuildIndex(base, TOUCHConfig{Partitions: 32}).Apply(inserts, nil)
	if !ok {
		t.Fatal("Apply refused the inserts")
	}
	q := NewBox(Point{300, 300, 300}, Point{420, 420, 420})
	pt := Point{500, 500, 500}
	answer, _ := v.RangeQuery(q)
	nbrs, _ := v.KNN(pt, k)
	if len(answer) < 8 || answer[0] >= n || answer[len(answer)-1] < n || len(nbrs) != k {
		t.Fatalf("premise: the answer %v must hold base objects and inserts, the kNN %d neighbours", answer, len(nbrs))
	}
	all := make([]ID, 0, n+len(inserts))
	for id := ID(0); id < ID(n+len(inserts)); id++ {
		all = append(all, id)
	}
	// outside returns the IDs of all that pass keep and are not in the
	// range answer, at most max of them.
	outside := func(max int, keep func(ID) bool) []ID {
		var out []ID
		for _, id := range all {
			if _, in := slices.BinarySearch(answer, id); !in && keep(id) && len(out) < max {
				out = append(out, id)
			}
		}
		return out
	}
	first, last := answer[0], answer[len(answer)-1]
	kth := nbrs[k-1].ID
	every := func(ids []ID, step int) []ID {
		var out []ID
		for i := 0; i < len(ids); i += step {
			out = append(out, ids[i])
		}
		return out
	}
	for _, tc := range []struct {
		name  string
		tombs []ID
	}{
		{"wholly above the answer", outside(40, func(id ID) bool { return id > last })},
		{"wholly below the answer", outside(40, func(id ID) bool { return id < first })},
		{"interleaved with the answer", append(every(answer, 2), outside(60, func(id ID) bool { return id%7 == 0 })...)},
		{"first equals the first answer ID", append([]ID{first}, outside(20, func(id ID) bool { return id > first })...)},
		{"last equals the last answer ID", append(outside(20, func(id ID) bool { return id < last }), last)},
		{"every answer ID", answer},
		{"spread over the base", every(all[:n], n/64)},
		{"first is the kNN's k-th candidate", append([]ID{kth}, outside(20, func(id ID) bool { return id > kth })...)},
		{"last is the kNN's k-th candidate", append(outside(20, func(id ID) bool { return id < kth }), kth)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, _, deleted, _ := v.Apply(nil, slices.Clone(tc.tombs))
			if deleted != len(tc.tombs) {
				t.Fatalf("premise: %d of %d tombstones applied", deleted, len(tc.tombs))
			}
			oracle := BuildIndex(w.Dataset(), TOUCHConfig{})
			got, _ := w.RangeQuery(q)
			want, _ := oracle.RangeQuery(q)
			if !slices.Equal(got, want) {
				t.Errorf("RangeQuery: %v, want %v", got, want)
			}
			gotK, _ := w.KNN(pt, k)
			wantK, _ := oracle.KNN(pt, k)
			if !slices.Equal(gotK, wantK) {
				t.Errorf("KNN: %v, want %v", gotK, wantK)
			}
		})
	}
}

// TestOverlayTracedJoinPhases: a traced join over pending inserts counts
// each stretch of its wall time once. The tiers' and the inserts'
// assignment and join phases go to PhaseAssign and PhaseJoin, the rest of
// the inserts' pass — the tail tree's build — to PhaseDelta, so the
// phases sum to no more than the call's wall time, whichever side of the
// inserts' pass builds the tree. The tail outweighs the base, so that
// counting its assignment and join twice would show.
func TestOverlayTracedJoinPhases(t *testing.T) {
	inserts := make([]Box, 6000)
	for i, o := range GenerateUniform(len(inserts), 61) {
		inserts[i] = o.Box.Expand(4)
	}
	v, first, _, ok := BuildIndex(GenerateUniform(1000, 60), TOUCHConfig{}).Apply(inserts, nil)
	if !ok {
		t.Fatal("Apply refused the inserts")
	}
	if v, _, _, ok = v.Apply(nil, []ID{first, first + 7, 12}); !ok {
		t.Fatal("Apply refused the deletes")
	}
	for _, n := range []int{2048, 8192} { // the tree on the probe, then on the inserts
		var sp Span
		start := time.Now()
		res, err := v.Join(context.Background(), GenerateUniform(n, 62), &Options{Eps: 5, NoPairs: true, Trace: &sp})
		wall := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Results == 0 || sp.Durations[trace.PhaseDelta] <= 0 || sp.Durations[trace.PhaseJoin] <= 0 {
			t.Fatalf("probe of %d: premise: %d results, phases %v", n, res.Stats.Results, sp.Durations)
		}
		if sp.Total() > wall {
			t.Errorf("probe of %d: phases sum to %v over %v of wall time: %v", n, sp.Total(), wall, sp.Durations)
		}
	}
}
