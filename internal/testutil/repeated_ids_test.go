package testutil

import (
	"slices"
	"strings"
	"testing"

	"touch"
	"touch/internal/nl"
	"touch/internal/server"
)

// TestTierRepeatedIDs: one policy for the IDs of a dataset's first
// generation. BuildIndex takes the tier's ID set from the tree's arena,
// whatever order the dataset came in, so deletes on an index of a
// reversed dataset find their objects and the answers afterwards are the
// nested loop's over what is live. Over a repeated ID the index answers
// range, kNN and join queries as the nested loop does over every copy,
// but it has no generation to step: Apply, Fold, Dataset and both
// EncodeSnapshot forms refuse it, NewMutable returns an error and
// Server.Load panics, each naming how many IDs repeat. The package-level
// EncodeSnapshot encodes one tier with nothing pending, and sends any
// other generation to Overlay.EncodeSnapshot.
func TestTierRepeatedIDs(t *testing.T) {
	cfg := touch.TOUCHConfig{Partitions: 64}
	info := touch.SnapshotInfo{Name: "d", Version: 1}
	ds := touch.GenerateUniform(2000, 23)
	slices.Reverse(ds)

	t.Run("distinct IDs in reverse order step", func(t *testing.T) {
		next, _, deleted, ok := touch.BuildIndex(ds, cfg).Apply(nil, []touch.ID{5, 1500})
		if !ok || deleted != 2 {
			t.Fatalf("deleting two live IDs of a reversed dataset tombstoned %d (ok %v)", deleted, ok)
		}
		live := slices.DeleteFunc(slices.Clone(ds), func(o touch.Object) bool { return o.ID == 5 || o.ID == 1500 })
		byID := slices.Clone(live)
		slices.SortFunc(byID, func(a, b touch.Object) int { return int(a.ID) - int(b.ID) })
		if got := next.Dataset(); !slices.Equal(got, byID) {
			t.Fatalf("Dataset holds %d objects, %d are live", len(got), len(byID))
		}
		checkAnswers(t, next, live)
	})

	dup := slices.Clone(ds)
	dup[10].ID, dup[20].ID = dup[11].ID, dup[21].ID
	idx := touch.BuildIndex(dup, cfg)
	t.Run("a repeated ID answers as the nested loop", func(t *testing.T) {
		checkAnswers(t, idx, dup)
	})

	const why = "2 duplicate object IDs"
	for _, tc := range []struct {
		name string
		call func() string // the panic's message or the error's
		want []string
	}{
		{"Apply", func() string { return recovered(func() { idx.Apply(nil, []touch.ID{5}) }) }, []string{"Overlay.Apply", why}},
		{"Fold", func() string { return recovered(func() { idx.Fold(true, touch.BuildIndex) }) }, []string{"Overlay.Fold", why}},
		{"Dataset", func() string { return recovered(func() { idx.Dataset() }) }, []string{"Overlay.Dataset", why}},
		{"EncodeSnapshot", func() string { return errText(touch.EncodeSnapshot(info, dup, idx)) }, []string{why}},
		{"Overlay.EncodeSnapshot", func() string { return errText(idx.EncodeSnapshot(info)) }, []string{why}},
		{"NewMutable", func() string { return errText(touch.NewMutable(dup, cfg)) }, []string{"touch: " + why}},
		{"Server.Load", func() string {
			return recovered(func() { server.New(server.Config{}).Load("dup", dup, cfg) })
		}, []string{`"dup"`, why}},
	} {
		t.Run("a repeated ID refuses "+tc.name, func(t *testing.T) {
			got := tc.call()
			for _, w := range tc.want {
				if !strings.Contains(got, w) {
					t.Errorf("%s over a repeated ID: %q, want it to say %q", tc.name, got, w)
				}
			}
		})
	}

	v := touch.BuildIndex(ds, cfg)
	pending, _, _, _ := v.Apply([]touch.Box{ds[0].Box, ds[1].Box}, []touch.ID{7})
	tiered := pending.Fold(false, touch.BuildIndex).Next(pending)
	for _, tc := range []struct {
		name  string
		gen   *touch.Overlay
		tiers int
		ok    bool
	}{
		{"one tier with nothing pending", v, 1, true},
		{"pending updates", pending, 1, false},
		{"two tiers", tiered, 2, false},
	} {
		t.Run("EncodeSnapshot of "+tc.name, func(t *testing.T) {
			if n := len(tc.gen.Tiers()); n != tc.tiers {
				t.Fatalf("premise: %d tiers, want %d", n, tc.tiers)
			}
			_, err := touch.EncodeSnapshot(info, tc.gen.Dataset(), tc.gen)
			switch {
			case tc.ok && err != nil:
				t.Fatalf("EncodeSnapshot refused a first generation: %v", err)
			case !tc.ok && (err == nil || !strings.Contains(err.Error(), "Overlay.EncodeSnapshot")):
				t.Fatalf("EncodeSnapshot of %s: %v, want a refusal naming Overlay.EncodeSnapshot", tc.name, err)
			}
		})
	}
}

// checkAnswers compares v's range, kNN and join answers with the nested
// loop over live, in any order.
func checkAnswers(t *testing.T, v *touch.Overlay, live touch.Dataset) {
	t.Helper()
	for i := 0; i < 40; i++ {
		c := live[i*len(live)/40].Box.Center()
		q := touch.NewBox(touch.Point{c[0] - 60, c[1] - 60, c[2] - 60}, touch.Point{c[0] + 60, c[1] + 60, c[2] + 60})
		if got, err := v.RangeQuery(q); err != nil || !slices.Equal(got, nl.RangeQuery(live, q)) {
			t.Fatalf("RangeQuery(%v) = %v, %v; the nested loop finds %v", q, got, err, nl.RangeQuery(live, q))
		}
		if got, err := v.KNN(c, 7); err != nil || !slices.Equal(got, nl.KNN(live, c, 7)) {
			t.Fatalf("KNN(%v, 7) = %v, %v; the nested loop finds %v", c, got, err, nl.KNN(live, c, 7))
		}
	}
	probe := touch.GenerateUniform(500, 24)
	want, err := OraclePairs(live, probe)
	if err != nil {
		t.Fatal(err)
	}
	if got := PairSet(v.Join(probe, nil).Pairs); !slices.Equal(got, want) {
		t.Fatalf("Join found %d pairs, the nested loop %d", len(got), len(want))
	}
}

// recovered runs f and returns the message it panics with, "" if none.
func recovered(f func()) (msg string) {
	defer func() { msg, _ = recover().(string) }()
	f()
	return ""
}

// errText returns the text of the error a call returned, "" if none.
func errText[T any](_ T, err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
