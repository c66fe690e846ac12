package touch

import (
	"errors"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"testing"
	"time"
)

func TestSnapshotRoundtripServesIdentically(t *testing.T) {
	a := GenerateClustered(6000, 42)
	ix := BuildIndex(a, TOUCHConfig{Partitions: 128})
	info := SnapshotInfo{Name: "city", Version: 4, BuiltAt: time.Unix(1712000000, 0).UTC()}

	data, err := EncodeSnapshot(info, a, ix)
	if err != nil {
		t.Fatalf("EncodeSnapshot: %v", err)
	}
	got, ds, loaded, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatalf("DecodeSnapshot: %v", err)
	}
	if got != info {
		t.Fatalf("info %+v, want %+v", got, info)
	}
	if len(ds) != len(a) {
		t.Fatalf("dataset %d objects, want %d", len(ds), len(a))
	}
	if loaded.Config() != ix.Config() {
		t.Fatalf("config %+v, want %+v", loaded.Config(), ix.Config())
	}
	if loaded.Stats() != ix.Stats() {
		t.Fatalf("stats %+v, want %+v", loaded.Stats(), ix.Stats())
	}

	// Differential checks: join, range and kNN must answer exactly as
	// the index the snapshot was taken from.
	b := GenerateUniform(3000, 7)
	want := mustJoin(t, ix, b, nil)
	have := mustJoin(t, loaded, b, nil)
	if len(want.Pairs) != len(have.Pairs) {
		t.Fatalf("join found %d pairs, want %d", len(have.Pairs), len(want.Pairs))
	}
	for i := range want.Pairs {
		if want.Pairs[i] != have.Pairs[i] {
			t.Fatalf("pair %d = %v, want %v", i, have.Pairs[i], want.Pairs[i])
		}
	}
	q := NewBox(Point{100, 100, 100}, Point{400, 380, 300})
	wr, err1 := ix.RangeQuery(q)
	hr, err2 := loaded.RangeQuery(q)
	if err1 != nil || err2 != nil {
		t.Fatalf("range errors: %v / %v", err1, err2)
	}
	if len(wr) != len(hr) {
		t.Fatalf("range found %d, want %d", len(hr), len(wr))
	}
	wk, _ := ix.KNN(Point{500, 500, 500}, 25)
	hk, _ := loaded.KNN(Point{500, 500, 500}, 25)
	if len(wk) != len(hk) {
		t.Fatalf("knn found %d, want %d", len(hk), len(wk))
	}
	for i := range wk {
		if wk[i] != hk[i] {
			t.Fatalf("neighbor %d = %v, want %v", i, hk[i], wk[i])
		}
	}
}

func TestSnapshotEmptyDataset(t *testing.T) {
	ix := BuildIndex(nil, TOUCHConfig{})
	data, err := EncodeSnapshot(SnapshotInfo{Name: "empty"}, nil, ix)
	if err != nil {
		t.Fatalf("EncodeSnapshot: %v", err)
	}
	_, ds, loaded, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatalf("DecodeSnapshot: %v", err)
	}
	if len(ds) != 0 {
		t.Fatalf("decoded %d objects", len(ds))
	}
	res := mustJoin(t, loaded, GenerateUniform(100, 1), nil)
	if len(res.Pairs) != 0 {
		t.Fatalf("join on empty index found %d pairs", len(res.Pairs))
	}
}

func TestSnapshotRejectsMismatchedPair(t *testing.T) {
	a := GenerateUniform(500, 1)
	ix := BuildIndex(a, TOUCHConfig{})
	if _, err := EncodeSnapshot(SnapshotInfo{Name: "x"}, a[:100], ix); err == nil {
		t.Fatal("encode accepted index/dataset mismatch")
	}
	if _, err := EncodeSnapshot(SnapshotInfo{Name: "x"}, a, nil); err == nil {
		t.Fatal("encode accepted nil index")
	}
}

func TestDecodeSnapshotCorrupt(t *testing.T) {
	a := GenerateUniform(400, 3)
	ix := BuildIndex(a, TOUCHConfig{})
	data, err := EncodeSnapshot(SnapshotInfo{Name: "x", Version: 1}, a, ix)
	if err != nil {
		t.Fatal(err)
	}
	for _, mut := range []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"truncated", data[:len(data)/3]},
		{"flipped", func() []byte {
			d := append([]byte(nil), data...)
			d[len(d)-20] ^= 0x10
			return d
		}()},
	} {
		if _, _, _, err := DecodeSnapshot(mut.data); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("%s: error %v does not wrap ErrSnapshotCorrupt", mut.name, err)
		}
	}
}

func boxesOf(ds Dataset) []Box {
	boxes := make([]Box, len(ds))
	for i := range ds {
		boxes[i] = ds[i].Box
	}
	return boxes
}

// TestOverlaySnapshotRoundtrip: a generation of three tiers with
// tombstones in each goes through EncodeSnapshot and DecodeOverlay and
// comes back as it was — tier for tier, answer for answer, and with the
// next insert ID it had, although the objects that held the highest IDs
// are gone — and then takes updates and folds like the original. Inserts
// no fold has indexed have no place in the file; one index and dataset
// (DecodeSnapshot) is not what such a file holds.
func TestOverlaySnapshotRoundtrip(t *testing.T) {
	m, err := NewMutable(GenerateUniform(2500, 61), TOUCHConfig{Partitions: 32, Fanout: 3})
	if err != nil {
		t.Fatal(err)
	}
	m.SetCompactThreshold(-1)
	var upper [][]ID
	for i, n := range []int{600, 150} {
		ids, err := m.Insert(boxesOf(GenerateUniform(n, int64(62+i))))
		if err != nil {
			t.Fatal(err)
		}
		m.fold(false)
		upper = append(upper, ids)
	}
	last := upper[1][len(upper[1])-1]
	m.Delete([]ID{2, 1700, upper[0][9], upper[0][599], upper[1][0], last, last - 1})
	if _, err := m.View().EncodeSnapshot(SnapshotInfo{Name: "g"}); err != nil {
		t.Fatalf("tombstones no fold has seen are part of the file: %v", err)
	}
	pending, err := m.Insert(boxesOf(GenerateUniform(3, 64)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.View().EncodeSnapshot(SnapshotInfo{Name: "g"}); err == nil {
		t.Fatal("a generation with unfolded inserts encoded")
	}
	m.Delete(pending)
	m.fold(false) // the tail is all dead: no tier is added, its IDs stay issued
	v := m.View()
	if tiers := v.Tiers(); len(tiers) != 3 || tiers[0].Dead != 2 || tiers[1].Dead != 2 || tiers[2].Dead != 3 {
		t.Fatalf("the fixture holds %+v", tiers)
	}

	info := SnapshotInfo{Name: "g", Version: 12, BuiltAt: time.Unix(1712000001, 0).UTC()}
	data, err := v.EncodeSnapshot(info)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := DecodeSnapshot(data); err == nil || errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("DecodeSnapshot of a tiered file: %v, want a refusal that is not a corruption", err)
	}
	got, back, err := DecodeOverlay(data)
	if err != nil {
		t.Fatal(err)
	}
	if got != info || !reflect.DeepEqual(back.Tiers(), v.Tiers()) || back.Stats() != v.Stats() ||
		!slices.Equal(back.tombs, v.tombs) || back.d.NextID() != v.d.NextID() || back.Config() != v.Config() {
		t.Fatalf("decoded %+v %+v next %d; encoded %+v %+v next %d", got, back.Tiers(), back.d.NextID(), info, v.Tiers(), v.d.NextID())
	}
	for i := range v.tiers {
		if back.tiers[i].tree.Config() != v.tiers[i].tree.Config() || back.tiers[i].tree.Leaves != v.tiers[i].tree.Leaves {
			t.Fatalf("tier %d came back in another shape", i)
		}
	}
	if ins, tombs := back.Pending(); ins+tombs != 0 {
		t.Fatalf("a decoded generation has %d inserts and %d tombstones unfolded", ins, tombs)
	}
	probe := GenerateUniform(900, 65).Expand(4)
	rng := rand.New(rand.NewSource(66))
	for i := 0; i < 40; i++ {
		q, pt := queryBox(rng), queryPoint(rng)
		want, _ := v.RangeQuery(q)
		if have, _ := back.RangeQuery(q); !slices.Equal(have, want) {
			t.Fatalf("RangeQuery(%v): %d ids after the round trip, %d before", q, len(have), len(want))
		}
		wantK, _ := v.KNN(pt, 15)
		if haveK, _ := back.KNN(pt, 15); !slices.Equal(haveK, wantK) {
			t.Fatalf("KNN(%v) differs after the round trip", pt)
		}
	}
	if want, have := mustJoin(t, v, probe, nil), mustJoin(t, back, probe, nil); !slices.Equal(sortPairSet(have.Pairs), sortPairSet(want.Pairs)) {
		t.Fatalf("Join: %d pairs after the round trip, %d before", len(have.Pairs), len(want.Pairs))
	}

	// The same update on both sides: the same IDs, the same dead, the
	// same fold.
	box := boxesOf(GenerateUniform(40, 67))
	del := []ID{upper[0][9], upper[0][10], 2, 3, last + 1}
	nv, first, deleted, ok := v.Apply(box, del)
	nb, firstBack, deletedBack, okBack := back.Apply(box, del)
	if !ok || !okBack || first != firstBack || deleted != deletedBack || deleted != 2 || first != pending[2]+1 {
		t.Fatalf("Apply: first ID %d/%d, deleted %d/%d, want %d and 2 on both", first, firstBack, deleted, deletedBack, pending[2]+1)
	}
	fv, fb := nv.Fold(false, BuildIndex), nb.Fold(false, BuildIndex)
	if fv.Objects != fb.Objects || !reflect.DeepEqual(fv.Next(nv).Tiers(), fb.Next(nb).Tiers()) {
		t.Fatalf("the decoded generation folds %d objects into %+v, the original %d into %+v",
			fb.Objects, fb.Next(nb).Tiers(), fv.Objects, fv.Next(nv).Tiers())
	}
}

// TestFormat1SnapshotDecodes: a file written before tiers existed — the
// committed format-1 fixture of internal/snapshot — still decodes, both
// as one dataset and index and as a generation whose first insert goes
// one above the largest ID it holds.
func TestFormat1SnapshotDecodes(t *testing.T) {
	data, err := os.ReadFile("internal/snapshot/testdata/format1.snap")
	if err != nil {
		t.Fatal(err)
	}
	info, ds, ix, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if info.Name != "legacy" || info.Version != 7 || len(ds) != 23 || ix.Stats().Objects != 23 || ix.Config().Fanout != 4 {
		t.Fatalf("decoded %+v: %d objects, %+v", info, len(ds), ix.Stats())
	}
	all := NewBox(Point{-1, -1, -1}, Point{1e6, 1e6, 1e6})
	if ids, _ := ix.RangeQuery(all); len(ids) != 23 {
		t.Fatalf("the decoded index holds %d objects", len(ids))
	}
	_, v, err := DecodeOverlay(data)
	if err != nil {
		t.Fatal(err)
	}
	if _, first, _, ok := v.Apply([]Box{{}}, nil); !ok || first != 23 {
		t.Fatalf("the first insert after a format-1 file received ID %d, want 23", first)
	}
}
