package testutil

import (
	"slices"
	"testing"
	"time"

	"touch"
	"touch/internal/geom"
)

// seedDataset is the small deterministic dataset of the snapshot seeds.
func seedDataset(n int) geom.Dataset {
	ds := make(geom.Dataset, 0, n)
	for i := 0; i < n; i++ {
		lo := geom.Point{float64(i * 5 % 95), float64(i * 7 % 95), float64(i * 11 % 95)}
		hi := geom.Point{lo[0] + 10, lo[1] + 10, lo[2] + 10}
		ds = append(ds, geom.Object{ID: geom.ID(i), Box: geom.NewBox(lo, hi)})
	}
	return ds
}

// snapshotSeed builds a valid snapshot of a small deterministic dataset,
// giving the fuzzer a structurally correct starting point so mutations
// explore the decoder's validation paths (magic, section table, CRCs,
// tree invariants) instead of bouncing off the header check.
func snapshotSeed(t testing.TB, n int) []byte {
	ds := seedDataset(n)
	ix := touch.BuildIndex(ds, touch.TOUCHConfig{Fanout: 4, Partitions: 2})
	info := touch.SnapshotInfo{Name: "fuzz", Version: 1, BuiltAt: time.Unix(1700000000, 0)}
	data, err := touch.EncodeSnapshot(info, ds, ix)
	if err != nil {
		t.Fatalf("encoding seed snapshot: %v", err)
	}
	return data
}

// tieredSnapshotSeed is a format-2 snapshot of a generation of three
// tiers with tombstones in each: a Mutable folded twice by its
// scheduler, deleted from, and folded once more.
func tieredSnapshotSeed(t testing.TB) []byte {
	ds := seedDataset(160)
	m, err := touch.NewMutable(ds, touch.TOUCHConfig{Fanout: 4, Partitions: 8})
	if err != nil {
		t.Fatal(err)
	}
	m.SetCompactThreshold(0)
	for _, n := range []int{40, 12} {
		boxes := make([]geom.Box, n)
		for i := range boxes {
			boxes[i] = ds[(7*i+n)%len(ds)].Box
		}
		if _, err := m.Insert(boxes); err != nil {
			t.Fatal(err)
		}
		foldTail(t, m)
	}
	m.Delete([]geom.ID{3, 77, 161, 199, 203})
	foldTail(t, m)
	if tiers := m.View().Tiers(); len(tiers) != 3 || tiers[0].Dead+tiers[1].Dead+tiers[2].Dead != 5 {
		t.Fatalf("the seed holds %+v, want 3 tiers under 5 tombstones", tiers)
	}
	data, err := m.View().EncodeSnapshot(touch.SnapshotInfo{Name: "fuzz", Version: 3, BuiltAt: time.Unix(1700000000, 0)})
	if err != nil {
		t.Fatalf("encoding tiered seed snapshot: %v", err)
	}
	return data
}

// FuzzSnapshotDecode: DecodeOverlay on arbitrary bytes must either
// return an error or a generation that answers queries identically to an
// index rebuilt from its merged dataset — never panic, never serve
// silently wrong answers — and DecodeSnapshot must agree with it on every
// file that is one dataset and one index. This is the adversarial counterpart of the fault
// matrix in internal/snapshot: torn writes and bit rot reach the
// decoder as exactly this kind of mangled input.
func FuzzSnapshotDecode(f *testing.F) {
	f.Add([]byte{})
	valid := snapshotSeed(f, 23)
	f.Add(valid)
	f.Add(snapshotSeed(f, 0))
	f.Add(valid[:len(valid)/2]) // torn tail
	f.Add(valid[:37])           // torn inside the header/meta
	flipped := slices.Clone(valid)
	flipped[len(flipped)/3] ^= 0x41
	f.Add(flipped)
	tiered := tieredSnapshotSeed(f)
	f.Add(tiered)
	f.Add(tiered[:len(tiered)-9]) // torn inside the tombstone section

	f.Fuzz(func(t *testing.T, data []byte) {
		info, ov, err := touch.DecodeOverlay(data)
		if err != nil {
			if _, _, _, err := touch.DecodeSnapshot(data); err == nil {
				t.Fatal("DecodeSnapshot accepted what DecodeOverlay rejects")
			}
			return // rejected — the only acceptable failure mode
		}
		ds := ov.Dataset()
		if info.Version < 0 || len(ds) > 1<<20 {
			t.Fatalf("decode accepted implausible snapshot: version=%d objects=%d", info.Version, len(ds))
		}
		// A generation of several tiers answers as the rebuild of what is
		// live in it, and its next insert ID is above everything it holds.
		q := geom.NewBox(geom.Point{-1e9, -1e9, -1e9}, geom.Point{1e9, 1e9, 1e9})
		all, err := ov.RangeQuery(q)
		if err != nil {
			t.Fatalf("decoded generation range query: %v", err)
		}
		if want, _ := touch.BuildIndex(ds, ov.Base().Config()).RangeQuery(q); !slices.Equal(all, want) {
			t.Fatalf("decoded generation disagrees with the rebuild of its dataset: %d ids, want %d", len(all), len(want))
		}
		if next, first, _, ok := ov.Apply([]geom.Box{{}}, nil); ok && (next == ov || (len(all) > 0 && first <= all[len(all)-1])) {
			t.Fatalf("the decoded generation's next insert ID %d is not above the IDs it holds", first)
		}
		_, ds, ix, err := touch.DecodeSnapshot(data)
		if tiers := ov.Tiers(); len(tiers) > 1 || tiers[0].Dead > 0 {
			if err == nil {
				t.Fatal("DecodeSnapshot returned one index for a tiered generation")
			}
			return
		}
		if err != nil {
			t.Fatalf("DecodeSnapshot rejects a one-tier file DecodeOverlay accepts: %v", err)
		}

		// Differential: a decoded index must be indistinguishable from one
		// rebuilt from the decoded dataset under the same configuration.
		rebuilt := touch.BuildIndex(ds, ix.Config())
		got, err := ix.RangeQuery(q)
		if err != nil {
			t.Fatalf("decoded index range query: %v", err)
		}
		want, err := rebuilt.RangeQuery(q)
		if err != nil {
			t.Fatalf("rebuilt index range query: %v", err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("decoded index disagrees with rebuild: got %d ids, want %d", len(got), len(want))
		}
		if gs, ws := ix.Stats(), rebuilt.Stats(); gs != ws {
			t.Fatalf("decoded index stats %+v != rebuilt %+v", gs, ws)
		}
	})
}
