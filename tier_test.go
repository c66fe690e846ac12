package touch

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"slices"
	"testing"
)

// TestTierBytesPerObject: a tier keeps its objects once, in its tree's
// arena. A generation made by BuildIndex, a Mutable and a decoded
// snapshot hold at most 60 bytes per object once the caller's dataset
// is gone — the arena's 52 bytes, a box and an ID in two columns, and
// the tree over it — where an arena of Objects, 56 bytes with the ID's
// padding, held 59.3 and keeping the loaded dataset beside the arena
// held 113.
func TestTierBytesPerObject(t *testing.T) {
	const n = 100_000
	const limit = 60.0
	data, err := EncodeSnapshot(SnapshotInfo{Name: "d"}, GenerateUniform(n, 41), BuildIndex(GenerateUniform(n, 41), TOUCHConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		make func() any
	}{
		{"BuildIndex", func() any { return BuildIndex(GenerateUniform(n, 41), TOUCHConfig{}) }},
		{"NewMutable", func() any {
			m, err := NewMutable(GenerateUniform(n, 41), TOUCHConfig{})
			if err != nil {
				t.Fatal(err)
			}
			return m
		}},
		{"DecodeOverlay", func() any {
			_, v, err := DecodeOverlay(data)
			if err != nil {
				t.Fatal(err)
			}
			return v
		}},
	} {
		before := heapAlloc()
		kept := tc.make()
		perObject := float64(heapAlloc()-before) / n
		runtime.KeepAlive(kept)
		t.Logf("%s: %.1f bytes per object", tc.name, perObject)
		if perObject > limit {
			t.Errorf("%s holds %.1f bytes per object, want at most %.0f", tc.name, perObject, limit)
		}
	}
}

// heapAlloc returns the live heap after two collections: the first moves
// sync.Pool contents to the victim cache, the second frees them.
func heapAlloc() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// tierFingerprints hashes, tier by tier, everything a frozen tree says:
// configuration, shape, every node field by its bits and the arena's
// objects in order.
func tierFingerprints(v *Overlay) []string {
	var out []string
	for _, t := range v.tiers {
		f := t.tree.Freeze()
		h := sha256.New()
		put := func(vs ...uint64) {
			for _, x := range vs {
				h.Write(binary.LittleEndian.AppendUint64(nil, x))
			}
		}
		putBox := func(b Box) {
			for d := range b.Min {
				put(math.Float64bits(b.Min[d]), math.Float64bits(b.Max[d]))
			}
		}
		put(uint64(f.Cfg.Partitions), uint64(f.Cfg.Fanout), uint64(f.Cfg.LocalCells), math.Float64bits(f.Cfg.CellFactor),
			uint64(f.Cfg.LocalJoin), uint64(f.Height), uint64(f.Leaves), uint64(len(f.Nodes)))
		for _, nd := range f.Nodes {
			putBox(nd.MBR)
			put(uint64(nd.Children), uint64(nd.AStart), uint64(nd.AEnd), math.Float64bits(nd.ExtSumA))
		}
		for i, id := range f.IDs {
			put(uint64(id))
			putBox(f.Boxes[i])
		}
		out = append(out, hex.EncodeToString(h.Sum(nil))[:16])
	}
	return out
}

// TestFoldFingerprint: a fold gathers the objects it rewrites from the
// tiers' arenas into ID order, so it hands the builder the very dataset
// the tiers' own datasets used to merge into, and builds the same trees
// bit for bit. A fold of the tail into a new tier, one that rewrites the
// top tier with the tail, and a full fold are pinned to the fingerprints
// of the build that kept each tier's dataset beside its tree, with the
// upper tiers' buckets capped at core.TierBucket objects.
func TestFoldFingerprint(t *testing.T) {
	base := GenerateClustered(6000, 17)
	v := BuildIndex(base, TOUCHConfig{Partitions: 64})
	boxes := func(n int, seed int64) []Box {
		out := make([]Box, n)
		for i, o := range GenerateUniform(n, seed) {
			out[i] = o.Box
		}
		return out
	}
	step := func(inserts []Box, deletes []ID, full bool) {
		t.Helper()
		next, _, _, ok := v.Apply(inserts, deletes)
		if !ok {
			t.Fatal("Apply refused the batch")
		}
		v = next.Fold(full, BuildIndex).Next(next)
	}
	var deletes []ID
	for id := ID(3); id < 6000; id += 11 {
		deletes = append(deletes, id)
	}
	step(boxes(700, 18), deletes[:200], false) // the tail becomes tier 1
	tail := tierFingerprints(v)
	step(boxes(500, 19), []ID{6001, 6005, 44}, false) // tier 1 is rewritten with the tail
	top := tierFingerprints(v)
	topTiers := v.Tiers()
	step(boxes(90, 20), deletes[200:], true)
	full := tierFingerprints(v)

	if len(tail) != 2 || len(top) != 2 || topTiers[1].MinID != 6000 || topTiers[1].Objects != 1198 || len(full) != 1 {
		t.Fatalf("premise: the folds left %d, %d (%+v) and %d tiers", len(tail), len(top), topTiers, len(full))
	}
	want := []string{
		"65c813f8ae566cc0", "6fb647c83fe58468", // base, tail
		"65c813f8ae566cc0", "76aec4a4c9ad4a4b", // base, tier 1 and tail
		"7ab092f845fac830", // full
	}
	got := slices.Concat(tail, top, full)
	if !slices.Equal(got, want) {
		t.Errorf("tier fingerprints %q, want %q", got, want)
	}
	live := v.Dataset()
	if ids, _ := v.RangeQuery(NewBox(Point{-1e9, -1e9, -1e9}, Point{1e9, 1e9, 1e9})); len(ids) != len(live) {
		t.Fatalf("the folded generation answers %d objects for the universe, its dataset holds %d", len(ids), len(live))
	}
}
