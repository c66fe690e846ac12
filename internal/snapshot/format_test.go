package snapshot

import (
	"cmp"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"touch/internal/binfmt"
	"touch/internal/core"
	"touch/internal/datagen"
	"touch/internal/geom"
	"touch/internal/nl"
	"touch/internal/stats"
)

func buildRecord(t *testing.T, n int, seed int64, cfg core.Config) (*Record, *core.Tree) {
	t.Helper()
	var ds geom.Dataset
	if n > 0 {
		ds = datagen.UniformSet(n, seed)
	}
	tree := core.Build(ds, cfg)
	return &Record{
		Name:    "roundtrip",
		Version: 7,
		BuiltAt: time.Unix(1700000000, 123456789).UTC(),
		Tiers:   []Tier{{Tree: tree.Freeze()}},
	}, tree
}

// withWorkerSlot returns a copy of the single-tier snapshot data with
// its tier's retired worker slot set to v and the meta checksum
// recomputed.
func withWorkerSlot(t *testing.T, data []byte, v uint32) []byte {
	t.Helper()
	out := slices.Clone(data)
	meta := out[headerSize+8:]
	meta = meta[:binary.LittleEndian.Uint64(out[headerSize:])]
	nameLen := int(binary.LittleEndian.Uint32(meta))
	// name, version, builtAt, next ID, tombstone and tier counts, then
	// the tier's partitions, fanout, local cells, cell factor, local join.
	slot := 4 + nameLen + 8 + 8 + 3*4 + 3*4 + 8 + 4
	if binary.LittleEndian.Uint32(meta[slot:]) != 0 {
		t.Fatal("premise: the writer put a non-zero worker slot")
	}
	binary.LittleEndian.PutUint32(meta[slot:], v)
	binary.LittleEndian.PutUint32(out[headerSize+8+len(meta):], crc32.Checksum(meta, castagnoli))
	return out
}

func TestMarshalUnmarshalRoundtrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		n    int
		cfg  core.Config
		slot uint32 // the retired worker slot the decoded file carries
	}{
		{"empty", 0, core.Config{}, 0},
		{"small", 300, core.Config{Partitions: 16}, 0},
		{"fanout4-sweep", 2000, core.Config{Partitions: 64, Fanout: 4, LocalJoin: core.LocalJoinSweep}, 0},
		// Files from builds that stored a per-tree worker count there
		// decode as if it were 0.
		{"worker-slot-4", 2000, core.Config{Partitions: 64}, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec, tree := buildRecord(t, tc.n, 11, tc.cfg)
			data, err := rec.Marshal()
			if err != nil {
				t.Fatalf("Marshal: %v", err)
			}
			got, err := Unmarshal(withWorkerSlot(t, data, tc.slot))
			if err != nil {
				t.Fatalf("Unmarshal: %v", err)
			}
			plain, err := Unmarshal(data)
			if err != nil {
				t.Fatalf("Unmarshal: %v", err)
			}
			if !reflect.DeepEqual(got, plain) {
				t.Fatalf("worker slot %d decodes to %+v, slot 0 to %+v", tc.slot, got.Tiers[0].Tree.Cfg, plain.Tiers[0].Tree.Cfg)
			}
			if got.Name != rec.Name || got.Version != rec.Version || !got.BuiltAt.Equal(rec.BuiltAt) {
				t.Fatalf("identity mismatch: %q v%d %v", got.Name, got.Version, got.BuiltAt)
			}
			if len(got.Tiers) != 1 || len(got.Tombs) != 0 || got.NextID != rec.NextID {
				t.Fatalf("%d tiers, %d tombstones, next ID %d; want 1, 0, %d", len(got.Tiers), len(got.Tombs), got.NextID, rec.NextID)
			}
			if !sameArena(got.Tiers[0].Tree, rec.Tiers[0].Tree) || got.Tiers[0].IDs.Len() != tc.n {
				t.Fatalf("arenas differ: %d decoded objects with %d IDs, %d encoded", len(got.Tiers[0].Tree.IDs), got.Tiers[0].IDs.Len(), tc.n)
			}

			trees, err := got.Thaw()
			if err != nil {
				t.Fatalf("Thaw: %v", err)
			}
			thawed := trees[0]
			// Differential join: decoded tree must answer exactly like the
			// one it was frozen from.
			probe := datagen.ClusteredSet(800, 5)
			var cw, cg stats.Counters
			sw, sg := &stats.CollectSink{}, &stats.CollectSink{}
			pw, pg := tree.NewProbe(), thawed.NewProbe()
			pw.Assign(probe, nil, &cw)
			pw.JoinPhase(nil, &cw, sw)
			pg.Assign(probe, nil, &cg)
			pg.JoinPhase(nil, &cg, sg)
			if len(sw.Pairs) != len(sg.Pairs) {
				t.Fatalf("decoded tree found %d pairs, original %d", len(sg.Pairs), len(sw.Pairs))
			}
			for i := range sw.Pairs {
				if sw.Pairs[i] != sg.Pairs[i] {
					t.Fatalf("pair %d = %v, want %v", i, sg.Pairs[i], sw.Pairs[i])
				}
			}
		})
	}
}

func TestMarshalRejectsInconsistentRecord(t *testing.T) {
	rec, _ := buildRecord(t, 10, 3, core.Config{})
	rec.Tiers[0].Tree = nil
	if _, err := rec.Marshal(); err == nil {
		t.Fatal("marshal with nil tree succeeded")
	}
	rec, _ = buildRecord(t, 10, 3, core.Config{})
	rec.Tiers = nil
	if _, err := rec.Marshal(); err == nil {
		t.Fatal("marshal with no tiers succeeded")
	}
	rec, _ = buildRecord(t, 10, 3, core.Config{})
	rec.Name = ""
	if _, err := rec.Marshal(); err == nil {
		t.Fatal("marshal with empty name succeeded")
	}
}

// Every truncation of a valid snapshot must fail decode cleanly, and
// every single-byte corruption must either fail decode or produce a
// record whose tree still passes full validation (a flip inside a CRC
// that happens to collide is statistically impossible; flips in ignored
// padding do not exist in this format).
func TestUnmarshalRejectsCorruption(t *testing.T) {
	rec, _ := buildRecord(t, 200, 9, core.Config{Partitions: 16})
	data, err := rec.Marshal()
	if err != nil {
		t.Fatal(err)
	}

	for cut := 0; cut < len(data); cut += 7 {
		if _, err := Unmarshal(data[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d decoded successfully", cut, len(data))
		}
	}

	for off := 0; off < len(data); off += 11 {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x41
		got, err := Unmarshal(mut)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && off >= len(Magic) {
				t.Fatalf("flip at %d: error %v does not wrap ErrCorrupt", off, err)
			}
			continue
		}
		// Decode passed (flip restricted to e.g. the version field's
		// unused high bytes cannot happen — every byte is covered by a
		// CRC or the header checks). If it somehow did, the tree must
		// still be fully valid.
		if _, err := got.Thaw(); err != nil {
			t.Fatalf("flip at %d: decode passed but Thaw failed: %v", off, err)
		}
	}
}

func TestUnmarshalHeaderChecks(t *testing.T) {
	rec, _ := buildRecord(t, 20, 1, core.Config{})
	data, _ := rec.Marshal()

	bad := append([]byte(nil), data...)
	copy(bad, "NOTSNAP!")
	if _, err := Unmarshal(bad); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic: %v", err)
	}

	bad = append([]byte(nil), data...)
	bad[len(Magic)] = 99 // format version
	if _, err := Unmarshal(bad); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("bad version: %v", err)
	}

	if _, err := Unmarshal(nil); err == nil {
		t.Fatal("nil input decoded")
	}
}

// tieredRecord is a record of three tiers over ascending ID ranges, as a
// fold leaves them, with tombstones into each and a high-water mark above
// the largest ID held.
func tieredRecord(t *testing.T) *Record {
	t.Helper()
	all := datagen.UniformSet(1400, 31)
	rec := &Record{Name: "tiers", Version: 9, BuiltAt: time.Unix(1700000001, 0).UTC(), NextID: 1500}
	for _, r := range [][2]int{{0, 1000}, {1000, 1300}, {1320, 1400}} { // 1300..1319 were folded away
		ds := all[r[0]:r[1]]
		rec.Tiers = append(rec.Tiers, Tier{Tree: core.Build(ds, core.Config{Partitions: 8}).Freeze()})
	}
	rec.Tombs = []geom.ID{4, 999, 1000, 1299, 1320, 1377}
	return rec
}

// TestTieredRoundtrip: format 3 carries every tier, the tombstones and
// the next insert ID, and what comes back thaws tier by tier.
func TestTieredRoundtrip(t *testing.T) {
	rec := tieredRecord(t)
	data, err := rec.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != rec.Name || got.Version != rec.Version || !got.BuiltAt.Equal(rec.BuiltAt) ||
		got.NextID != rec.NextID || !slices.Equal(got.Tombs, rec.Tombs) || len(got.Tiers) != len(rec.Tiers) {
		t.Fatalf("decoded %q v%d next %d tombs %v in %d tiers", got.Name, got.Version, got.NextID, got.Tombs, len(got.Tiers))
	}
	trees, err := got.Thaw()
	if err != nil {
		t.Fatal(err)
	}
	for i, tier := range rec.Tiers {
		if !sameArena(got.Tiers[i].Tree, tier.Tree) || got.Tiers[i].Tree.Cfg != tier.Tree.Cfg {
			t.Fatalf("tier %d differs after the round trip", i)
		}
		bounds := [][2]geom.ID{{0, 999}, {1000, 1299}, {1320, 1399}}[i]
		if ids := got.Tiers[i].IDs; ids.Len() != len(tier.Tree.IDs) || ids.Min() != bounds[0] || ids.Max() != bounds[1] {
			t.Fatalf("tier %d decoded %d IDs in [%d, %d], want %d in %v", i, ids.Len(), ids.Min(), ids.Max(), len(tier.Tree.IDs), bounds)
		}
		if trees[i].SizeA != len(tier.Tree.IDs) || trees[i].Leaves != tier.Tree.Leaves {
			t.Fatalf("tier %d thawed to %d objects in %d leaves", i, trees[i].SizeA, trees[i].Leaves)
		}
	}
	for cut := len(data) - 40; cut < len(data); cut++ {
		if _, err := Unmarshal(data[:cut]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation inside the tombstone section at %d/%d: %v", cut, len(data), err)
		}
	}
}

// sameArena reports whether two frozen trees hold equal arena columns.
func sameArena(a, b *core.Frozen) bool {
	return slices.Equal(a.Boxes, b.Boxes) && slices.Equal(a.IDs, b.IDs)
}

// TestUnmarshalChecksTiers: what merged reads lean on is checked at the
// door — a file whose tiers repeat IDs or whose tiers or tombstones are
// out of order is corrupt, however good its checksums.
func TestUnmarshalChecksTiers(t *testing.T) {
	for name, spoil := range map[string]func(*Record){
		"tier ID ranges overlap":           func(r *Record) { r.Tiers[1], r.Tiers[2] = r.Tiers[2], r.Tiers[1] },
		"ID repeated within a tier":        func(r *Record) { ids := r.Tiers[1].Tree.IDs; ids[3] = ids[4] },
		"duplicate ID across tiers":        func(r *Record) { r.Tiers[2].Tree.IDs[0] = 1299 },
		"empty upper tier":                 func(r *Record) { r.Tiers[1] = Tier{Tree: core.Build(nil, core.Config{}).Freeze()} },
		"tombstones out of order":          func(r *Record) { r.Tombs[0], r.Tombs[1] = r.Tombs[1], r.Tombs[0] },
		"duplicate tombstone":              func(r *Record) { r.Tombs[1] = r.Tombs[0] },
		"tombstone for an ID nobody holds": func(r *Record) { r.Tombs[4] = 1310 },
		"negative next ID":                 func(r *Record) { r.NextID = -2 },
	} {
		rec := tieredRecord(t)
		spoil(rec)
		data, err := rec.Marshal()
		if err != nil {
			t.Fatalf("%s: Marshal: %v", name, err)
		}
		if _, err := Unmarshal(data); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Unmarshal = %v, want ErrCorrupt", name, err)
		}
	}
}

// asFormat2 rewrites a format-3 file into format 2, the layout of the
// builds that wrote every tier's objects twice: in front of each tier's
// tree section an objects section holding what objects returns for the
// tier, handed its objects in ID order; meta — format 2's is format 3's —
// and the other sections as they are.
func asFormat2(t *testing.T, data []byte, objects func(tier int, byID geom.Dataset) geom.Dataset) []byte {
	t.Helper()
	rec, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	rd := binfmt.NewReader(data[headerSize:], ErrCorrupt, "format-3 file")
	out := binfmt.AppendU32(append([]byte(nil), Magic...), formatV2)
	out = binfmt.AppendU32(out, uint32(2+2*len(rec.Tiers)))
	meta, _ := section(&rd, "meta")
	out = appendSection(out, meta)
	for i, tier := range rec.Tiers {
		var boxes []geom.Box
		var ids []geom.ID
		for _, o := range objects(i, tier.IDs.Gather(nil, tier.Tree.Boxes, tier.Tree.IDs)) {
			boxes, ids = append(boxes, o.Box), append(ids, o.ID)
		}
		out = appendSection(out, appendObjects(nil, boxes, ids))
		tree, _ := section(&rd, "tree")
		out = appendSection(out, tree)
	}
	tombs, err := section(&rd, "tombs")
	if err != nil {
		t.Fatal(err)
	}
	return appendSection(out, tombs)
}

// TestLegacyObjectsSectionMatchesArena: a format-2 file carries every
// object twice, and the two copies must agree — an objects section that
// holds anything but its tier's arena objects, each once, is corrupt.
// Its order does not matter: the tier's ID order comes from the arena,
// so a lone tier written in reverse decodes to the record the format-3
// file decodes to, and its IDs are there to delete by.
func TestLegacyObjectsSectionMatchesArena(t *testing.T) {
	one, _ := buildRecord(t, 1600, 21, core.Config{Partitions: 16})
	oneData, err := one.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	tiered, err := tieredRecord(t).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	reversed := func(_ int, ds geom.Dataset) geom.Dataset { slices.Reverse(ds); return ds }
	for _, tc := range []struct {
		name    string
		data    []byte
		objects func(int, geom.Dataset) geom.Dataset
		ok      bool
	}{
		{"as written", oneData, func(_ int, ds geom.Dataset) geom.Dataset { return ds }, true},
		{"reversed", oneData, reversed, true},
		{"object 7's box moved", oneData, func(_ int, ds geom.Dataset) geom.Dataset {
			ds[7].Box.Min[0], ds[7].Box.Max[0] = ds[7].Box.Min[0]+50, ds[7].Box.Max[0]+50
			return ds
		}, false},
		{"an ID nobody holds", oneData, func(_ int, ds geom.Dataset) geom.Dataset { ds[9].ID = 1600; return ds }, false},
		{"an object twice, its neighbour missing", oneData, func(_ int, ds geom.Dataset) geom.Dataset { ds[8] = ds[7]; return ds }, false},
		{"tiers reversed", tiered, reversed, true},
		{"a box of tier 1 moved", tiered, func(i int, ds geom.Dataset) geom.Dataset {
			if i == 1 {
				ds[3].Box.Max[2] += 0.5
			}
			return ds
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := Unmarshal(asFormat2(t, tc.data, tc.objects))
			if !tc.ok {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("Unmarshal = %v, want ErrCorrupt", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			want, _ := Unmarshal(tc.data)
			if !reflect.DeepEqual(got, want) {
				t.Fatal("the format-2 file decodes to another record than the format-3 file it was made from")
			}
			if ids := got.Tiers[0].IDs; len(got.Tiers) == 1 && (!ids.Holds(5) || !ids.Holds(1500)) {
				t.Fatal("the decoded tier does not hold IDs 5 and 1500")
			}
		})
	}
}

// TestFormat1StillDecodes: testdata/format1.snap was written by the last
// build whose only format was 1 (23 objects, fanout 4, two partitions,
// name "legacy", version 7). It must keep decoding, to one tier without
// tombstones or a high-water mark, and thaw.
func TestFormat1StillDecodes(t *testing.T) {
	data, err := os.ReadFile("testdata/format1.snap")
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(data[len(Magic):]); v != formatV1 {
		t.Fatalf("the fixture is format %d", v)
	}
	rec, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Name != "legacy" || rec.Version != 7 || len(rec.Tiers) != 1 || rec.Tiers[0].IDs.Len() != 23 ||
		len(rec.Tombs) != 0 || rec.NextID != 0 || rec.Tiers[0].Tree.Cfg.Fanout != 4 {
		t.Fatalf("decoded %q v%d: %d tiers, %d tombstones, next ID %d", rec.Name, rec.Version, len(rec.Tiers), len(rec.Tombs), rec.NextID)
	}
	if _, err := rec.Thaw(); err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(data); cut += 13 {
		if _, err := Unmarshal(data[:cut]); err == nil {
			t.Fatalf("format-1 truncation at %d/%d decoded", cut, len(data))
		}
	}
}

// TestFormat3Recovers: testdata/format3.snap is a format-3 generation
// written when the format was introduced — three tiers over the IDs
// 0–79, 80–109 and 115–129 of 130 clustered objects (the second with the
// sweep local join), five tombstones and next ID 140, name "golden",
// version 3. It decodes to those tiers, each thawed tree answers range
// and kNN questions as the nested loop over its arena does, the writer
// still writes it byte for byte, and every truncation is corrupt.
// testdata/format2-tiers.snap is the same generation in format 2, its
// objects sections in ID order: a fuzz seed for the format-2 reader whose
// trees are this builder's.
func TestFormat3Recovers(t *testing.T) {
	data, err := os.ReadFile("testdata/format3.snap")
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(data[len(Magic):]); v != 3 {
		t.Fatalf("the fixture is format %d", v)
	}
	rec, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Name != "golden" || rec.Version != 3 || rec.NextID != 140 || !slices.Equal(rec.Tombs, []geom.ID{3, 79, 80, 115, 120}) || len(rec.Tiers) != 3 {
		t.Fatalf("decoded %q v%d: next ID %d, tombstones %v, %d tiers", rec.Name, rec.Version, rec.NextID, rec.Tombs, len(rec.Tiers))
	}
	trees, err := rec.Thaw()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	var c stats.Counters
	hits := 0
	for i, bounds := range [][2]geom.ID{{0, 79}, {80, 109}, {115, 129}} {
		ids, f := rec.Tiers[i].IDs, rec.Tiers[i].Tree
		arena := ids.Gather(nil, f.Boxes, f.IDs)
		if ids.Len() != int(bounds[1]-bounds[0]+1) || ids.Min() != bounds[0] || ids.Max() != bounds[1] {
			t.Fatalf("tier %d holds %d IDs in [%d, %d], want all of %v", i, ids.Len(), ids.Min(), ids.Max(), bounds)
		}
		p := trees[i].NewProbe()
		for j := 0; j < 50; j++ {
			var lo, pt geom.Point
			for d := range lo {
				lo[d], pt[d] = rng.Float64()*1000, rng.Float64()*1000
			}
			q := geom.NewBox(lo, geom.Point{lo[0] + 400, lo[1] + 400, lo[2] + 400})
			got, want := p.RangeQuery(q, &c), nl.RangeQuery(arena, q)
			if !slices.Equal(got, want) {
				t.Fatalf("tier %d range %v: %v, nested loop %v", i, q, got, want)
			}
			hits += len(want)
			if got, want := p.KNN(pt, 4, &c), nl.KNN(arena, pt, 4); !slices.Equal(got, want) {
				t.Fatalf("tier %d: 4 nearest to %v: %v, nested loop %v", i, pt, got, want)
			}
		}
	}
	if hits < 100 {
		t.Fatalf("premise: the range queries found %d objects in all", hits)
	}
	if again, err := rec.Marshal(); err != nil || !slices.Equal(again, data) {
		t.Fatalf("re-encoding the decoded record: %d bytes, %v; want the fixture's %d", len(again), err, len(data))
	}
	for cut := 0; cut < len(data); cut += 17 {
		if _, err := Unmarshal(data[:cut]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("format-3 truncation at %d/%d: %v", cut, len(data), err)
		}
	}
	v2, err := os.ReadFile("testdata/format2-tiers.snap")
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(v2, asFormat2(t, data, func(_ int, ds geom.Dataset) geom.Dataset { return ds })) {
		t.Fatal("format2-tiers.snap is not format3.snap in format 2")
	}
	if got, err := Unmarshal(v2); err != nil || !reflect.DeepEqual(got, rec) {
		t.Fatalf("format2-tiers.snap decodes to another record: %v", err)
	}
}

// TestFormat2OfTheOldBuilderThaws: testdata/format2.snap was written by
// the last build whose upper levels were packed with STR on the nodes'
// centres (150 clustered objects, 15 partitions: 45 nodes over 18 leaves,
// where this build's tree over the same leaves has 35). Topology is child
// counts, so the snapshot thaws to the tree it holds, not to the tree this
// build would make — and that tree answers range, kNN and join questions
// as the nested loop does.
func TestFormat2OfTheOldBuilderThaws(t *testing.T) {
	data, err := os.ReadFile("testdata/format2.snap")
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(data[len(Magic):]); v != 2 {
		t.Fatalf("the fixture is format %d", v)
	}
	rec, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	trees, err := rec.Thaw()
	if err != nil {
		t.Fatal(err)
	}
	if len(trees) != 1 {
		t.Fatalf("%d tiers thawed, want 1", len(trees))
	}
	tree, ds := trees[0], rec.Tiers[0].IDs.Gather(nil, rec.Tiers[0].Tree.Boxes, rec.Tiers[0].Tree.IDs)
	rebuilt := core.Build(ds, tree.Config())
	if tree.Nodes != 45 || tree.Leaves != 18 || tree.Height != 6 || rebuilt.Leaves != tree.Leaves || rebuilt.Nodes >= tree.Nodes {
		t.Fatalf("premise: thawed %d nodes over %d leaves, height %d; a rebuild has %d over %d",
			tree.Nodes, tree.Leaves, tree.Height, rebuilt.Nodes, rebuilt.Leaves)
	}

	rng := rand.New(rand.NewSource(2))
	mbr := tree.Freeze().Nodes[0].MBR
	p := tree.NewProbe()
	var c stats.Counters
	for i := 0; i < 200; i++ {
		var lo, hi, pt geom.Point
		for d := range lo {
			lo[d] = mbr.Min[d] + rng.Float64()*mbr.Extent(d)
			hi[d] = lo[d] + rng.Float64()*mbr.Extent(d)/4
			pt[d] = mbr.Min[d] + rng.Float64()*mbr.Extent(d)
		}
		q := geom.NewBox(lo, hi)
		if got, want := p.RangeQuery(q, &c), nl.RangeQuery(ds, q); !slices.Equal(got, want) {
			t.Fatalf("range %v: %v, nested loop %v", q, got, want)
		}
		k := 1 + rng.Intn(12)
		if got, want := p.KNN(pt, k, &c), nl.KNN(ds, pt, k); !slices.Equal(got, want) {
			t.Fatalf("%d nearest to %v: %v, nested loop %v", k, pt, got, want)
		}
	}

	probe := datagen.UniformSet(2000, 78).Expand(15)
	got, want := &stats.CollectSink{}, &stats.CollectSink{}
	p.Assign(probe, nil, &c)
	p.JoinPhase(nil, &c, got)
	nl.Join(ds, probe, nil, &stats.Counters{}, want)
	byIDs := func(a, b geom.Pair) int { return cmp.Or(cmp.Compare(a.A, b.A), cmp.Compare(a.B, b.B)) }
	slices.SortFunc(got.Pairs, byIDs)
	slices.SortFunc(want.Pairs, byIDs)
	if len(want.Pairs) == 0 || !slices.Equal(got.Pairs, want.Pairs) {
		t.Fatalf("join: %d pairs, nested loop %d", len(got.Pairs), len(want.Pairs))
	}
}
