package snapshot

import (
	"cmp"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

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
		Tiers:   []Tier{{Objects: ds, Tree: tree.Freeze()}},
	}, tree
}

func TestMarshalUnmarshalRoundtrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		n    int
		cfg  core.Config
	}{
		{"empty", 0, core.Config{}},
		{"small", 300, core.Config{Partitions: 16}},
		{"fanout4-sweep", 2000, core.Config{Partitions: 64, Fanout: 4, LocalJoin: core.LocalJoinSweep, Workers: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec, tree := buildRecord(t, tc.n, 11, tc.cfg)
			data, err := rec.Marshal()
			if err != nil {
				t.Fatalf("Marshal: %v", err)
			}
			got, err := Unmarshal(data)
			if err != nil {
				t.Fatalf("Unmarshal: %v", err)
			}
			if got.Name != rec.Name || got.Version != rec.Version || !got.BuiltAt.Equal(rec.BuiltAt) {
				t.Fatalf("identity mismatch: %q v%d %v", got.Name, got.Version, got.BuiltAt)
			}
			if len(got.Tiers) != 1 || len(got.Tombs) != 0 || got.NextID != rec.NextID {
				t.Fatalf("%d tiers, %d tombstones, next ID %d; want 1, 0, %d", len(got.Tiers), len(got.Tombs), got.NextID, rec.NextID)
			}
			if !slices.Equal(got.Tiers[0].Objects, rec.Tiers[0].Objects) {
				t.Fatalf("objects differ: %d decoded, %d encoded", len(got.Tiers[0].Objects), len(rec.Tiers[0].Objects))
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
	rec, _ := buildRecord(t, 100, 3, core.Config{})
	rec.Tiers[0].Objects = rec.Tiers[0].Objects[:50]
	if _, err := rec.Marshal(); err == nil || !strings.Contains(err.Error(), "arena") {
		t.Fatalf("marshal with mismatched objects: %v", err)
	}
	rec, _ = buildRecord(t, 10, 3, core.Config{})
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
		rec.Tiers = append(rec.Tiers, Tier{Objects: ds, Tree: core.Build(ds, core.Config{Partitions: 8}).Freeze()})
	}
	rec.Tombs = []geom.ID{4, 999, 1000, 1299, 1320, 1377}
	return rec
}

// TestTieredRoundtrip: format 2 carries every tier, the tombstones and
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
		if !slices.Equal(got.Tiers[i].Objects, tier.Objects) || got.Tiers[i].Tree.Cfg != tier.Tree.Cfg {
			t.Fatalf("tier %d differs after the round trip", i)
		}
		if trees[i].SizeA != len(tier.Objects) || trees[i].Leaves != tier.Tree.Leaves {
			t.Fatalf("tier %d thawed to %d objects in %d leaves", i, trees[i].SizeA, trees[i].Leaves)
		}
	}
	for cut := len(data) - 40; cut < len(data); cut++ {
		if _, err := Unmarshal(data[:cut]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation inside the tombstone section at %d/%d: %v", cut, len(data), err)
		}
	}
}

// TestUnmarshalChecksTiers: what merged reads lean on is checked at the
// door — a file whose tiers or tombstones are out of order is corrupt,
// however good its checksums.
func TestUnmarshalChecksTiers(t *testing.T) {
	for name, spoil := range map[string]func(*Record){
		"tier ID ranges overlap":           func(r *Record) { r.Tiers[1], r.Tiers[2] = r.Tiers[2], r.Tiers[1] },
		"tier not ID-ascending":            func(r *Record) { o := r.Tiers[1].Objects; o[3], o[4] = o[4], o[3] },
		"duplicate ID across tiers":        func(r *Record) { r.Tiers[2].Objects[0].ID = 1299 },
		"empty upper tier":                 func(r *Record) { r.Tiers[1] = Tier{Tree: core.Build(nil, core.Config{}).Freeze()} },
		"tombstones out of order":          func(r *Record) { r.Tombs[0], r.Tombs[1] = r.Tombs[1], r.Tombs[0] },
		"duplicate tombstone":              func(r *Record) { r.Tombs[1] = r.Tombs[0] },
		"tombstone for an ID nobody holds": func(r *Record) { r.Tombs[4] = 1310 },
		"negative next ID":                 func(r *Record) { r.NextID = -2 },
	} {
		rec := tieredRecord(t)
		for i := range rec.Tiers { // the fixture's tiers share one backing array
			rec.Tiers[i].Objects = slices.Clone(rec.Tiers[i].Objects)
		}
		spoil(rec)
		data, err := rec.Marshal()
		if err != nil {
			t.Fatalf("%s: Marshal: %v", name, err)
		}
		if _, err := Unmarshal(data); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Unmarshal = %v, want ErrCorrupt", name, err)
		}
	}
	// A lone tier without tombstones is a dataset as it was loaded, in
	// whatever order.
	rec, _ := buildRecord(t, 50, 3, core.Config{})
	slices.Reverse(rec.Tiers[0].Objects)
	data, _ := rec.Marshal()
	if _, err := Unmarshal(data); err != nil {
		t.Fatalf("a lone unordered tier: %v", err)
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
	if rec.Name != "legacy" || rec.Version != 7 || len(rec.Tiers) != 1 || len(rec.Tiers[0].Objects) != 23 ||
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
	tree, ds := trees[0], rec.Tiers[0].Objects
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
