package testutil

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"touch/internal/binfmt"
	"touch/internal/geom"
	"touch/internal/snapshot"
	"touch/internal/wire"
)

// verdictMutants is how many mutants each valid payload of the verdict
// corpus spawns.
const verdictMutants = 4000

// verdictGolden pins, per decoder, how many payloads of the corpus it
// sees and accepts and a hash of its verdicts and accepted values in
// corpus order. A codec change that keeps the bytes and the decisions
// leaves it as it is; error wording is not part of it.
var verdictGolden = map[string]struct {
	payloads, accepted int
	hash               string
}{
	"range":      {8002, 4568, "11db6620a24e7081"},
	"point":      {8002, 4353, "dd58e20b11f2004a"},
	"knn":        {8002, 4459, "14d02de328a15554"},
	"join":       {12003, 5541, "7c5879cb6458d8f9"},
	"update":     {8002, 2361, "c2c581fca60cd784"},
	"dataset":    {12003, 11695, "47feb3c929b68094"},
	"ids":        {4001, 1976, "4d0dc24a19f81e94"},
	"neighbors":  {4001, 2102, "65c564a29df75a9b"},
	"count":      {4001, 2459, "8c9a524fc9cae99d"},
	"pairs":      {4001, 1892, "5642b9e4aa5785b8"},
	"joindone":   {4001, 2447, "d723c0896059221c"},
	"updatedone": {4001, 2432, "acae27239f069ad9"},
	"catalog":    {4001, 1974, "925c101205bac12b"},
	"error":      {4001, 2099, "54aabf10fdfb8fad"},
	"trace":      {4001, 2277, "75597a922aea2dd7"},
	"snapshot":   {12003, 324, "ae757415dcb7d85b"},
}

// verdictCodec is one decoder under the corpus: the valid payloads its
// mutants grow from, the sentinel every rejection wraps, and a rendering
// of what it accepted.
type verdictCodec struct {
	name     string
	sentinel error
	valid    [][]byte
	decode   func([]byte) (string, error)
}

// TestDecodeVerdictsGolden feeds every wire decoder, RequestDataset and
// snapshot.Unmarshal their valid encodings and thousands of seeded
// mutants of each — truncations, an appended byte, overwritten bytes, a
// flipped bit, a byte set to an edge value — and compares each decoder's
// verdicts and decoded values (floats print exactly with %v) with the
// table above.
func TestDecodeVerdictsGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var rows []string
	total, totalAccepted := 0, 0
	for _, c := range verdictCodecs(t) {
		h := sha256.New()
		payloads, accepted := 0, 0
		for _, valid := range c.valid {
			for i := -1; i < verdictMutants; i++ {
				p := valid
				if i >= 0 {
					p = mutate(rng, valid, i)
				}
				payloads++
				v, err := c.decode(p)
				if err != nil {
					if !errors.Is(err, c.sentinel) {
						t.Errorf("%s: rejection %v does not wrap %v", c.name, err, c.sentinel)
					}
					h.Write([]byte("reject\n"))
					continue
				}
				accepted++
				fmt.Fprintf(h, "accept %s\n", v)
			}
		}
		total, totalAccepted = total+payloads, totalAccepted+accepted
		sum := hex.EncodeToString(h.Sum(nil)[:8])
		rows = append(rows, fmt.Sprintf("%q: {%d, %d, %q},", c.name, payloads, accepted, sum))
		want := verdictGolden[c.name]
		if want.payloads != payloads || want.accepted != accepted || want.hash != sum {
			t.Errorf("%s: %d payloads, %d accepted, hash %s; want %+v", c.name, payloads, accepted, sum, want)
		}
	}
	if t.Failed() {
		t.Logf("%d payloads, %d accepted; the table now reads:\n%s", total, totalAccepted, strings.Join(rows, "\n"))
	}
}

// mutate returns the i-th mutant of p, cycling through the five kinds.
func mutate(rng *rand.Rand, p []byte, i int) []byte {
	if i%5 == 0 || len(p) == 0 {
		return p[:rng.Intn(len(p)+1)]
	}
	m := slices.Clone(p)
	switch i % 5 {
	case 1:
		m = append(m, byte(rng.Intn(256)))
	case 2:
		for n := 1 + rng.Intn(3); n > 0; n-- {
			m[rng.Intn(len(m))] = byte(rng.Intn(256))
		}
	case 3:
		m[rng.Intn(len(m))] ^= 1 << rng.Intn(8)
	case 4:
		m[rng.Intn(len(m))] = []byte{0, 1, 0x7f, 0x80, 0xff}[rng.Intn(5)]
	}
	return m
}

func verdictCodecs(t *testing.T) []verdictCodec {
	box := geom.NewBox(geom.Point{0, 0, 0}, geom.Point{10, 10, 10})
	odd := geom.NewBox(geom.Point{-1.5, 2.25, 1e-300}, geom.Point{3, 4e10, 7})
	pt := geom.Point{1, -2, 3.5}
	rangeReq := wire.AppendRangeReq(nil, "d", box)
	joinReq := wire.AppendJoinReq(nil, "d", 2.5, 4, 0, "", []geom.Box{box, odd})
	updateReq := wire.AppendUpdateReq(nil, "d", []geom.ID{3, 9}, []geom.Box{odd})
	mal := wire.ErrMalformed
	return []verdictCodec{
		{"range", mal, [][]byte{rangeReq, wire.AppendQueryFlags(wire.AppendRangeReq(nil, "d", odd), wire.QueryFlagTrace)}, func(p []byte) (string, error) {
			name, b, fl, err := wire.DecodeRangeReq(p)
			return fmt.Sprint(name, b, fl), err
		}},
		{"point", mal, [][]byte{wire.AppendPointReq(nil, "d", pt), wire.AppendQueryFlags(wire.AppendPointReq(nil, "pts", pt), wire.QueryFlagTrace)}, func(p []byte) (string, error) {
			name, q, fl, err := wire.DecodePointReq(p)
			return fmt.Sprint(name, q, fl), err
		}},
		{"knn", mal, [][]byte{wire.AppendKNNReq(nil, "d", pt, 10), wire.AppendQueryFlags(wire.AppendKNNReq(nil, "d", pt, -3), wire.QueryFlagTrace)}, func(p []byte) (string, error) {
			name, q, k, fl, err := wire.DecodeKNNReq(p)
			return fmt.Sprint(name, q, k, fl), err
		}},
		{"join", mal, [][]byte{
			joinReq,
			wire.AppendJoinReq(nil, "d", 0, 0, wire.FlagCountOnly, "probe", nil),
			wire.AppendJoinReq(nil, "d", 1, 0, wire.FlagCountOnly|wire.FlagTrace, "", nil),
		}, func(p []byte) (string, error) {
			req, err := wire.DecodeJoinReq(p)
			return fmt.Sprintf("%v", req), err
		}},
		{"update", mal, [][]byte{updateReq, wire.AppendUpdateReq(nil, "d", nil, nil)}, func(p []byte) (string, error) {
			req, err := wire.DecodeUpdateReq(p)
			return fmt.Sprintf("%v", req), err
		}},
		{"dataset", mal, [][]byte{rangeReq, joinReq, updateReq}, func(p []byte) (string, error) {
			name, err := wire.RequestDataset(p)
			return fmt.Sprint(name), err
		}},
		{"ids", mal, [][]byte{wire.AppendIDsResp(nil, 7, []geom.ID{1, 5, 9, -2})}, func(p []byte) (string, error) {
			v, ids, err := wire.DecodeIDsResp(p)
			return fmt.Sprint(v, ids), err
		}},
		{"neighbors", mal, [][]byte{wire.AppendNeighborsResp(nil, 2, []geom.Neighbor{{ID: 3, Distance: 1.25}, {ID: -8, Distance: 0.1}})}, func(p []byte) (string, error) {
			v, nbrs, err := wire.DecodeNeighborsResp(p)
			return fmt.Sprint(v, nbrs), err
		}},
		{"count", mal, [][]byte{wire.AppendCountResp(nil, 3, 1234567)}, func(p []byte) (string, error) {
			v, n, err := wire.DecodeCountResp(p)
			return fmt.Sprint(v, n), err
		}},
		{"pairs", mal, [][]byte{wire.AppendPairsResp(nil, []geom.Pair{{A: 1, B: 2}, {A: -3, B: 4}})}, func(p []byte) (string, error) {
			pairs, err := wire.DecodePairsResp(p, nil)
			return fmt.Sprint(pairs), err
		}},
		{"joindone", mal, [][]byte{wire.AppendJoinDoneResp(nil, 4, 88)}, func(p []byte) (string, error) {
			v, n, err := wire.DecodeJoinDoneResp(p)
			return fmt.Sprint(v, n), err
		}},
		{"updatedone", mal, [][]byte{wire.AppendUpdateResp(nil, wire.UpdateResp{Version: 9, FirstID: -1, Inserted: 3, Deleted: 2, DeltaInserts: 40, DeltaTombstones: 7})}, func(p []byte) (string, error) {
			r, err := wire.DecodeUpdateResp(p)
			return fmt.Sprintf("%v", r), err
		}},
		{"catalog", mal, [][]byte{wire.AppendCatalogResp(nil, []wire.CatalogEntry{
			{Name: "d", Version: 3, Status: "ready", Objects: 7, StaticBytes: 512, DeltaInserts: 1, DeltaTombstones: 2, Persisted: true},
			{Name: "e", Status: "building"},
		})}, func(p []byte) (string, error) {
			entries, err := wire.DecodeCatalogResp(p)
			return fmt.Sprintf("%v", entries), err
		}},
		{"error", mal, [][]byte{wire.AppendErrorResp(nil, "unknown_dataset", `dataset "x" not loaded`)}, func(p []byte) (string, error) {
			code, msg, err := wire.DecodeErrorResp(p)
			return fmt.Sprintf("%q %q", code, msg), err
		}},
		{"trace", mal, [][]byte{rawTrace("9f3a-42", []int64{0, 1200, -1}, [5]int64{12345, 678, 9, 42, 3}, 1)}, func(p []byte) (string, error) {
			sp, err := wire.DecodeTrace(p)
			return fmt.Sprintf("%v", sp), err
		}},
		{"snapshot", snapshot.ErrCorrupt, [][]byte{snapshotSeed(t, 23), snapshotSeed(t, 0), tieredSnapshotSeed(t)}, func(p []byte) (string, error) {
			rec, err := snapshot.Unmarshal(p)
			if err != nil {
				return "", err
			}
			var b strings.Builder
			fmt.Fprintf(&b, "%q %d %d %d %v", rec.Name, rec.Version, rec.BuiltAt.UnixNano(), rec.NextID, rec.Tombs)
			for _, tier := range rec.Tiers {
				// The frozen tree prints as a struct whose arena is one
				// slice of objects, ID and box, whatever columns hold it.
				f := tier.Tree
				arena := make([]geom.Object, len(f.IDs))
				for i, id := range f.IDs {
					arena[i] = geom.Object{ID: id, Box: f.Boxes[i]}
				}
				fmt.Fprintf(&b, " | %d {%v %v %v %v %v} %v", int(f.Cfg.LocalJoin), f.Cfg, f.Height, f.Leaves, arena, f.Nodes, tier.IDs)
			}
			return b.String(), nil
		}},
	}
}

// rawTrace builds an OpTrace payload by hand — request ID, any number of
// phase slots, the five counters in wire order and the cancel byte — the
// way a peer built against a different phase list writes it; AppendTrace
// always writes trace.NumPhases slots.
func rawTrace(id string, phaseNs []int64, counters [5]int64, cancel byte) []byte {
	p := append(wire.AppendStr(nil, id), byte(len(phaseNs)))
	for _, ns := range phaseNs {
		p = binfmt.AppendU64(p, uint64(ns))
	}
	for _, n := range counters {
		p = binfmt.AppendU64(p, uint64(n))
	}
	return append(p, cancel)
}
