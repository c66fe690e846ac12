package testutil

import (
	"bytes"
	"slices"
	"testing"

	"touch"
	"touch/internal/geom"
)

// FuzzDeltaMerge: an arbitrary byte-driven script of inserts, deletes,
// scheduled folds (which stack and merge tiers by their rule) and full
// compactions applied to a Mutable must leave every query shape
// and the join bit-identical to an index rebuilt from the merged
// dataset, the tiers within their invariants and no ID issued twice — the adversarial counterpart of TestDifferentialMutable,
// on the same coarse coordinate lattice as the other fuzz targets so
// boundary touches, duplicate boxes and distance ties are common. A
// bulk op builds the large-delta regime: 64 inserts at once (several
// times the base), every other one tombstoned together with every
// third base ID, so dead inserts and dead base objects tie with live
// ones all through the answers.
func FuzzDeltaMerge(f *testing.F) {
	fuzzSeeds(f)
	f.Add([]byte{0x05, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88,
		0x99, 0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff, 0x01, 0x02})
	f.Add([]byte{0x17, 0x04, 0x31, 0x42, 0x53, 0x64, 0x75, 0x86, 0x97, 0xa8, 0xb9, 0xca, 0xdb, 0xec,
		0xfd, 0x0e, 0x1f, 0x20, 0x31, 0x42, 0x53, 0x64, 0x75, 0x86, 0x97, 0xa8, 0x04, 0x02, 0x09, 0x04})
	// Three bulk rounds, each folded by the scheduler, then deletes into
	// what they left and a last fold: a history of several tiers.
	f.Add([]byte{0x09, 0x30, 0x41, 0x52, 0x63, 0x74, 0x85, 0x96, 0xa7, 0xb8, 0xc9, 0xda, 0xeb, 0xfc,
		0x04, 0x05, 0x0a, 0x05, 0x10, 0x05, 0x02, 0x03, 0x02, 0x19, 0x02, 0x2f, 0x00, 0x21, 0x43, 0x65, 0x05})
	// Past two sealed runs (delta.RunLen inserts each): four bulk rounds
	// seal one, a fold takes it, nine more seal two on top and leave 64
	// unsealed, with single inserts and deletes into both after them.
	// Repeated bulk bytes insert the same boxes again, so Min[0] ties
	// straddle the runs.
	sealed := []byte{0x06, 0x2a}
	for i := 0; i < 6*bytesPerBox; i++ {
		sealed = append(sealed, byte(i*37+11))
	}
	f.Add(append(sealed, 0x04, 0x0a, 0x10, 0x16, 0x05, 0x04, 0x0a, 0x04, 0x0a, 0x1c, 0x04, 0x0a, 0x22, 0x04,
		0x00, 0x31, 0x42, 0x53, 0x64, 0x75, 0x86, 0x97, 0xa8, 0xb9, 0xca, 0xdb, 0xec, 0x02, 0x41, 0x02, 0x07))
	// The tombstone filter's bounds: a base of 12 and eight inserts, then
	// tombstones on the last two inserts (above every base hit; the last
	// insert covers the lattice, so it is the last ID of every answer that
	// reaches it), on the first three base IDs (below every insert; 0
	// covers the lattice, the first ID of those answers), interleaved
	// through base and inserts, and spread over a base of 23 with inserts
	// above it.
	f.Add(tombSeed(12, 0x06, 0x06, 0x06, 0x06, 0x02, 19, 0x02, 18))
	f.Add(tombSeed(12, 0x06, 0x06, 0x06, 0x06, 0x02, 0, 0x02, 1))
	f.Add(tombSeed(12, 0x06, 0x06, 0x06, 0x06, 0x02, 3, 0x02, 13, 0x02, 15, 0x02, 9))
	f.Add(tombSeed(23, 0x07, 0x06, 0x02, 5, 0x02, 20, 0x02, 1, 0x02, 14, 0x02, 17))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		base, off := fuzzDataset(data, 2, int(data[0])%24)
		m, err := touch.NewMutable(base, touch.TOUCHConfig{})
		if err != nil {
			t.Fatal(err)
		}
		m.SetCompactThreshold(0)

		// Script: each leading byte picks an op, consuming operands
		// from the remaining stream.
		ops, issued := 0, geom.ID(len(base))-1
		inserted := func(ids []geom.ID) {
			if len(ids) > 0 && ids[0] <= issued {
				t.Fatalf("insert received ID %d, IDs up to %d have been issued", ids[0], issued)
			}
			if len(ids) > 0 {
				issued = ids[len(ids)-1]
			}
		}
		for off < len(data) && ops < 24 {
			op := data[off]
			off++
			ops++
			switch op % 6 {
			case 5: // the scheduled fold
				foldTail(t, m)
			case 4: // bulk: 64 inserts drawn from the whole stream, half of them and a third of the base deleted
				stream := bytes.Repeat(data, 1+(64*bytesPerBox)/len(data))
				boxes := make([]geom.Box, 64)
				for j := range boxes {
					boxes[j] = fuzzBox(stream, (j*bytesPerBox+int(op))%(len(stream)-bytesPerBox+1))
				}
				ids, err := m.Insert(boxes)
				if err != nil {
					t.Fatal(err)
				}
				inserted(ids)
				var del []geom.ID
				for j := 0; j < len(ids); j += 2 {
					del = append(del, ids[j], geom.ID(j/2*3))
				}
				m.Delete(del)
			case 0, 1: // insert up to 3 boxes
				n := min(int(op/4)%3+1, (len(data)-off)/bytesPerBox)
				boxes := make([]geom.Box, 0, n)
				for j := 0; j < n; j++ {
					boxes = append(boxes, fuzzBox(data, off))
					off += bytesPerBox
				}
				ids, err := m.Insert(boxes)
				if err != nil {
					t.Fatal(err)
				}
				inserted(ids)
			case 2: // delete an ID derived from the stream, out of the base or any tier
				if off >= len(data) {
					break
				}
				m.Delete([]geom.ID{geom.ID(data[off]) % 64, geom.ID(data[off]) * 2})
				off++
			default:
				m.Compact()
			}
		}

		checkTiers(t, m, false)
		merged := m.Dataset()
		rebuilt := touch.BuildIndex(merged, touch.TOUCHConfig{})
		boxes, points, ks := QueryWorkload(int64(len(data))*31+int64(data[1]), 4)
		for i := range boxes {
			got, err := m.View().RangeQuery(boxes[i])
			if err != nil {
				t.Fatal(err)
			}
			want, _ := rebuilt.RangeQuery(boxes[i])
			if !slices.Equal(got, want) {
				t.Fatalf("RangeQuery diverges from rebuild: got %v, want %v", got, want)
			}
			p := points[i]
			gotK, err := m.View().KNN(p, ks[i])
			if err != nil {
				t.Fatal(err)
			}
			wantK, _ := rebuilt.KNN(p, ks[i])
			if !slices.Equal(gotK, wantK) {
				t.Fatalf("KNN diverges from rebuild: got %v, want %v", gotK, wantK)
			}
		}
		probe, _ := fuzzDataset(bytes.Repeat(data, 1+120/max(len(data), 1)), 0, 8)
		res := mustJoin(t, m.View(), probe, nil)
		wantRes := mustJoin(t, rebuilt, probe, nil)
		got, want := PairSet(res.Pairs), PairSet(wantRes.Pairs)
		if !slices.Equal(got, want) {
			t.Fatalf("Join diverges from rebuild: %d pairs, want %d", len(got), len(want))
		}
	})
}

// tombSeed returns a FuzzDeltaMerge script: a base of n boxes, then ops,
// where an insert op (0x06, 0x07: two boxes) is followed by its boxes and
// a delete op (0x02) by its byte as written. The base's boxes alternate
// between the whole lattice and one cell of it, starting with the whole,
// an insert op's are a cell and then the whole, so every query that
// reaches the lattice answers with half the generation or more, and the
// query seed (data[1]) is the first that puts two of the four range
// boxes there.
func tombSeed(n byte, ops ...byte) []byte {
	box := func(i int) []byte {
		lo, hi := byte(0), byte(63)
		if i%2 == 1 {
			lo = byte(i*7) % 62
			hi = lo + 1
		}
		return []byte{lo, 0, lo, 0, lo, 0, hi, 0, hi, 0, hi, 0}
	}
	data := []byte{n, 0}
	for i := 0; i < int(n); i++ {
		data = append(data, box(i)...)
	}
	for i := 0; i < len(ops); i++ {
		data = append(data, ops[i])
		switch ops[i] {
		case 0x06, 0x07:
			data = append(append(data, box(2*len(data)+1)...), box(0)...)
		case 0x02:
			i++
			data = append(data, ops[i])
		}
	}
	for seed := 0; seed < 256; seed++ {
		boxes, _, _ := QueryWorkload(int64(len(data))*31+int64(seed), 4)
		reach := 0
		for _, b := range boxes {
			if b.Min[0] <= 315 && b.Min[1] <= 315 && b.Min[2] <= 315 {
				reach++
			}
		}
		if reach >= 2 {
			data[1] = byte(seed)
			break
		}
	}
	return data
}
