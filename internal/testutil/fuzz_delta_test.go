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
		res := m.View().Join(probe, nil)
		wantRes := rebuilt.Join(probe, nil)
		got, want := PairSet(res.Pairs), PairSet(wantRes.Pairs)
		if !slices.Equal(got, want) {
			t.Fatalf("Join diverges from rebuild: %d pairs, want %d", len(got), len(want))
		}
	})
}
