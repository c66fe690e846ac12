package testutil

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"touch/internal/core"
	"touch/internal/geom"
	"touch/internal/nl"
	"touch/internal/stats"
)

// bytesPerEdit is one edit of FuzzThaw: a node or arena index, a field
// and eight raw bytes for it.
const bytesPerEdit = 2 + 1 + 8

// thawEdit encodes one edit for the seed corpus.
func thawEdit(index uint16, field byte, raw uint64) []byte {
	b := binary.LittleEndian.AppendUint16(nil, index)
	return binary.LittleEndian.AppendUint64(append(b, field), raw)
}

// FuzzThaw reaches what FuzzSnapshotDecode rarely does, the structural
// validation behind the checksums: a valid frozen tree is edited — any
// field of any node overwritten with raw bytes, arena objects swapped,
// nodes dropped or repeated — and core.Thaw must either reject it or
// return the tree the edited form describes: one that freezes back to
// its input and answers a universe-sized range query, a kNN search and a
// join as the nested loop over its arena does. Never a panic, in Thaw or
// in a query after it. The seed dataset has integer coordinates, so a swap
// inside one leaf keeps every extent sum exact and thaws: the tree over an
// arena order Build never made.
func FuzzThaw(f *testing.F) {
	base := core.Build(seedDataset(160), core.Config{Partitions: 12, Fanout: 3}).Freeze()
	inner, leaf := uint16(0), uint16(len(base.Nodes)-1)
	f.Add([]byte{})
	f.Add(thawEdit(3, 10, 4))                                     // arena swap 3 <-> 4: inside one leaf
	f.Add(thawEdit(0, 10, uint64(len(base.Arena)-1)))             // across the tree
	f.Add(thawEdit(inner, 6, 1))                                  // the root an only child's parent
	f.Add(thawEdit(inner, 6, uint64(len(base.Nodes))))            // more children than nodes
	f.Add(thawEdit(inner, 6, math.MaxUint32))                     // a negative count
	f.Add(thawEdit(leaf, 6, 1))                                   // a child past the last node
	f.Add(thawEdit(leaf, 7, uint64(base.Nodes[leaf].AStart+1)))   // a gap between siblings
	f.Add(thawEdit(leaf, 8, uint64(base.Nodes[leaf].AEnd+1)))     // past the arena
	f.Add(thawEdit(inner, 8, uint64(base.Nodes[inner].AEnd-1)))   // ends before its children
	f.Add(thawEdit(leaf, 0, math.Float64bits(math.NaN())))        // a NaN corner
	f.Add(thawEdit(inner, 9, math.Float64bits(math.Inf(1))))      // an infinite extent sum
	f.Add(thawEdit(leaf, 11, 0))                                  // the last node dropped
	f.Add(append(thawEdit(leaf, 12, 0), thawEdit(2, 12, 0)...))   // nodes repeated at the end
	f.Add(append(thawEdit(0, 13, 40), thawEdit(0, 14, 1<<40)...)) // height and leaf count

	f.Fuzz(func(t *testing.T, data []byte) {
		in := &core.Frozen{Cfg: base.Cfg, Height: base.Height, Leaves: base.Leaves,
			Arena: slices.Clone(base.Arena), Nodes: slices.Clone(base.Nodes)}
		for ; len(data) >= bytesPerEdit && len(in.Nodes) > 0; data = data[bytesPerEdit:] {
			index, raw := int(binary.LittleEndian.Uint16(data)), binary.LittleEndian.Uint64(data[3:])
			n := &in.Nodes[index%len(in.Nodes)]
			switch field := data[2] % 15; field {
			case 0, 1, 2:
				n.MBR.Min[field] = math.Float64frombits(raw)
			case 3, 4, 5:
				n.MBR.Max[field-3] = math.Float64frombits(raw)
			case 6:
				n.Children = int32(raw)
			case 7:
				n.AStart = int32(raw)
			case 8:
				n.AEnd = int32(raw)
			case 9:
				n.ExtSumA = math.Float64frombits(raw)
			case 10:
				i, j := index%len(in.Arena), int(raw%uint64(len(in.Arena)))
				in.Arena[i], in.Arena[j] = in.Arena[j], in.Arena[i]
			case 11:
				in.Nodes = in.Nodes[:len(in.Nodes)-1]
			case 12:
				in.Nodes = append(in.Nodes, *n)
			case 13:
				in.Height = int(int32(raw))
			case 14:
				in.Leaves = int(int32(raw))
			}
		}
		want := &core.Frozen{Cfg: in.Cfg, Height: in.Height, Leaves: in.Leaves,
			Arena: slices.Clone(in.Arena), Nodes: slices.Clone(in.Nodes)}
		tr, err := core.Thaw(in)
		if err != nil {
			return // rejected — the only acceptable failure mode
		}
		if got := tr.Freeze(); got.Cfg != want.Cfg || got.Height != want.Height || got.Leaves != want.Leaves ||
			!slices.Equal(got.Nodes, want.Nodes) || !slices.Equal(got.Arena, want.Arena) {
			t.Fatalf("the thawed tree freezes to something else than it was thawed from:\n got %+v\nwant %+v", got, want)
		}
		ds := geom.Dataset(want.Arena)
		p, c := tr.NewProbe(), stats.Counters{}
		universe := geom.NewBox(geom.Point{-1e9, -1e9, -1e9}, geom.Point{1e9, 1e9, 1e9})
		if got, want := p.RangeQuery(universe, &c), nl.RangeQuery(ds, universe); !slices.Equal(got, want) {
			t.Fatalf("universe range query: %d ids, nested loop %d", len(got), len(want))
		}
		q := geom.NewBox(geom.Point{20, 20, 20}, geom.Point{60, 70, 80})
		if got, want := p.RangeQuery(q, &c), nl.RangeQuery(ds, q); !slices.Equal(got, want) {
			t.Fatalf("range query %v: got %v, nested loop %v", q, got, want)
		}
		if got, want := p.KNN(q.Max, 7, &c), nl.KNN(ds, q.Max, 7); !slices.Equal(got, want) {
			t.Fatalf("knn: got %v, nested loop %v", got, want)
		}
		probe := seedDataset(40).Expand(3)
		sink, ref := &stats.CollectSink{}, &stats.CollectSink{}
		p.Assign(probe, nil, &c)
		p.JoinPhase(nil, &c, sink)
		nl.Join(ds, probe, nil, &stats.Counters{}, ref)
		if !slices.Equal(PairSet(sink.Pairs), PairSet(ref.Pairs)) {
			t.Fatalf("join: %d pairs, nested loop %d", len(sink.Pairs), len(ref.Pairs))
		}
	})
}
