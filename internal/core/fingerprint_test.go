package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"touch/internal/datagen"
	"touch/internal/geom"
)

// fingerprint hashes everything a frozen tree says about the hierarchy:
// the configuration, height and leaf count, every field of every node in
// DFS pre-order — floats by their bits — and the arena's IDs in order.
func fingerprint(f *Frozen) string {
	h := sha256.New()
	put := func(vs ...uint64) {
		var b [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
	}
	put(uint64(f.Cfg.Partitions), uint64(f.Cfg.Fanout), uint64(f.Cfg.LocalCells), math.Float64bits(f.Cfg.CellFactor),
		uint64(f.Cfg.LocalJoin), 0, uint64(f.Height), uint64(f.Leaves), uint64(len(f.Nodes)))
	for i := range f.Nodes {
		n := &f.Nodes[i]
		for d := 0; d < geom.Dims; d++ {
			put(math.Float64bits(n.MBR.Min[d]), math.Float64bits(n.MBR.Max[d]))
		}
		put(uint64(n.Children), uint64(n.AStart), uint64(n.AEnd), math.Float64bits(n.ExtSumA))
	}
	put(uint64(len(f.IDs)))
	for _, id := range f.IDs {
		put(uint64(id))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestBuildFingerprint pins the tree Build makes, bit for bit, to
// constants recorded while the hierarchy was still a graph of nodes with
// the table copied from it: the commit that made the table the tree did
// not edit them. A builder that unions a node's children last to first,
// sums their extents in another order or numbers a parent after its
// children changes every row with an inner node.
func TestBuildFingerprint(t *testing.T) {
	for _, tc := range []struct {
		name       string
		ds         geom.Dataset
		partitions int
		want       [3]string // fanout 2, 3, 7
	}{
		{"uniform", datagen.UniformSet(5000, 11).Expand(3), 0, [3]string{
			"67614a907e41e74667f2423448bbb0b57aababbc608f5c1e6d82ae8489f84b78",
			"5eb6b88341b486363b845570ee646ccbf2d1656ad49b5c53a894b6c1b255c489",
			"8580f189a876c959acf64522217631db40b65de5988457d9c5cbfa6e00ad7a81",
		}},
		{"gaussian", datagen.GaussianSet(4000, 12), 200, [3]string{
			"411bb8a2f0b48af8b805a96043e65ce2a749a9018ba86157248780f87fba5c9e",
			"97050d3b76ecb708f318d3121c970281f9a7c4bf1fc28e836a9512431ac2a683",
			"2921e4d2d38d1b2b4094685fb3a9c2998336b789500d5de47bc41b36e762b048",
		}},
		{"clustered", datagen.ClusteredSet(3000, 13), 64, [3]string{
			"a916e40abd75b7e67a308eb1be953cfdf04c92a1c54491b953e6af909fefffba",
			"2b3576033cda349fd15a63934c58163a6e36ab53d9a2e7b8b96a4a8e5bc749e1",
			"84f787d42d8ba223fbc6a358c4d7847937070a7f3379d97b546c9b7ea78fe009",
		}},
		{"all centres equal", sameCentre(2000, 14), 64, [3]string{
			"cde10fc6e1d2aaf75453a45b709bf4a02e9be4dbc30d12e32440a0257d48a9fc",
			"9db723ee581d4c20854cd6501ce70fe74de97d462a4bf6cd9b885619c371bebc",
			"dae981adb1cc0287a3bd3a74e5dfaa52691a550e7234535b14378ba1b19eaeaf",
		}},
		{"fewer objects than partitions", datagen.UniformSet(300, 15), 0, [3]string{
			"f98b84e74e83bb09efab2c99433e04234beacca7ee4aaac3c2fe294533960e18",
			"89c3ae61d623b192b2b1bb744f6566bd502b8f09a9befea8661786d206a13ede",
			"24997a490a7cf3d2784de817ce9511d076cbfbb93aa16d3f5d5158d200f7e4ad",
		}},
		// 1,024 objects fill the default partitions one each; one more
		// doubles the bucket size.
		{"one over a bucket boundary", datagen.UniformSet(1025, 19), 0, [3]string{
			"299cbb488c7b35975416f770aa5b6ce5dd0fe38da39e89090541dabbbe9462f6",
			"6e4b8cd3a00156c361ffad210ee0b05aae9808252182522800ae29eb899c86af",
			"3173fd514f41ff60cb0adb384a61a94de3a2f5de7f92d95a88f78c4bb5190df8",
		}},
		{"one object", datagen.UniformSet(1, 16), 0, [3]string{
			"2bdcde8202e7d8b763f2a1c081c0b940837f06e48f885928767c72c408b6dd08",
			"816a262940aacb81b7e388f1adf7fe83092e49bdde7a30ffd03274f44b26e033",
			"c8721c35f1155d86bd70a21d8080a57f3d0bf9e6accef33a83b509426054becc",
		}},
		{"empty", nil, 0, [3]string{
			"7d1bd59e83c8a333a3a41b25e33232d27b48bd3673d9fefb42a0d0e85cd59b2b",
			"9b1574efb4fcf7de79aaae31ad9061b21fa47ac045d9346d7359efa6b904e052",
			"ac838d855fe98084867cc2a863edc6dc8561e2a5bb3be754d1ba32148f4d8863",
		}},
	} {
		for i, fanout := range []int{2, 3, 7} {
			tr := Build(tc.ds, Config{Partitions: tc.partitions, Fanout: fanout})
			if got := fingerprint(tr.Freeze()); got != tc.want[i] {
				t.Errorf("%s/fanout %d: %d nodes, height %d, fingerprint %s, want %s", tc.name, fanout, tr.Nodes, tr.Height, got, tc.want[i])
			}
		}
	}
}

// TestBuildExpandedFingerprint: BuildExpanded grows the boxes in its own
// arena and sorts by the grown boxes' centres, so its tree is bit for
// bit the one Build makes from the expanded copy. A grown centre need
// not be the original one — it can round differently, and at ε = +Inf
// it is NaN in every dimension — so sorting by the original centres
// would build another tree.
//
// The tree does not depend on the worker count either: the inputs of
// 2^17 objects and more build on two and three goroutines (buildFloor),
// and every tree equals the expanded copy's built on one.
func TestBuildExpandedFingerprint(t *testing.T) {
	for _, tc := range []struct {
		name string
		ds   geom.Dataset
		cfg  Config
	}{
		{"uniform", datagen.UniformSet(3000, 21), Config{Partitions: 64}},
		{"all centres equal", sameCentre(2000, 22), Config{Partitions: 64}},
		{"one object", datagen.UniformSet(1, 23), Config{Partitions: 64}},
		{"empty", nil, Config{Partitions: 64}},
		{"uniform 3·2^16", datagen.UniformSet(3<<16, 24), Config{}},
		{"all centres equal 2^17", sameCentre(1<<17, 25), Config{}},
	} {
		for _, eps := range []float64{0, 0.1, 2.5, math.Inf(1)} {
			expanded := tc.ds.Expand(eps)
			want := fingerprint(BuildExpanded(expanded, 0, tc.cfg, 1).Freeze())
			if got := fingerprint(Build(expanded, tc.cfg).Freeze()); got != want {
				t.Errorf("%s eps=%g: Build's fingerprint %s, on one worker %s", tc.name, eps, got, want)
			}
			for _, workers := range []int{1, 2, 8} {
				if got := fingerprint(BuildExpanded(tc.ds, eps, tc.cfg, workers).Freeze()); got != want {
					t.Errorf("%s eps=%g workers=%d: fingerprint %s, the expanded copy's %s", tc.name, eps, workers, got, want)
				}
			}
		}
	}
}
