package touch

import (
	"bytes"
	"errors"
	"testing"
	"time"
)

func TestSnapshotRoundtripServesIdentically(t *testing.T) {
	a := GenerateClustered(6000, 42)
	ix := BuildIndex(a, TOUCHConfig{Partitions: 128, Workers: 2})
	info := SnapshotInfo{Name: "city", Version: 4, BuiltAt: time.Unix(1712000000, 0).UTC()}

	var buf bytes.Buffer
	n, err := WriteSnapshot(&buf, info, a, ix)
	if err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("wrote %d, buffer holds %d", n, buf.Len())
	}

	got, ds, loaded, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
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
	want := ix.Join(b, nil)
	have := loaded.Join(b, nil)
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
	res := loaded.Join(GenerateUniform(100, 1), nil)
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
