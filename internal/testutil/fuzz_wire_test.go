package testutil

import (
	"bytes"
	"slices"
	"testing"

	"touch/internal/geom"
	"touch/internal/wire"
)

// wireSeed builds a valid frame stream holding one frame per request
// codec, so mutations explore the framing and payload decoders instead
// of bouncing off the length check.
func wireSeed(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := wire.NewWriter(&buf)
	box := geom.NewBox(geom.Point{0, 0, 0}, geom.Point{10, 10, 10})
	frames := []struct {
		op      byte
		payload []byte
	}{
		{wire.OpRange, wire.AppendRangeReq(nil, "d", box)},
		{wire.OpRange, wire.AppendRangeReqFlags(nil, "d", box, wire.QueryFlagTrace)},
		{wire.OpPoint, wire.AppendPointReq(nil, "d", geom.Point{1, 2, 3})},
		{wire.OpKNN, wire.AppendKNNReq(nil, "d", geom.Point{4, 5, 6}, 10)},
		{wire.OpJoin, wire.AppendJoinReq(nil, "d", 2.5, 4, false, "", []geom.Box{box, box})},
		{wire.OpJoin, wire.AppendJoinReq(nil, "d", 0, 0, true, "probe", nil)},
		{wire.OpJoin, wire.AppendJoinReqFlags(nil, "d", 0, 0, wire.FlagTrace, "probe", nil)},
		{wire.OpUpdate, wire.AppendUpdateReq(nil, "d", []geom.ID{3, 9}, []geom.Box{box})},
		{wire.OpCancel, nil},
		{wire.OpCatalog, nil},
		{wire.OpCatalogResp, wire.AppendCatalogResp(nil, []wire.CatalogEntry{
			{Name: "d", Version: 3, Status: "ready", Objects: 7, StaticBytes: 512, DeltaInserts: 1, DeltaTombstones: 2, Persisted: true},
			{Name: "e", Status: "building"},
		})},
	}
	for i, fr := range frames {
		if err := w.WriteFrame(fr.op, uint32(i+1), fr.payload); err != nil {
			t.Fatalf("seed frame %d: %v", i, err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("seed flush: %v", err)
	}
	return buf.Bytes()
}

// FuzzWireDecode: the wire framing and every request codec must treat
// arbitrary bytes as either a clean frame stream or an error — never a
// panic, never an unbounded allocation. Any payload that decodes is
// round-tripped through its Append twin, re-decoded and re-encoded:
// the two encodings must match byte for byte (encoding is canonical, so
// byte equality is the NaN-safe way to say "same value") — the property
// the pipelined server and client both lean on. And on any payload a
// request decoder accepts, RequestDataset — all a relay reads of it —
// returns the same name bytes.
func FuzzWireDecode(f *testing.F) {
	f.Add([]byte{})
	valid := wireSeed(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2]) // torn mid-frame
	f.Add(valid[:3])            // torn inside a length prefix
	flipped := slices.Clone(valid)
	flipped[1] ^= 0x80 // a bit flip in the first length prefix
	f.Add(flipped)
	huge := slices.Clone(valid)
	huge[0], huge[1], huge[2], huge[3] = 0xFF, 0xFF, 0xFF, 0xFF // oversized length
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		r := wire.NewReader(bytes.NewReader(data), wire.DefaultMaxFrame)
		for {
			op, _, payload, err := r.ReadFrame()
			if err != nil {
				return // EOF or malformed — both fine; panics are the bug
			}
			routed, routeErr := wire.RequestDataset(payload) // must not panic, whatever the opcode
			sameName := func(name []byte) {
				if routeErr != nil || !bytes.Equal(routed, name) {
					t.Fatalf("op 0x%02x: RequestDataset = %q, %v; the request decoder reads %q", op, routed, routeErr, name)
				}
			}
			var enc, enc2 []byte
			switch op {
			case wire.OpRange:
				name, box, flags, err := wire.DecodeRangeReq(payload)
				if err != nil {
					continue
				}
				sameName(name)
				enc = wire.AppendRangeReqFlags(nil, string(name), box, flags)
				n2, b2, fl2, err := wire.DecodeRangeReq(enc)
				if err != nil {
					t.Fatalf("range re-decode: %v", err)
				}
				enc2 = wire.AppendRangeReqFlags(nil, string(n2), b2, fl2)
			case wire.OpPoint:
				name, pt, flags, err := wire.DecodePointReq(payload)
				if err != nil {
					continue
				}
				sameName(name)
				enc = wire.AppendPointReqFlags(nil, string(name), pt, flags)
				n2, p2, fl2, err := wire.DecodePointReq(enc)
				if err != nil {
					t.Fatalf("point re-decode: %v", err)
				}
				enc2 = wire.AppendPointReqFlags(nil, string(n2), p2, fl2)
			case wire.OpKNN:
				name, pt, k, flags, err := wire.DecodeKNNReq(payload)
				if err != nil {
					continue
				}
				sameName(name)
				enc = wire.AppendKNNReqFlags(nil, string(name), pt, k, flags)
				n2, p2, k2, fl2, err := wire.DecodeKNNReq(enc)
				if err != nil {
					t.Fatalf("knn re-decode: %v", err)
				}
				enc2 = wire.AppendKNNReqFlags(nil, string(n2), p2, k2, fl2)
			case wire.OpJoin:
				jr, err := wire.DecodeJoinReq(payload)
				if err != nil {
					continue
				}
				sameName(jr.Name)
				if len(jr.Boxes) > len(payload)/48 {
					t.Fatalf("join decode conjured %d boxes from a %d-byte payload", len(jr.Boxes), len(payload))
				}
				joinFlags := func(r wire.JoinReq) byte {
					var fl byte
					if r.CountOnly {
						fl |= wire.FlagCountOnly
					}
					if r.Trace {
						fl |= wire.FlagTrace
					}
					return fl
				}
				enc = wire.AppendJoinReqFlags(nil, string(jr.Name), jr.Eps, jr.Workers, joinFlags(jr), string(jr.ProbeName), jr.Boxes)
				jr2, err := wire.DecodeJoinReq(enc)
				if err != nil {
					t.Fatalf("join re-decode: %v", err)
				}
				enc2 = wire.AppendJoinReqFlags(nil, string(jr2.Name), jr2.Eps, jr2.Workers, joinFlags(jr2), string(jr2.ProbeName), jr2.Boxes)
			case wire.OpUpdate:
				ur, err := wire.DecodeUpdateReq(payload)
				if err != nil {
					continue
				}
				sameName(ur.Name)
				enc = wire.AppendUpdateReq(nil, string(ur.Name), ur.Deletes, ur.Inserts)
				ur2, err := wire.DecodeUpdateReq(enc)
				if err != nil {
					t.Fatalf("update re-decode: %v", err)
				}
				enc2 = wire.AppendUpdateReq(nil, string(ur2.Name), ur2.Deletes, ur2.Inserts)
			case wire.OpCatalogResp:
				entries, err := wire.DecodeCatalogResp(payload)
				if err != nil {
					continue
				}
				if len(entries) > len(payload)/37 {
					t.Fatalf("catalog decode conjured %d entries from a %d-byte payload", len(entries), len(payload))
				}
				enc = wire.AppendCatalogResp(nil, entries)
				e2, err := wire.DecodeCatalogResp(enc)
				if err != nil {
					t.Fatalf("catalog re-decode: %v", err)
				}
				enc2 = wire.AppendCatalogResp(nil, e2)
			default:
				continue
			}
			if !bytes.Equal(enc, enc2) {
				t.Fatalf("op 0x%02x round-trip not canonical: % x vs % x", op, enc, enc2)
			}
		}
	})
}
