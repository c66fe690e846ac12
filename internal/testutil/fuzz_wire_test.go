package testutil

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"touch/internal/geom"
	"touch/internal/trace"
	"touch/internal/wire"
)

// wireSeed builds a valid frame stream holding one frame per request
// and response codec, so mutations explore the framing and payload
// decoders instead of bouncing off the length check.
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
		{wire.OpRange, wire.AppendQueryFlags(wire.AppendRangeReq(nil, "d", box), wire.QueryFlagTrace)},
		{wire.OpPoint, wire.AppendPointReq(nil, "d", geom.Point{1, 2, 3})},
		{wire.OpKNN, wire.AppendKNNReq(nil, "d", geom.Point{4, 5, 6}, 10)},
		{wire.OpJoin, wire.AppendJoinReq(nil, "d", 2.5, 4, 0, "", []geom.Box{box, box})},
		{wire.OpJoin, wire.AppendJoinReq(nil, "d", 0, 0, wire.FlagCountOnly, "probe", nil)},
		{wire.OpJoin, wire.AppendJoinReq(nil, "d", 0, 0, wire.FlagTrace, "probe", nil)},
		{wire.OpUpdate, wire.AppendUpdateReq(nil, "d", []geom.ID{3, 9}, []geom.Box{box})},
		{wire.OpCancel, nil},
		{wire.OpCatalog, nil},
		{wire.OpCatalogResp, wire.AppendCatalogResp(nil, []wire.CatalogEntry{
			{Name: "d", Version: 3, Status: "ready", Objects: 7, StaticBytes: 512, DeltaInserts: 1, DeltaTombstones: 2, Persisted: true},
			{Name: "e", Status: "building"},
		})},
		{wire.OpIDs, wire.AppendIDsResp(nil, 3, []geom.ID{1, 5, -2})},
		{wire.OpNeighbors, wire.AppendNeighborsResp(nil, 3, []geom.Neighbor{{ID: 4, Distance: 1.5}, {ID: 9, Distance: 2}})},
		{wire.OpCount, wire.AppendCountResp(nil, 3, 42)},
		{wire.OpPairs, wire.AppendPairsResp(nil, []geom.Pair{{A: 1, B: 2}, {A: 3, B: 4}})},
		{wire.OpJoinDone, wire.AppendJoinDoneResp(nil, 3, 2)},
		{wire.OpUpdateDone, wire.AppendUpdateResp(nil, wire.UpdateResp{Version: 3, FirstID: 10, Inserted: 1, Deleted: 2, DeltaInserts: 5, DeltaTombstones: 6})},
		{wire.OpError, wire.AppendErrorResp(nil, "unknown_dataset", `dataset "x" not loaded`)},
		{wire.OpTrace, rawTrace("r-1", []int64{0, 120, 7}, [5]int64{9, 0, 0, 2, 0}, 1)}, // a peer with three phases
		{wire.OpTrace, wire.AppendTrace(nil, &trace.Span{RequestID: "r-2", Durations: [trace.NumPhases]time.Duration{0, 120, 7}, Comparisons: 9, Results: 2, Cancel: 1})},
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

// FuzzWireDecode: the wire framing and every request and response codec
// must treat arbitrary bytes as either a clean frame stream or an error —
// never a panic, never an unbounded allocation (the client decodes the
// responses off the network, and the router relays them). Any payload that decodes is
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
				enc = wire.AppendQueryFlags(wire.AppendRangeReq(nil, string(name), box), flags)
				n2, b2, fl2, err := wire.DecodeRangeReq(enc)
				if err != nil {
					t.Fatalf("range re-decode: %v", err)
				}
				enc2 = wire.AppendQueryFlags(wire.AppendRangeReq(nil, string(n2), b2), fl2)
			case wire.OpPoint:
				name, pt, flags, err := wire.DecodePointReq(payload)
				if err != nil {
					continue
				}
				sameName(name)
				enc = wire.AppendQueryFlags(wire.AppendPointReq(nil, string(name), pt), flags)
				n2, p2, fl2, err := wire.DecodePointReq(enc)
				if err != nil {
					t.Fatalf("point re-decode: %v", err)
				}
				enc2 = wire.AppendQueryFlags(wire.AppendPointReq(nil, string(n2), p2), fl2)
			case wire.OpKNN:
				name, pt, k, flags, err := wire.DecodeKNNReq(payload)
				if err != nil {
					continue
				}
				sameName(name)
				enc = wire.AppendQueryFlags(wire.AppendKNNReq(nil, string(name), pt, k), flags)
				n2, p2, k2, fl2, err := wire.DecodeKNNReq(enc)
				if err != nil {
					t.Fatalf("knn re-decode: %v", err)
				}
				enc2 = wire.AppendQueryFlags(wire.AppendKNNReq(nil, string(n2), p2, k2), fl2)
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
				enc = wire.AppendJoinReq(nil, string(jr.Name), jr.Eps, jr.Workers, joinFlags(jr), string(jr.ProbeName), jr.Boxes)
				jr2, err := wire.DecodeJoinReq(enc)
				if err != nil {
					t.Fatalf("join re-decode: %v", err)
				}
				enc2 = wire.AppendJoinReq(nil, string(jr2.Name), jr2.Eps, jr2.Workers, joinFlags(jr2), string(jr2.ProbeName), jr2.Boxes)
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
			case wire.OpIDs:
				v, ids, err := wire.DecodeIDsResp(payload)
				if err != nil {
					continue
				}
				if len(ids) > len(payload)/4 {
					t.Fatalf("ids decode conjured %d ids from a %d-byte payload", len(ids), len(payload))
				}
				enc = wire.AppendIDsResp(nil, v, ids)
				v2, ids2, err := wire.DecodeIDsResp(enc)
				if err != nil {
					t.Fatalf("ids re-decode: %v", err)
				}
				enc2 = wire.AppendIDsResp(nil, v2, ids2)
			case wire.OpNeighbors:
				v, nbrs, err := wire.DecodeNeighborsResp(payload)
				if err != nil {
					continue
				}
				if len(nbrs) > len(payload)/12 {
					t.Fatalf("neighbors decode conjured %d entries from a %d-byte payload", len(nbrs), len(payload))
				}
				enc = wire.AppendNeighborsResp(nil, v, nbrs)
				v2, nbrs2, err := wire.DecodeNeighborsResp(enc)
				if err != nil {
					t.Fatalf("neighbors re-decode: %v", err)
				}
				enc2 = wire.AppendNeighborsResp(nil, v2, nbrs2)
			case wire.OpCount, wire.OpJoinDone:
				decode, encode := wire.DecodeCountResp, wire.AppendCountResp
				if op == wire.OpJoinDone {
					decode, encode = wire.DecodeJoinDoneResp, wire.AppendJoinDoneResp
				}
				v, n, err := decode(payload)
				if err != nil {
					continue
				}
				enc = encode(nil, v, n)
				v2, n2, err := decode(enc)
				if err != nil {
					t.Fatalf("op 0x%02x re-decode: %v", op, err)
				}
				enc2 = encode(nil, v2, n2)
			case wire.OpPairs:
				pairs, err := wire.DecodePairsResp(payload, nil)
				if err != nil {
					continue
				}
				if len(pairs) > len(payload)/8 {
					t.Fatalf("pairs decode conjured %d pairs from a %d-byte payload", len(pairs), len(payload))
				}
				enc = wire.AppendPairsResp(nil, pairs)
				pairs2, err := wire.DecodePairsResp(enc, nil)
				if err != nil {
					t.Fatalf("pairs re-decode: %v", err)
				}
				enc2 = wire.AppendPairsResp(nil, pairs2)
			case wire.OpUpdateDone:
				r, err := wire.DecodeUpdateResp(payload)
				if err != nil {
					continue
				}
				enc = wire.AppendUpdateResp(nil, r)
				r2, err := wire.DecodeUpdateResp(enc)
				if err != nil {
					t.Fatalf("update-done re-decode: %v", err)
				}
				enc2 = wire.AppendUpdateResp(nil, r2)
			case wire.OpError:
				code, msg, err := wire.DecodeErrorResp(payload)
				if err != nil {
					continue
				}
				enc = wire.AppendErrorResp(nil, code, msg)
				code2, msg2, err := wire.DecodeErrorResp(enc)
				if err != nil {
					t.Fatalf("error re-decode: %v", err)
				}
				enc2 = wire.AppendErrorResp(nil, code2, msg2)
			case wire.OpTrace:
				sp, err := wire.DecodeTrace(payload)
				if err != nil {
					continue
				}
				enc = wire.AppendTrace(nil, &sp)
				sp2, err := wire.DecodeTrace(enc)
				if err != nil {
					t.Fatalf("trace re-decode: %v", err)
				}
				enc2 = wire.AppendTrace(nil, &sp2)
			default:
				continue
			}
			if !bytes.Equal(enc, enc2) {
				t.Fatalf("op 0x%02x round-trip not canonical: % x vs % x", op, enc, enc2)
			}
		}
	})
}
