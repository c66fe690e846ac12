package client

import (
	"bytes"
	"testing"

	"touch"
	"touch/internal/wire"
)

// TestRequestEncoding pins every constructor, plain and traced, to the
// opcode and the exact bytes the wire encoders write for it, so a
// Request changes no byte on the wire; a raw request's payload goes out
// as it came in. Each is encoded twice: alone, as Conn.Do encodes it,
// and after another request's bytes, as Batch.Add does.
func TestRequestEncoding(t *testing.T) {
	box := touch.Box{Min: touch.Point{1, 2, 3}, Max: touch.Point{4, 5, 6}}
	pt := touch.Point{7, 8, 9}
	probe := []touch.Box{box, {Max: touch.Point{1, 1, 1}}}
	inline := JoinSpec{Boxes: probe, Eps: 2.5, Workers: 3}
	named := JoinSpec{Probe: "p", Eps: 1}
	upd := UpdateSpec{Insert: probe, Delete: []touch.ID{4, 5}}
	raw := []byte{0xff, 0, 1, 2} // no valid OpKNN payload: nothing may re-encode it
	query := func(p []byte) [2][]byte { return [2][]byte{p, wire.AppendQueryFlags(p, wire.QueryFlagTrace)} }
	join := func(flags byte, s JoinSpec) [2][]byte {
		return [2][]byte{
			wire.AppendJoinReq(nil, "d", s.Eps, s.Workers, flags, s.Probe, s.Boxes),
			wire.AppendJoinReq(nil, "d", s.Eps, s.Workers, flags|wire.FlagTrace, s.Probe, s.Boxes),
		}
	}
	same := func(p []byte) [2][]byte { return [2][]byte{p, p} } // no trace flag to set
	prevReq := Range("prev", box)
	prev := prevReq.appendTo(nil)
	for _, tc := range []struct {
		name string
		req  Request
		op   byte
		want [2][]byte // plain, traced
	}{
		{"range", Range("d", box), wire.OpRange, query(wire.AppendRangeReq(nil, "d", box))},
		{"point", Point("d", pt), wire.OpPoint, query(wire.AppendPointReq(nil, "d", pt))},
		{"knn", KNN("d", pt, 9), wire.OpKNN, query(wire.AppendKNNReq(nil, "d", pt, 9))},
		{"join", Join("d", inline), wire.OpJoin, join(0, inline)},
		{"named-probe join", Join("d", named), wire.OpJoin, join(0, named)},
		{"count join", CountJoin("d", inline), wire.OpJoin, join(wire.FlagCountOnly, inline)},
		{"named-probe count join", CountJoin("d", named), wire.OpJoin, join(wire.FlagCountOnly, named)},
		{"update", Update("d", upd), wire.OpUpdate, same(wire.AppendUpdateReq(nil, "d", upd.Delete, upd.Insert))},
		{"catalog", Catalog(), wire.OpCatalog, same(nil)},
		{"raw", Raw(wire.OpKNN, raw), wire.OpKNN, same(raw)},
		{"raw empty", Raw(wire.OpCatalog, nil), wire.OpCatalog, same(nil)},
	} {
		for i, req := range []Request{tc.req, tc.req.Traced()} {
			if req.op != tc.op {
				t.Errorf("%s (traced %v): opcode %#02x, want %#02x", tc.name, i == 1, req.op, tc.op)
			}
			if got := req.appendTo(nil); !bytes.Equal(got, tc.want[i]) {
				t.Errorf("%s (traced %v): alone\n got %x\nwant %x", tc.name, i == 1, got, tc.want[i])
			}
			got := req.appendTo(append([]byte(nil), prev...))
			if !bytes.Equal(got[:len(prev)], prev) || !bytes.Equal(got[len(prev):], tc.want[i]) {
				t.Errorf("%s (traced %v): after another request\n got %x\nwant %x%x", tc.name, i == 1, got, prev, tc.want[i])
			}
		}
	}
	if !bytes.Equal(raw, []byte{0xff, 0, 1, 2}) {
		t.Errorf("encoding a raw request changed its payload to %x", raw)
	}
}
