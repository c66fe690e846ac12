package wire

import (
	"bytes"
	"encoding/hex"
	"errors"
	"io"
	"math"
	"strings"
	"testing"
	"time"

	"touch/internal/binfmt"
	"touch/internal/geom"
	"touch/internal/trace"
)

func box(minX, minY, minZ, maxX, maxY, maxZ float64) geom.Box {
	return geom.Box{Min: geom.Point{minX, minY, minZ}, Max: geom.Point{maxX, maxY, maxZ}}
}

func TestHelloRoundtrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteHello(&buf, "touchserved/test rev/abc"); err != nil {
		t.Fatal(err)
	}
	v, info, err := ReadHello(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if v != Version {
		t.Fatalf("hello version %d, want %d", v, Version)
	}
	if info != "touchserved/test rev/abc" {
		t.Fatalf("hello info %q", info)
	}

	// The info field is optional: an empty one round-trips as "".
	buf.Reset()
	if err := WriteHello(&buf, ""); err != nil {
		t.Fatal(err)
	}
	if _, info, err = ReadHello(&buf); err != nil || info != "" {
		t.Fatalf("empty info: %q %v", info, err)
	}

	if _, _, err := ReadHello(bytes.NewReader([]byte("NOTWIRE0\x01\x00\x00\x00\x00\x00"))); !errors.Is(err, ErrMalformed) {
		t.Fatalf("bad magic: got %v, want ErrMalformed", err)
	}

	// An info length beyond the cap is malformed before any allocation;
	// a writer-side overlong info is truncated to the cap, not an error.
	bad := []byte(Magic)
	bad = binfmt.AppendU32(bad, Version)
	bad = binfmt.AppendU16(bad, MaxHelloInfo+1)
	if _, _, err := ReadHello(bytes.NewReader(bad)); !errors.Is(err, ErrMalformed) {
		t.Fatalf("oversized info length: %v, want ErrMalformed", err)
	}
	buf.Reset()
	if err := WriteHello(&buf, strings.Repeat("x", MaxHelloInfo+100)); err != nil {
		t.Fatal(err)
	}
	if _, info, err = ReadHello(&buf); err != nil || len(info) != MaxHelloInfo {
		t.Fatalf("truncated info: len=%d %v", len(info), err)
	}
}

func TestFrameRoundtrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	payloads := [][]byte{[]byte("hello"), {}, bytes.Repeat([]byte{0xAB}, 10_000)}
	for i, p := range payloads {
		if err := w.WriteFrame(byte(i+1), uint32(100+i), p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf, 0)
	for i, want := range payloads {
		op, tag, payload, err := r.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		if op != byte(i+1) || tag != uint32(100+i) || !bytes.Equal(payload, want) {
			t.Fatalf("frame %d: op=%d tag=%d len=%d", i, op, tag, len(payload))
		}
	}
	if _, _, _, err := r.ReadFrame(); err != io.EOF {
		t.Fatalf("after last frame: %v, want io.EOF", err)
	}
}

func TestFrameLengthBounds(t *testing.T) {
	// Oversized self-declared length: rejected before any payload
	// allocation, wrapped in ErrMalformed.
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF}) // length ~4 GiB
	r := NewReader(&buf, 1024)
	if _, _, _, err := r.ReadFrame(); !errors.Is(err, ErrMalformed) {
		t.Fatalf("oversized length: %v, want ErrMalformed", err)
	}

	// Length below the opcode+tag minimum.
	buf.Reset()
	buf.Write([]byte{0x01, 0x00, 0x00, 0x00})
	r = NewReader(&buf, 1024)
	if _, _, _, err := r.ReadFrame(); !errors.Is(err, ErrMalformed) {
		t.Fatalf("undersized length: %v, want ErrMalformed", err)
	}

	// Torn frame: header promises more payload than arrives.
	buf.Reset()
	w := NewWriter(&buf)
	w.WriteFrame(OpRange, 1, []byte("full payload"))
	w.Flush()
	torn := buf.Bytes()[:buf.Len()-4]
	r = NewReader(bytes.NewReader(torn), 0)
	if _, _, _, err := r.ReadFrame(); err != io.ErrUnexpectedEOF {
		t.Fatalf("torn frame: %v, want io.ErrUnexpectedEOF", err)
	}
}

func TestRangeReqRoundtrip(t *testing.T) {
	b := box(1, 2, 3, 4, 5, 6)
	p := AppendRangeReq(nil, "cells", b)
	name, got, flags, err := DecodeRangeReq(p)
	if err != nil {
		t.Fatal(err)
	}
	if string(name) != "cells" || got != b || flags != 0 {
		t.Fatalf("decoded %q %v flags=%#x", name, got, flags)
	}
	// The flagless encoding carries no flags byte at all — older peers'
	// encodings stay valid and byte-stable.
	if flagged := AppendQueryFlags(AppendRangeReq(nil, "cells", b), 0); !bytes.Equal(p, flagged) {
		t.Fatalf("zero-flags encoding differs from legacy encoding")
	}
	// A trace-flagged request round-trips its flag.
	p2 := AppendQueryFlags(AppendRangeReq(nil, "cells", b), QueryFlagTrace)
	if len(p2) != len(p)+1 {
		t.Fatalf("flags byte: len %d vs %d", len(p2), len(p))
	}
	if _, _, flags, err = DecodeRangeReq(p2); err != nil || flags != QueryFlagTrace {
		t.Fatalf("flags roundtrip: %#x %v", flags, err)
	}
	// Exact-size validation: stray bytes beyond the flags byte are
	// malformed, as is a truncated box.
	if _, _, _, err := DecodeRangeReq(append(p2, 0)); !errors.Is(err, ErrMalformed) {
		t.Fatalf("trailing byte: %v", err)
	}
	if _, _, _, err := DecodeRangeReq(p[:len(p)-1]); !errors.Is(err, ErrMalformed) {
		t.Fatalf("truncated: %v", err)
	}
}

func TestPointAndKNNReqRoundtrip(t *testing.T) {
	pt := geom.Point{7, -8, 9.5}
	p := AppendPointReq(nil, "grid", pt)
	name, got, flags, err := DecodePointReq(p)
	if err != nil || string(name) != "grid" || got != pt || flags != 0 {
		t.Fatalf("point: %q %v flags=%#x %v", name, got, flags, err)
	}
	if _, _, flags, err = DecodePointReq(AppendQueryFlags(AppendPointReq(nil, "grid", pt), QueryFlagTrace)); err != nil || flags != QueryFlagTrace {
		t.Fatalf("point flags: %#x %v", flags, err)
	}

	p = AppendKNNReq(nil, "grid", pt, 12)
	name, got, k, flags, err := DecodeKNNReq(p)
	if err != nil || string(name) != "grid" || got != pt || k != 12 || flags != 0 {
		t.Fatalf("knn: %q %v k=%d flags=%#x %v", name, got, k, flags, err)
	}
	if _, _, _, flags, err = DecodeKNNReq(AppendQueryFlags(AppendKNNReq(nil, "grid", pt, 12), QueryFlagTrace)); err != nil || flags != QueryFlagTrace {
		t.Fatalf("knn flags: %#x %v", flags, err)
	}
	// Negative k survives the unsigned wire word as negative, so the
	// engine's validation fires instead of a giant allocation.
	p = AppendKNNReq(nil, "grid", pt, -3)
	if _, _, k, _, err = DecodeKNNReq(p); err != nil || k != -3 {
		t.Fatalf("negative k: k=%d %v", k, err)
	}
}

func TestJoinReqRoundtrip(t *testing.T) {
	boxes := []geom.Box{box(0, 0, 0, 1, 1, 1), box(2, 2, 2, 3, 3, 3)}
	p := AppendJoinReq(nil, "cells", 2.5, 4, FlagCountOnly, "", boxes)
	req, err := DecodeJoinReq(p)
	if err != nil {
		t.Fatal(err)
	}
	if string(req.Name) != "cells" || req.Eps != 2.5 || req.Workers != 4 || !req.CountOnly {
		t.Fatalf("join header: %+v", req)
	}
	if req.ProbeName != nil || len(req.Boxes) != 2 || req.Boxes[0] != boxes[0] || req.Boxes[1] != boxes[1] {
		t.Fatalf("join probe: %+v", req)
	}

	p = AppendJoinReq(nil, "cells", 0, 0, 0, "grid", nil)
	req, err = DecodeJoinReq(p)
	if err != nil {
		t.Fatal(err)
	}
	if string(req.ProbeName) != "grid" || req.Boxes != nil || req.CountOnly {
		t.Fatalf("named probe: %+v", req)
	}

	// The trace flag rides the existing join flags byte.
	p = AppendJoinReq(nil, "cells", 0, 0, FlagCountOnly|FlagTrace, "grid", nil)
	req, err = DecodeJoinReq(p)
	if err != nil || !req.Trace || !req.CountOnly || string(req.ProbeName) != "grid" {
		t.Fatalf("traced join: %+v %v", req, err)
	}
}

func TestTraceRoundtrip(t *testing.T) {
	want := trace.Span{
		RequestID:   "9f3ac81b-42",
		Comparisons: 12345, NodeTests: 678, Filtered: 9, Results: 42, Replicas: 3,
		Cancel: 1,
	}
	want.Durations[trace.PhaseDecode] = 1200
	want.Durations[trace.PhaseJoin] = time.Millisecond
	p := AppendTrace(nil, &want)
	got, err := DecodeTrace(p)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("got %+v, want %+v", got, want)
	}
	// Exact-size validation both ways.
	if _, err := DecodeTrace(append(p, 0)); !errors.Is(err, ErrMalformed) {
		t.Fatalf("trailing byte: %v", err)
	}
	if _, err := DecodeTrace(p[:len(p)-1]); !errors.Is(err, ErrMalformed) {
		t.Fatalf("truncated: %v", err)
	}
	// A hostile phase count beyond MaxTracePhases is rejected before the
	// size arithmetic can mislead.
	hostile := AppendStr(nil, "id")
	hostile = append(hostile, 255)
	if _, err := DecodeTrace(hostile); !errors.Is(err, ErrMalformed) {
		t.Fatalf("hostile phase count: %v", err)
	}
}

// TestTraceBytesPinned holds AppendTrace to the OpTrace bytes the
// protocol has always carried: the literal is what the encoder that
// copied the span into a separate wire record wrote for the same values.
func TestTraceBytesPinned(t *testing.T) {
	sp := trace.Span{
		RequestID:   "req-0007",
		Durations:   [trace.NumPhases]time.Duration{1500, 0, 250000, 1000000, 42, 7, 0, 9999},
		Comparisons: 123456789, NodeTests: 4321, Filtered: 99, Results: 17, Replicas: 5,
		Cancel: 2,
	}
	const want = "08007265712d3030303708dc05000000000000000000000000000090d003000000000040420f00000000002a00000000000000070000000000000000000000000000000f2700000000000015cd5b0700000000e11000000000000063000000000000001100000000000000050000000000000002"
	if got := hex.EncodeToString(AppendTrace(nil, &sp)); got != want {
		t.Fatalf("AppendTrace wrote\n%s\nwant\n%s", got, want)
	}
}

// rawTrace builds an OpTrace payload by hand with any number of phase
// slots, the way a peer built against a different phase list writes it.
func rawTrace(id string, phaseNs []int64, comparisons, results int64, cancel byte) []byte {
	p := append(AppendStr(nil, id), byte(len(phaseNs)))
	for _, ns := range phaseNs {
		p = binfmt.AppendU64(p, uint64(ns))
	}
	for _, n := range []int64{comparisons, 0, 0, results, 0} {
		p = binfmt.AppendU64(p, uint64(n))
	}
	return append(p, cancel)
}

// TestTraceFromOlderAndNewerPeers: a peer with fewer phases leaves the
// missing slots zero; one with more has its extra slots dropped, and the
// re-encoding carries exactly trace.NumPhases.
func TestTraceFromOlderAndNewerPeers(t *testing.T) {
	older, err := DecodeTrace(rawTrace("old", []int64{5, 6, 7}, 11, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	want := trace.Span{RequestID: "old", Comparisons: 11, Results: 2, Cancel: 1}
	want.Durations[0], want.Durations[1], want.Durations[2] = 5, 6, 7
	if older != want {
		t.Fatalf("3-slot trace decoded to %+v, want %+v", older, want)
	}

	slots := make([]int64, trace.NumPhases+3)
	for i := range slots {
		slots[i] = int64(100 + i)
	}
	newer, err := DecodeTrace(rawTrace("new", slots, 11, 2, 0))
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range newer.Durations {
		if int64(d) != slots[i] {
			t.Fatalf("phase %d: %d, want %d", i, d, slots[i])
		}
	}
	re := AppendTrace(nil, &newer)
	if want := rawTrace("new", slots[:trace.NumPhases], 11, 2, 0); !bytes.Equal(re, want) {
		t.Fatalf("re-encoding\n% x\nwant\n% x", re, want)
	}
}

func TestJoinReqHostileCount(t *testing.T) {
	// A count field claiming far more boxes than the payload carries must
	// be rejected before the allocation, not after.
	p := AppendJoinReq(nil, "a", 0, 0, 0, "", []geom.Box{box(0, 0, 0, 1, 1, 1)})
	// The count u32 sits right after name(3) + eps(8) + workers(4) + flags(1).
	countOff := 2 + 1 + 8 + 4 + 1
	p[countOff] = 0xFF
	p[countOff+1] = 0xFF
	p[countOff+2] = 0xFF
	p[countOff+3] = 0x7F
	if _, err := DecodeJoinReq(p); !errors.Is(err, ErrMalformed) {
		t.Fatalf("hostile count: %v, want ErrMalformed", err)
	}
	// Unknown flag bits are a protocol error, not silently ignored.
	p2 := AppendJoinReq(nil, "a", 0, 0, 0, "", nil)
	p2[2+1+8+4] |= 0x80
	if _, err := DecodeJoinReq(p2); !errors.Is(err, ErrMalformed) {
		t.Fatalf("unknown flags: %v, want ErrMalformed", err)
	}
}

func TestResponseRoundtrips(t *testing.T) {
	ids := []geom.ID{1, 5, 9, -2}
	p := AppendIDsResp(nil, 7, ids)
	v, got, err := DecodeIDsResp(p)
	if err != nil || v != 7 || len(got) != 4 {
		t.Fatalf("ids: v=%d %v %v", v, got, err)
	}
	for i := range ids {
		if got[i] != ids[i] {
			t.Fatalf("id %d: %d vs %d", i, got[i], ids[i])
		}
	}
	if _, _, err := DecodeIDsResp(p[:len(p)-2]); !errors.Is(err, ErrMalformed) {
		t.Fatalf("truncated ids: %v", err)
	}

	nbrs := []geom.Neighbor{{ID: 3, Distance: 1.25}, {ID: 8, Distance: math.Sqrt(2)}}
	p = AppendNeighborsResp(nil, 2, nbrs)
	v, gn, err := DecodeNeighborsResp(p)
	if err != nil || v != 2 || len(gn) != 2 || gn[0] != nbrs[0] || gn[1] != nbrs[1] {
		t.Fatalf("neighbors: v=%d %v %v", v, gn, err)
	}

	p = AppendCountResp(nil, 3, 1234567)
	v, n, err := DecodeCountResp(p)
	if err != nil || v != 3 || n != 1234567 {
		t.Fatalf("count: %d %d %v", v, n, err)
	}

	pairs := []geom.Pair{{A: 1, B: 2}, {A: 3, B: 4}}
	p = AppendPairsResp(nil, pairs)
	gp, err := DecodePairsResp(p, nil)
	if err != nil || len(gp) != 2 || gp[0] != pairs[0] || gp[1] != pairs[1] {
		t.Fatalf("pairs: %v %v", gp, err)
	}
	// Append semantics accumulate across batches.
	gp, err = DecodePairsResp(p, gp)
	if err != nil || len(gp) != 4 {
		t.Fatalf("pairs append: %v %v", gp, err)
	}

	p = AppendErrorResp(nil, "unknown_dataset", "dataset \"x\" not loaded")
	code, msg, err := DecodeErrorResp(p)
	if err != nil || code != "unknown_dataset" || msg != `dataset "x" not loaded` {
		t.Fatalf("error: %q %q %v", code, msg, err)
	}
}

// TestReaderSteadyStateAllocs pins the zero-allocation contract of the
// frame reader: after the buffer has grown to the workload's frame size,
// reading frames allocates nothing.
func TestReaderSteadyStateAllocs(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	payload := AppendRangeReq(nil, "cells", box(0, 0, 0, 1, 1, 1))
	const frames = 100
	for i := 0; i < frames; i++ {
		w.WriteFrame(OpRange, uint32(i), payload)
	}
	w.Flush()
	wire := buf.Bytes()

	r := NewReader(bytes.NewReader(wire), 0)
	r.ReadFrame() // warm the payload buffer
	allocs := testing.AllocsPerRun(10, func() {
		rd := bytes.NewReader(wire)
		r.br.Reset(rd)
		for {
			_, _, p, err := r.ReadFrame()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if _, _, _, err := DecodeRangeReq(p); err != nil {
				t.Fatal(err)
			}
		}
	})
	// One bytes.Reader per run is the harness's own allocation.
	if allocs > 2 {
		t.Fatalf("steady-state reads allocate %.1f/run, want <= 2", allocs)
	}
}

func TestUpdateReqRoundtrip(t *testing.T) {
	dels := []geom.ID{3, 17, 4}
	ins := []geom.Box{box(0, 0, 0, 1, 1, 1), box(5, 5, 5, 9, 9, 9)}
	p := AppendUpdateReq(nil, "cells", dels, ins)
	req, err := DecodeUpdateReq(p)
	if err != nil {
		t.Fatal(err)
	}
	if string(req.Name) != "cells" || len(req.Deletes) != 3 || len(req.Inserts) != 2 {
		t.Fatalf("decoded %+v", req)
	}
	for i, id := range dels {
		if req.Deletes[i] != id {
			t.Fatalf("delete %d: %d != %d", i, req.Deletes[i], id)
		}
	}
	for i, b := range ins {
		if req.Inserts[i] != b {
			t.Fatalf("insert %d: %v != %v", i, req.Inserts[i], b)
		}
	}

	// Empty halves survive the trip.
	req, err = DecodeUpdateReq(AppendUpdateReq(nil, "cells", nil, nil))
	if err != nil || len(req.Deletes) != 0 || len(req.Inserts) != 0 {
		t.Fatalf("empty: %+v %v", req, err)
	}

	// Hostile delete count: claims more IDs than the payload carries.
	p = AppendUpdateReq(nil, "a", []geom.ID{1}, nil)
	countOff := 2 + 1 // u16 name len + name
	p[countOff] = 0xFF
	p[countOff+1] = 0xFF
	p[countOff+2] = 0xFF
	p[countOff+3] = 0x7F
	if _, err := DecodeUpdateReq(p); !errors.Is(err, ErrMalformed) {
		t.Fatalf("hostile delete count: %v, want ErrMalformed", err)
	}
	// Insert bytes must divide into whole boxes, exactly.
	p = AppendUpdateReq(nil, "a", nil, []geom.Box{box(0, 0, 0, 1, 1, 1)})
	if _, err := DecodeUpdateReq(p[:len(p)-1]); !errors.Is(err, ErrMalformed) {
		t.Fatalf("truncated insert: %v, want ErrMalformed", err)
	}
	if _, err := DecodeUpdateReq(append(p, 0)); !errors.Is(err, ErrMalformed) {
		t.Fatalf("trailing byte: %v, want ErrMalformed", err)
	}
}

func TestUpdateRespRoundtrip(t *testing.T) {
	want := UpdateResp{Version: 9, FirstID: 1024, Inserted: 3, Deleted: 2, DeltaInserts: 40, DeltaTombstones: 7}
	got, err := DecodeUpdateResp(AppendUpdateResp(nil, want))
	if err != nil || got != want {
		t.Fatalf("got %+v, %v", got, err)
	}
	// FirstID -1 marks an insert-free batch and must survive the i64 word.
	want = UpdateResp{Version: 2, FirstID: -1, Deleted: 5}
	got, err = DecodeUpdateResp(AppendUpdateResp(nil, want))
	if err != nil || got != want {
		t.Fatalf("no-insert ack: %+v, %v", got, err)
	}
	if _, err := DecodeUpdateResp(AppendUpdateResp(nil, want)[:10]); !errors.Is(err, ErrMalformed) {
		t.Fatalf("truncated resp: %v, want ErrMalformed", err)
	}
}
