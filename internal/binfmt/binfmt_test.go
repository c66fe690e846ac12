package binfmt

import (
	"errors"
	"math"
	"strings"
	"testing"

	"touch/internal/geom"
)

var errBad = errors.New("bad input")

// TestRoundTrip: every field the appenders write, the Reader reads back
// bit for bit — NaN payloads, infinities and negative zero included — and
// a Reader that consumed exactly its input reports no error.
func TestRoundTrip(t *testing.T) {
	box := geom.Box{Min: geom.Point{-1.5, math.Inf(-1), math.Copysign(0, -1)}, Max: geom.Point{math.NaN(), math.Inf(1), 1e300}}
	f := math.Float64frombits(0x7ff8_0000_dead_beef) // a NaN with a payload
	var b []byte
	b = append(b, 0xfe)
	b = AppendU16(b, 0xbeef)
	b = AppendU32(b, 0xdeadbeef)
	b = AppendU64(b, 0x0123_4567_89ab_cdef)
	b = AppendF64(b, f)
	b = AppendBox(b, box)
	if len(b) != 1+2+4+8+8+BoxSize {
		t.Fatalf("encoded %d bytes, want %d", len(b), 1+2+4+8+8+BoxSize)
	}

	r := NewReader(b, errBad, "payload")
	if v := r.U8(); v != 0xfe {
		t.Fatalf("U8 = %#x", v)
	}
	if v := r.U16(); v != 0xbeef {
		t.Fatalf("U16 = %#x", v)
	}
	if v := r.U32(); v != 0xdeadbeef {
		t.Fatalf("U32 = %#x", v)
	}
	if v := r.U64(); v != 0x0123_4567_89ab_cdef {
		t.Fatalf("U64 = %#x", v)
	}
	if v := r.F64(); math.Float64bits(v) != math.Float64bits(f) {
		t.Fatalf("F64 = %#x, want %#x", math.Float64bits(v), math.Float64bits(f))
	}
	got := r.Box()
	for d := 0; d < geom.Dims; d++ {
		if math.Float64bits(got.Min[d]) != math.Float64bits(box.Min[d]) || math.Float64bits(got.Max[d]) != math.Float64bits(box.Max[d]) {
			t.Fatalf("Box = %v, want %v", got, box)
		}
	}
	var decoded geom.Box
	DecodeBox(b[len(b)-BoxSize:], &decoded)
	if math.Float64bits(decoded.Min[2]) != math.Float64bits(box.Min[2]) || decoded.Max[2] != box.Max[2] {
		t.Fatalf("DecodeBox = %v, want %v", decoded, box)
	}
	if r.Remaining() != 0 || r.Err() != nil || r.Done() != nil {
		t.Fatalf("after reading everything: %d left, Err %v, Done %v", r.Remaining(), r.Err(), r.Done())
	}
}

// TestFirstErrorWins: the first read past the end fixes the error — what
// it asked for, at which offset, with how many bytes left — and leaves
// the Reader exhausted: that Take returns nil, every later read returns
// zero and nil without changing the error, and the error wraps the
// sentinel the Reader was made with.
func TestFirstErrorWins(t *testing.T) {
	r := NewReader([]byte{1, 2, 3, 4, 5, 6}, errBad, "meta section")
	if v := r.U16(); v != 0x0201 || r.Err() != nil {
		t.Fatalf("U16 = %#x, Err %v", v, r.Err())
	}
	if b := r.Take(5); b != nil {
		t.Fatalf("Take past the end = %v, want nil", b)
	}
	if r.Remaining() != 0 {
		t.Fatalf("a failed Take left %d bytes to read", r.Remaining())
	}
	first := r.Err()
	if first == nil || !errors.Is(first, errBad) {
		t.Fatalf("Err = %v, want an error wrapping %v", first, errBad)
	}
	want := "bad input: meta section truncated: need 5 bytes at offset 2, have 4"
	if first.Error() != want {
		t.Fatalf("Err = %q, want %q", first, want)
	}
	if r.U8() != 0 || r.U32() != 0 || r.U64() != 0 || r.F64() != 0 || r.Box() != (geom.Box{}) || r.Take(0) != nil {
		t.Fatal("a read after the failed one returned something")
	}
	if err := r.Err(); err.Error() != want {
		t.Fatalf("a later read replaced the first error: %q", err)
	}
	if err := r.Done(); err == nil || err.Error() != want {
		t.Fatalf("Done = %v, want the first error", err)
	}
}

// TestDoneRejectsTrailingBytes: input longer than what was read is an
// error naming how many bytes were left and what they were.
func TestDoneRejectsTrailingBytes(t *testing.T) {
	for _, tc := range []struct {
		in   []byte
		want string
	}{
		{AppendU64(AppendU32(nil, 7), 9), "8 trailing bytes in payload"},
		{AppendU32(nil, 7)[:4:4], ""},
		{append(AppendU32(nil, 7), 0), "1 trailing bytes in payload"},
	} {
		r := NewReader(tc.in, errBad, "payload")
		if r.U32() != 7 {
			t.Fatal("U32 misread")
		}
		err := r.Done()
		if tc.want == "" {
			if err != nil {
				t.Fatalf("Done on input read to its end = %v", err)
			}
			continue
		}
		if err == nil || !errors.Is(err, errBad) || !strings.HasSuffix(err.Error(), tc.want) {
			t.Fatalf("Done = %v, want %q wrapping %v", err, tc.want, errBad)
		}
		if r.Err() != nil {
			t.Fatalf("Err = %v: trailing bytes are Done's to report", r.Err())
		}
	}
}
