// Package binfmt is the little-endian binary layout the wire protocol
// (internal/wire) and the snapshot format (internal/snapshot) share:
// append helpers for fixed-width fields and for the 48-byte box, and one
// bounds-checked Reader that decodes them.
//
// A Reader keeps its first error. A read past the end returns zero and
// leaves the Reader exhausted, so every later read returns zero too, and
// Err and Done report that first read, wrapping the sentinel the Reader
// was made with. A decoder therefore reads its fields straight through,
// checks Err only before a decoded count sizes an allocation, and ends
// with Done, which also rejects trailing bytes: truncated or oversized
// input is an error, never a panic and never silently zero-filled.
package binfmt

import (
	"encoding/binary"
	"fmt"
	"math"

	"touch/internal/geom"
)

// BoxSize is the encoded size of a geom.Box: minX minY minZ maxX maxY
// maxZ, each the IEEE-754 bit pattern of a float64.
const BoxSize = 2 * geom.Dims * 8

// AppendU16, AppendU32, AppendU64 and AppendF64 append one little-endian
// field to caller-owned scratch, so the steady state encodes without
// allocating.
func AppendU16(dst []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(dst, v) }
func AppendU32(dst []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(dst, v) }
func AppendU64(dst []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(dst, v) }
func AppendF64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

// AppendBox appends the BoxSize-byte corner layout.
func AppendBox(dst []byte, b geom.Box) []byte {
	for d := 0; d < geom.Dims; d++ {
		dst = AppendF64(dst, b.Min[d])
	}
	for d := 0; d < geom.Dims; d++ {
		dst = AppendF64(dst, b.Max[d])
	}
	return dst
}

// DecodeBox reads the layout AppendBox writes into box; the caller
// guarantees len(b) >= BoxSize.
func DecodeBox(b []byte, box *geom.Box) {
	for d := 0; d < geom.Dims; d++ {
		box.Min[d] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*d:]))
		box.Max[d] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*geom.Dims+8*d:]))
	}
}

// Reader decodes one byte slice front to back.
type Reader struct {
	rest     []byte // the bytes not yet read
	size     int    // the whole input's length, for offsets in errors
	need     int    // what the first failed read asked for; 0 while none failed
	had      int    // the bytes left when it failed
	sentinel error  // wrapped into every error
	what     string // names the bytes in errors ("payload", "meta section")
}

// NewReader returns a Reader over b whose errors wrap sentinel and call
// the bytes what.
func NewReader(b []byte, sentinel error, what string) Reader {
	return Reader{rest: b, size: len(b), sentinel: sentinel, what: what}
}

// Take consumes the next n bytes and returns them without copying — they
// alias the input. Past the end it returns nil and only notes what it
// was asked for; the error is built off this path, by Err, so that Take
// stays inlinable.
func (r *Reader) Take(n int) []byte {
	if rest := r.rest; uint(n) <= uint(len(rest)) {
		r.rest = rest[n:]
		return rest[:n:n]
	}
	if r.need == 0 {
		r.need, r.had = n, len(r.rest)
	}
	r.rest = nil
	return nil
}

// U8, U16, U32, U64 and F64 read one little-endian field; zero past the
// end.
func (r *Reader) U8() byte {
	if b := r.Take(1); len(b) == 1 {
		return b[0]
	}
	return 0
}

func (r *Reader) U16() uint16 {
	if b := r.Take(2); len(b) == 2 {
		return binary.LittleEndian.Uint16(b)
	}
	return 0
}

func (r *Reader) U32() uint32 {
	if b := r.Take(4); len(b) == 4 {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (r *Reader) U64() uint64 {
	if b := r.Take(8); len(b) == 8 {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Box reads one box; the zero box past the end.
func (r *Reader) Box() (box geom.Box) {
	if b := r.Take(BoxSize); len(b) == BoxSize {
		DecodeBox(b, &box)
	}
	return box
}

// Remaining reports how many bytes are left unread — none once a read
// has failed.
func (r *Reader) Remaining() int { return len(r.rest) }

// Err returns the error of the first read that ran past the end, nil
// while every read fit.
func (r *Reader) Err() error {
	if r.need == 0 {
		return nil
	}
	return r.truncated()
}

func (r *Reader) truncated() error {
	return fmt.Errorf("%w: %s truncated: need %d bytes at offset %d, have %d",
		r.sentinel, r.what, r.need, r.size-r.had, r.had)
}

// Done ends a decode: Err, else an error when bytes are left over —
// input longer or shorter than its contents is rejected, never silently
// truncated.
func (r *Reader) Done() error {
	if r.need == 0 && len(r.rest) != 0 {
		return fmt.Errorf("%w: %d trailing bytes in %s", r.sentinel, len(r.rest), r.what)
	}
	return r.Err()
}
