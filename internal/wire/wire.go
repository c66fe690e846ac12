// Package wire is the binary serving protocol: a length-prefixed,
// tag-correlated frame format over persistent connections, the fast lane
// next to touchserved's JSON-over-HTTP API. It exists because BENCH_6
// measured the HTTP boundary at ~97% of serving cost — per-request
// framing, JSON encode/decode and one round-trip per query — while the
// engine itself answers range queries in ~2.4µs.
//
// # Handshake
//
// A connection opens with a hello from each side:
//
//	magic "TCHWIRE1" | protocol version u32 | u16 infoLen | info bytes
//
// The client sends first; the server answers with the version it will
// speak (currently 1) or an Error frame with tag 0 followed by a close
// when the client's version is unsupported. info is a free-form,
// informational build identification string ("touchserved/abc123
// go/go1.24"); it carries no protocol semantics and either side may
// send it empty. It is capped at MaxHelloInfo bytes.
//
// # Frames
//
// After the handshake, both directions carry frames:
//
//	length u32 | opcode u8 | tag u32 | payload (length-5 bytes)
//
// length counts everything after itself and is bounded by the receiver's
// MaxFrame (default 8 MiB) — an oversized or impossibly short length is
// a protocol error: the receiver answers with an Error frame and closes,
// and never allocates more than its own bound regardless of what the
// length field claims. Tags correlate responses to requests: the client
// picks them, many requests may be in flight per connection (pipelining),
// and every request produces exactly one terminal response frame carrying
// its tag. All integers are little-endian; floats are IEEE-754 bit
// patterns; boxes are a fixed 48-byte stride (minX minY minZ maxX maxY
// maxZ), the same codec discipline as internal/snapshot — length-prefixed
// sections, exact-size validation, errors instead of panics on any
// malformed input.
//
// # Requests and responses
//
//	OpRange  str name | box | [u8 flags]             → OpIDs
//	OpPoint  str name | 3×f64 | [u8 flags]           → OpIDs
//	OpKNN    str name | 3×f64 | u32 k | [u8 flags]   → OpNeighbors
//	OpJoin   str name | f64 eps | u32 workers |
//	         u8 flags | probe (see below)            → OpCount (count-only)
//	                                                 | OpPairs* then OpJoinDone
//	OpCancel (empty; tag names the request to abort) → nothing of its own
//	OpUpdate str name | u32 nDel | nDel×u32 ids |
//	         u32 nIns | nIns×box                     → OpUpdateDone
//	OpCatalog (empty)                                → OpCatalogResp
//
// The join probe side is either inline boxes (u32 n | n×box) or, with
// FlagNamedProbe set, a loaded dataset's name (str). str is u16 length +
// bytes. The query requests take an optional trailing flags byte
// (absent means zero — the encoding without flags stays valid);
// QueryFlagTrace asks the server to emit a non-terminal OpTrace frame
// carrying the request's span immediately before the terminal response,
// as FlagTrace does for joins. Every response that answers from an
// index carries the catalog version it answered from, so clients can
// pin or compare versions exactly as over HTTP. OpError (str code |
// str message) is the terminal response of a failed request; the codes
// are the same machine-readable vocabulary as the HTTP error bodies.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"touch/internal/geom"
)

// Magic opens the handshake hello; the trailing "1" is the protocol
// generation, bumped together with Version on incompatible changes.
const Magic = "TCHWIRE1"

// Version is the protocol version this package speaks.
const Version = 1

// DefaultMaxFrame bounds a frame's self-declared length (and therefore
// the receiver's buffer) when the caller does not choose one — aligned
// with the HTTP path's default body cap.
const DefaultMaxFrame = 8 << 20

// MaxHelloInfo caps the informational string of a hello, bounding what
// ReadHello will allocate for a hostile peer.
const MaxHelloInfo = 1024

const (
	helloFixedSize = len(Magic) + 4 + 2 // magic + version + info length
	headerSize     = 4 + 1 + 4          // length + opcode + tag
	minFrameLen    = 1 + 4              // opcode + tag
)

// Request opcodes (client → server).
const (
	OpRange   byte = 0x01
	OpPoint   byte = 0x02
	OpKNN     byte = 0x03
	OpJoin    byte = 0x04
	OpCancel  byte = 0x05
	OpUpdate  byte = 0x06
	OpCatalog byte = 0x07
)

// Response opcodes (server → client). Every request gets exactly one
// terminal response with its tag: OpIDs, OpNeighbors, OpCount, OpJoinDone
// or OpError. OpPairs frames are non-terminal: a streaming join emits any
// number of them before its OpJoinDone (or OpError, when canceled).
const (
	OpIDs        byte = 0x81
	OpNeighbors  byte = 0x82
	OpCount      byte = 0x83
	OpPairs      byte = 0x84
	OpJoinDone   byte = 0x85
	OpError      byte = 0x86
	OpUpdateDone byte = 0x87
	// OpTrace is non-terminal like OpPairs: when a request asked for
	// tracing, the server emits exactly one OpTrace frame with the
	// request's span immediately before the terminal response.
	OpTrace byte = 0x88
	// OpCatalogResp is the terminal response of OpCatalog: the serving
	// catalog as a list of dataset rows, so a routing tier can merge
	// listings across replicas without touching the HTTP surface.
	OpCatalogResp byte = 0x89
)

// Join request flags.
const (
	// FlagCountOnly suppresses pair streaming: the response is a single
	// OpCount frame with the exact result count.
	FlagCountOnly byte = 1 << 0
	// FlagNamedProbe selects a loaded dataset as the probe side instead
	// of inline boxes.
	FlagNamedProbe byte = 1 << 1
	// FlagTrace requests a non-terminal OpTrace frame with the request's
	// engine span before the terminal response.
	FlagTrace byte = 1 << 2
)

// Query request flags — the optional trailing byte of OpRange, OpPoint
// and OpKNN. A request without the byte means flags zero.
const (
	// QueryFlagTrace is FlagTrace for the query ops.
	QueryFlagTrace byte = 1 << 0
)

// ErrMalformed is wrapped into every decode rejection — truncated or
// oversized frames, bad magic, payloads whose size disagrees with their
// counts; test with errors.Is. A malformed frame means framing sync is
// lost: the connection must be closed.
var ErrMalformed = errors.New("wire: malformed")

func malformed(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrMalformed, fmt.Sprintf(format, args...))
}

// --- handshake ----------------------------------------------------------

// WriteHello writes the hello: magic, version, and an informational
// build string (truncated to MaxHelloInfo; empty is fine).
func WriteHello(w io.Writer, info string) error {
	if len(info) > MaxHelloInfo {
		info = info[:MaxHelloInfo]
	}
	b := make([]byte, 0, helloFixedSize+len(info))
	b = append(b, Magic...)
	b = AppendU32(b, Version)
	b = AppendU16(b, uint16(len(info)))
	b = append(b, info...)
	_, err := w.Write(b)
	return err
}

// ReadHello reads and validates the peer's hello, returning the version
// and informational string it announced. A bad magic or an info length
// beyond MaxHelloInfo is ErrMalformed; version agreement is the
// caller's policy (the server may still answer an Error frame).
func ReadHello(r io.Reader) (version uint32, info string, err error) {
	var b [helloFixedSize]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, "", err
	}
	if string(b[:len(Magic)]) != Magic {
		return 0, "", malformed("bad hello magic %q", b[:len(Magic)])
	}
	version = binary.LittleEndian.Uint32(b[len(Magic):])
	n := int(binary.LittleEndian.Uint16(b[len(Magic)+4:]))
	if n > MaxHelloInfo {
		return 0, "", malformed("hello info length %d exceeds the %d-byte cap", n, MaxHelloInfo)
	}
	if n > 0 {
		raw := make([]byte, n)
		if _, err := io.ReadFull(r, raw); err != nil {
			return 0, "", eofIsUnexpected(err)
		}
		info = string(raw)
	}
	return version, info, nil
}

// --- framed reader ------------------------------------------------------

// Reader decodes frames off a connection with a single reusable payload
// buffer: the payload returned by ReadFrame is valid only until the next
// call. The buffer never grows beyond MaxFrame, no matter what length a
// frame claims.
type Reader struct {
	br  *bufio.Reader
	buf []byte
	hdr [headerSize]byte // per-frame header scratch, kept here so it never escapes per call
	max int
}

// NewReader returns a Reader with the given frame cap (0 means
// DefaultMaxFrame).
func NewReader(r io.Reader, maxFrame int) *Reader {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	return &Reader{br: bufio.NewReaderSize(r, 64<<10), max: maxFrame}
}

// ReadHello runs the handshake read through the Reader's buffer (the
// hello must be consumed from the same buffered stream as the frames
// that follow it).
func (r *Reader) ReadHello() (uint32, string, error) { return ReadHello(r.br) }

// Buffered reports how many bytes are already in the read buffer — a
// proxy uses it to coalesce frames that arrived back-to-back without
// risking a blocking read between them.
func (r *Reader) Buffered() int { return r.br.Buffered() }

// ReadFrame reads one frame. io.EOF is returned only at a clean frame
// boundary; a connection dying mid-frame is io.ErrUnexpectedEOF. The
// payload slice is reused by the next call.
func (r *Reader) ReadFrame() (op byte, tag uint32, payload []byte, err error) {
	if _, err := io.ReadFull(r.br, r.hdr[:4]); err != nil {
		return 0, 0, nil, err // io.EOF here = clean close between frames
	}
	length := int(binary.LittleEndian.Uint32(r.hdr[:4]))
	if length < minFrameLen {
		return 0, 0, nil, malformed("frame length %d below the %d-byte minimum", length, minFrameLen)
	}
	if length > r.max {
		return 0, 0, nil, malformed("frame length %d exceeds the %d-byte cap", length, r.max)
	}
	if _, err := io.ReadFull(r.br, r.hdr[4:]); err != nil {
		return 0, 0, nil, eofIsUnexpected(err)
	}
	op = r.hdr[4]
	tag = binary.LittleEndian.Uint32(r.hdr[5:])
	n := length - minFrameLen
	if cap(r.buf) < n {
		r.buf = make([]byte, n)
	}
	payload = r.buf[:n]
	if _, err := io.ReadFull(r.br, payload); err != nil {
		return 0, 0, nil, eofIsUnexpected(err)
	}
	return op, tag, payload, nil
}

func eofIsUnexpected(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// --- framed writer ------------------------------------------------------

// Writer encodes frames onto a connection through one buffered writer;
// callers batch frames and Flush at pipeline boundaries. Writer is not
// safe for concurrent use — serialize with a mutex.
type Writer struct {
	bw  *bufio.Writer
	hdr [headerSize]byte // per-frame header scratch, kept here so it never escapes per call
}

// NewWriter returns a Writer over w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriterSize(w, 64<<10)}
}

// WriteHello writes the handshake hello into the buffer (Flush to send).
func (w *Writer) WriteHello(info string) error { return WriteHello(w.bw, info) }

// WriteFrame appends one frame to the buffer. Nothing hits the wire
// until the buffer fills or Flush is called.
func (w *Writer) WriteFrame(op byte, tag uint32, payload []byte) error {
	if len(payload) > math.MaxUint32-minFrameLen {
		return malformed("payload of %d bytes cannot be framed", len(payload))
	}
	binary.LittleEndian.PutUint32(w.hdr[:4], uint32(minFrameLen+len(payload)))
	w.hdr[4] = op
	binary.LittleEndian.PutUint32(w.hdr[5:], tag)
	if _, err := w.bw.Write(w.hdr[:]); err != nil {
		return err
	}
	_, err := w.bw.Write(payload)
	return err
}

// Flush pushes buffered frames to the connection.
func (w *Writer) Flush() error { return w.bw.Flush() }

// --- payload primitives -------------------------------------------------

// AppendU16/U32/U64/F64/Str/Box build payloads in caller-owned scratch
// buffers, so the steady state encodes without allocating.

func AppendU16(dst []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(dst, v) }
func AppendU32(dst []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(dst, v) }
func AppendU64(dst []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(dst, v) }
func AppendF64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

// AppendStr appends a u16-length-prefixed string (names; capped at 64 KiB
// by the prefix width).
func AppendStr(dst []byte, s string) []byte {
	dst = AppendU16(dst, uint16(len(s)))
	return append(dst, s...)
}

// AppendBox appends the fixed 48-byte corner layout.
func AppendBox(dst []byte, b geom.Box) []byte {
	for d := 0; d < geom.Dims; d++ {
		dst = AppendF64(dst, b.Min[d])
	}
	for d := 0; d < geom.Dims; d++ {
		dst = AppendF64(dst, b.Max[d])
	}
	return dst
}

const boxSize = 6 * 8

// cursor is a bounds-checked reader over one payload; every take is
// validated before anything is read, and decode entry points require the
// cursor to end exactly empty — a payload longer or shorter than its
// contents is malformed, never silently truncated or zero-filled.
type cursor struct {
	b   []byte
	off int
}

func (c *cursor) remaining() int { return len(c.b) - c.off }

func (c *cursor) take(n int) ([]byte, error) {
	if n < 0 || c.remaining() < n {
		return nil, malformed("payload truncated: need %d bytes at offset %d, have %d", n, c.off, c.remaining())
	}
	b := c.b[c.off : c.off+n]
	c.off += n
	return b, nil
}

func (c *cursor) u16() (uint16, error) {
	b, err := c.take(2)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(b), nil
}

func (c *cursor) u32() (uint32, error) {
	b, err := c.take(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (c *cursor) u64() (uint64, error) {
	b, err := c.take(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

func (c *cursor) f64() (float64, error) {
	v, err := c.u64()
	return math.Float64frombits(v), err
}

// str returns the bytes of a u16-prefixed string without copying; they
// alias the payload and are only valid as long as it is.
func (c *cursor) str() ([]byte, error) {
	n, err := c.u16()
	if err != nil {
		return nil, err
	}
	return c.take(int(n))
}

func (c *cursor) box() (geom.Box, error) {
	var b geom.Box
	raw, err := c.take(boxSize)
	if err != nil {
		return b, err
	}
	decodeBox(raw, &b)
	return b, nil
}

// decodeBox reads the 48-byte corner layout; the caller guarantees
// len(raw) >= boxSize.
func decodeBox(raw []byte, b *geom.Box) {
	for d := 0; d < geom.Dims; d++ {
		b.Min[d] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*d:]))
		b.Max[d] = math.Float64frombits(binary.LittleEndian.Uint64(raw[24+8*d:]))
	}
}

func (c *cursor) done() error {
	if c.remaining() != 0 {
		return malformed("%d trailing bytes in payload", c.remaining())
	}
	return nil
}

// --- requests -----------------------------------------------------------

// RequestDataset returns the dataset name that opens every OpRange,
// OpPoint, OpKNN, OpJoin and OpUpdate payload — the leading str and
// nothing else, which is all a relay needs to place a request; the rest
// of the payload is for the server that executes it to judge. name
// aliases the payload.
func RequestDataset(p []byte) (name []byte, err error) {
	c := cursor{b: p}
	return c.str()
}

// queryFlags finishes a query request payload: the trailing flags byte
// is written only when non-zero, so a zero-flag encoding is
// byte-identical to the pre-flags wire format.
func queryFlags(dst []byte, flags byte) []byte {
	if flags != 0 {
		dst = append(dst, flags)
	}
	return dst
}

// takeQueryFlags reads the optional trailing flags byte of a query
// request; an exhausted cursor means flags zero, and unknown bits are
// malformed.
func (c *cursor) takeQueryFlags() (byte, error) {
	if c.remaining() == 0 {
		return 0, nil
	}
	fb, err := c.take(1)
	if err != nil {
		return 0, err
	}
	if fb[0]&^QueryFlagTrace != 0 {
		return 0, malformed("unknown query flags %#02x", fb[0])
	}
	return fb[0], nil
}

// AppendRangeReq encodes an OpRange payload with zero flags.
func AppendRangeReq(dst []byte, name string, b geom.Box) []byte {
	return AppendRangeReqFlags(dst, name, b, 0)
}

// AppendRangeReqFlags encodes an OpRange payload; flags zero omits the
// trailing byte.
func AppendRangeReqFlags(dst []byte, name string, b geom.Box, flags byte) []byte {
	dst = AppendStr(dst, name)
	dst = AppendBox(dst, b)
	return queryFlags(dst, flags)
}

// DecodeRangeReq decodes an OpRange payload. name aliases the payload.
func DecodeRangeReq(p []byte) (name []byte, b geom.Box, flags byte, err error) {
	c := cursor{b: p}
	if name, err = c.str(); err != nil {
		return nil, b, 0, err
	}
	if b, err = c.box(); err != nil {
		return nil, b, 0, err
	}
	if flags, err = c.takeQueryFlags(); err != nil {
		return nil, b, 0, err
	}
	return name, b, flags, c.done()
}

// AppendPointReq encodes an OpPoint payload with zero flags.
func AppendPointReq(dst []byte, name string, p geom.Point) []byte {
	return AppendPointReqFlags(dst, name, p, 0)
}

// AppendPointReqFlags encodes an OpPoint payload; flags zero omits the
// trailing byte.
func AppendPointReqFlags(dst []byte, name string, p geom.Point, flags byte) []byte {
	dst = AppendStr(dst, name)
	for d := 0; d < geom.Dims; d++ {
		dst = AppendF64(dst, p[d])
	}
	return queryFlags(dst, flags)
}

// DecodePointReq decodes an OpPoint payload. name aliases the payload.
func DecodePointReq(p []byte) (name []byte, pt geom.Point, flags byte, err error) {
	c := cursor{b: p}
	if name, err = c.str(); err != nil {
		return nil, pt, 0, err
	}
	for d := 0; d < geom.Dims; d++ {
		if pt[d], err = c.f64(); err != nil {
			return nil, pt, 0, err
		}
	}
	if flags, err = c.takeQueryFlags(); err != nil {
		return nil, pt, 0, err
	}
	return name, pt, flags, c.done()
}

// AppendKNNReq encodes an OpKNN payload with zero flags.
func AppendKNNReq(dst []byte, name string, p geom.Point, k int) []byte {
	return AppendKNNReqFlags(dst, name, p, k, 0)
}

// AppendKNNReqFlags encodes an OpKNN payload; flags zero omits the
// trailing byte.
func AppendKNNReqFlags(dst []byte, name string, p geom.Point, k int, flags byte) []byte {
	dst = AppendStr(dst, name)
	for d := 0; d < geom.Dims; d++ {
		dst = AppendF64(dst, p[d])
	}
	dst = AppendU32(dst, uint32(k))
	return queryFlags(dst, flags)
}

// DecodeKNNReq decodes an OpKNN payload. name aliases the payload; k is
// returned as the signed interpretation of the wire word so the engine's
// k-validation sees negative values as negative.
func DecodeKNNReq(p []byte) (name []byte, pt geom.Point, k int, flags byte, err error) {
	c := cursor{b: p}
	if name, err = c.str(); err != nil {
		return nil, pt, 0, 0, err
	}
	for d := 0; d < geom.Dims; d++ {
		if pt[d], err = c.f64(); err != nil {
			return nil, pt, 0, 0, err
		}
	}
	kw, err := c.u32()
	if err != nil {
		return nil, pt, 0, 0, err
	}
	if flags, err = c.takeQueryFlags(); err != nil {
		return nil, pt, 0, 0, err
	}
	return name, pt, int(int32(kw)), flags, c.done()
}

// JoinReq is a decoded OpJoin payload. Exactly one of ProbeName and
// Boxes describes the probe side (Boxes may be an empty non-nil slice
// for an inline empty probe). Name and ProbeName alias the payload.
type JoinReq struct {
	Name      []byte
	Eps       float64
	Workers   int
	CountOnly bool
	Trace     bool
	ProbeName []byte     // nil unless FlagNamedProbe
	Boxes     []geom.Box // nil when FlagNamedProbe
}

// AppendJoinReq encodes an OpJoin payload. probeName selects a named
// probe when non-empty; boxes are the inline probe otherwise.
func AppendJoinReq(dst []byte, name string, eps float64, workers int, countOnly bool, probeName string, boxes []geom.Box) []byte {
	flags := byte(0)
	if countOnly {
		flags |= FlagCountOnly
	}
	return AppendJoinReqFlags(dst, name, eps, workers, flags, probeName, boxes)
}

// AppendJoinReqFlags is AppendJoinReq with the flags byte given
// explicitly (FlagNamedProbe is still derived from probeName).
func AppendJoinReqFlags(dst []byte, name string, eps float64, workers int, flags byte, probeName string, boxes []geom.Box) []byte {
	dst = AppendStr(dst, name)
	dst = AppendF64(dst, eps)
	dst = AppendU32(dst, uint32(workers))
	if probeName != "" {
		flags |= FlagNamedProbe
	} else {
		flags &^= FlagNamedProbe
	}
	dst = append(dst, flags)
	if probeName != "" {
		return AppendStr(dst, probeName)
	}
	dst = AppendU32(dst, uint32(len(boxes)))
	for _, b := range boxes {
		dst = AppendBox(dst, b)
	}
	return dst
}

// DecodeJoinReq decodes an OpJoin payload. The inline box count must
// agree exactly with the remaining payload size before anything is
// allocated, so a hostile count field cannot oversize the allocation
// beyond the frame the bytes actually arrived in.
func DecodeJoinReq(p []byte) (JoinReq, error) {
	var req JoinReq
	c := cursor{b: p}
	var err error
	if req.Name, err = c.str(); err != nil {
		return req, err
	}
	if req.Eps, err = c.f64(); err != nil {
		return req, err
	}
	w, err := c.u32()
	if err != nil {
		return req, err
	}
	req.Workers = int(int32(w))
	fb, err := c.take(1)
	if err != nil {
		return req, err
	}
	flags := fb[0]
	if flags&^(FlagCountOnly|FlagNamedProbe|FlagTrace) != 0 {
		return req, malformed("unknown join flags %#02x", flags)
	}
	req.CountOnly = flags&FlagCountOnly != 0
	req.Trace = flags&FlagTrace != 0
	if flags&FlagNamedProbe != 0 {
		if req.ProbeName, err = c.str(); err != nil {
			return req, err
		}
		return req, c.done()
	}
	n, err := c.u32()
	if err != nil {
		return req, err
	}
	if int64(n)*boxSize != int64(c.remaining()) {
		return req, malformed("join claims %d probe boxes, %d payload bytes remain", n, c.remaining())
	}
	req.Boxes = make([]geom.Box, n)
	for i := range req.Boxes {
		if req.Boxes[i], err = c.box(); err != nil {
			return req, err
		}
	}
	return req, c.done()
}

// UpdateReq is a decoded OpUpdate payload: a batch of deletes-then-
// inserts against one dataset's pending delta. Name aliases the payload;
// Deletes and Inserts are freshly allocated.
type UpdateReq struct {
	Name    []byte
	Deletes []geom.ID
	Inserts []geom.Box
}

// AppendUpdateReq encodes an OpUpdate payload.
func AppendUpdateReq(dst []byte, name string, deletes []geom.ID, inserts []geom.Box) []byte {
	dst = AppendStr(dst, name)
	dst = AppendU32(dst, uint32(len(deletes)))
	for _, id := range deletes {
		dst = AppendU32(dst, uint32(id))
	}
	dst = AppendU32(dst, uint32(len(inserts)))
	for _, b := range inserts {
		dst = AppendBox(dst, b)
	}
	return dst
}

// DecodeUpdateReq decodes an OpUpdate payload. Both counts are validated
// against the remaining payload size before anything is allocated, and
// the insert count must consume the payload exactly.
func DecodeUpdateReq(p []byte) (UpdateReq, error) {
	var req UpdateReq
	c := cursor{b: p}
	var err error
	if req.Name, err = c.str(); err != nil {
		return req, err
	}
	nDel, err := c.u32()
	if err != nil {
		return req, err
	}
	// The delete section is followed by at least the 4-byte insert count.
	if int64(nDel)*4+4 > int64(c.remaining()) {
		return req, malformed("update claims %d delete ids, %d payload bytes remain", nDel, c.remaining())
	}
	req.Deletes = make([]geom.ID, nDel)
	for i := range req.Deletes {
		w, _ := c.u32() // size proven above
		req.Deletes[i] = geom.ID(int32(w))
	}
	nIns, err := c.u32()
	if err != nil {
		return req, err
	}
	if int64(nIns)*boxSize != int64(c.remaining()) {
		return req, malformed("update claims %d insert boxes, %d payload bytes remain", nIns, c.remaining())
	}
	req.Inserts = make([]geom.Box, nIns)
	for i := range req.Inserts {
		if req.Inserts[i], err = c.box(); err != nil {
			return req, err
		}
	}
	return req, c.done()
}

// --- responses ----------------------------------------------------------

// AppendIDsResp encodes an OpIDs payload: the answering catalog version
// and the result IDs.
func AppendIDsResp(dst []byte, version int64, ids []geom.ID) []byte {
	dst = AppendU64(dst, uint64(version))
	dst = AppendU32(dst, uint32(len(ids)))
	for _, id := range ids {
		dst = AppendU32(dst, uint32(id))
	}
	return dst
}

// DecodeIDsResp decodes an OpIDs payload. The count must agree exactly
// with the payload size; the returned slice is freshly allocated.
func DecodeIDsResp(p []byte) (version int64, ids []geom.ID, err error) {
	c := cursor{b: p}
	v, err := c.u64()
	if err != nil {
		return 0, nil, err
	}
	n, err := c.u32()
	if err != nil {
		return 0, nil, err
	}
	if int64(n)*4 != int64(c.remaining()) {
		return 0, nil, malformed("ids response claims %d ids, %d payload bytes remain", n, c.remaining())
	}
	ids = make([]geom.ID, n)
	for i := range ids {
		w, _ := c.u32() // size proven above
		ids[i] = geom.ID(int32(w))
	}
	return int64(v), ids, c.done()
}

// AppendNeighborsResp encodes an OpNeighbors payload.
func AppendNeighborsResp(dst []byte, version int64, nbrs []geom.Neighbor) []byte {
	dst = AppendU64(dst, uint64(version))
	dst = AppendU32(dst, uint32(len(nbrs)))
	for _, n := range nbrs {
		dst = AppendU32(dst, uint32(n.ID))
		dst = AppendF64(dst, n.Distance)
	}
	return dst
}

// DecodeNeighborsResp decodes an OpNeighbors payload.
func DecodeNeighborsResp(p []byte) (version int64, nbrs []geom.Neighbor, err error) {
	c := cursor{b: p}
	v, err := c.u64()
	if err != nil {
		return 0, nil, err
	}
	n, err := c.u32()
	if err != nil {
		return 0, nil, err
	}
	if int64(n)*12 != int64(c.remaining()) {
		return 0, nil, malformed("neighbors response claims %d entries, %d payload bytes remain", n, c.remaining())
	}
	nbrs = make([]geom.Neighbor, n)
	for i := range nbrs {
		w, _ := c.u32()
		d, _ := c.f64() // sizes proven above
		nbrs[i] = geom.Neighbor{ID: geom.ID(int32(w)), Distance: d}
	}
	return int64(v), nbrs, c.done()
}

// AppendCountResp encodes an OpCount payload (count-only joins).
func AppendCountResp(dst []byte, version, count int64) []byte {
	dst = AppendU64(dst, uint64(version))
	return AppendU64(dst, uint64(count))
}

// DecodeCountResp decodes an OpCount payload.
func DecodeCountResp(p []byte) (version, count int64, err error) {
	c := cursor{b: p}
	v, err := c.u64()
	if err != nil {
		return 0, 0, err
	}
	n, err := c.u64()
	if err != nil {
		return 0, 0, err
	}
	return int64(v), int64(n), c.done()
}

// AppendPairsResp encodes one OpPairs batch.
func AppendPairsResp(dst []byte, pairs []geom.Pair) []byte {
	dst = AppendU32(dst, uint32(len(pairs)))
	for _, p := range pairs {
		dst = AppendU32(dst, uint32(p.A))
		dst = AppendU32(dst, uint32(p.B))
	}
	return dst
}

// DecodePairsResp decodes one OpPairs batch, appending to dst (which may
// be nil) so streaming clients accumulate without re-allocating per
// frame.
func DecodePairsResp(p []byte, dst []geom.Pair) ([]geom.Pair, error) {
	c := cursor{b: p}
	n, err := c.u32()
	if err != nil {
		return dst, err
	}
	if int64(n)*8 != int64(c.remaining()) {
		return dst, malformed("pairs batch claims %d pairs, %d payload bytes remain", n, c.remaining())
	}
	for i := uint32(0); i < n; i++ {
		a, _ := c.u32()
		b, _ := c.u32() // sizes proven above
		dst = append(dst, geom.Pair{A: geom.ID(int32(a)), B: geom.ID(int32(b))})
	}
	return dst, c.done()
}

// AppendJoinDoneResp encodes an OpJoinDone payload: the answering
// version and the total pair count of the completed stream.
func AppendJoinDoneResp(dst []byte, version, count int64) []byte {
	return AppendCountResp(dst, version, count)
}

// DecodeJoinDoneResp decodes an OpJoinDone payload.
func DecodeJoinDoneResp(p []byte) (version, count int64, err error) {
	return DecodeCountResp(p)
}

// UpdateResp is a decoded OpUpdateDone payload.
type UpdateResp struct {
	// Version is the base version the update was applied against (the
	// answers merging it in still advertise this version).
	Version int64
	// FirstID is the first assigned insert ID, -1 when nothing was
	// inserted; the batch's IDs are consecutive from it.
	FirstID int64
	// Inserted and Deleted count the applied operations (Deleted counts
	// live objects actually tombstoned).
	Inserted int
	Deleted  int
	// DeltaInserts and DeltaTombstones are the dataset's pending delta
	// sizes after this update.
	DeltaInserts    int
	DeltaTombstones int
}

// AppendUpdateResp encodes an OpUpdateDone payload.
func AppendUpdateResp(dst []byte, r UpdateResp) []byte {
	dst = AppendU64(dst, uint64(r.Version))
	dst = AppendU64(dst, uint64(r.FirstID))
	dst = AppendU32(dst, uint32(r.Inserted))
	dst = AppendU32(dst, uint32(r.Deleted))
	dst = AppendU32(dst, uint32(r.DeltaInserts))
	return AppendU32(dst, uint32(r.DeltaTombstones))
}

// DecodeUpdateResp decodes an OpUpdateDone payload.
func DecodeUpdateResp(p []byte) (UpdateResp, error) {
	var r UpdateResp
	c := cursor{b: p}
	v, err := c.u64()
	if err != nil {
		return r, err
	}
	r.Version = int64(v)
	f, err := c.u64()
	if err != nil {
		return r, err
	}
	r.FirstID = int64(f)
	for _, dst := range []*int{&r.Inserted, &r.Deleted, &r.DeltaInserts, &r.DeltaTombstones} {
		w, err := c.u32()
		if err != nil {
			return r, err
		}
		*dst = int(w)
	}
	return r, c.done()
}

// MaxCatalogEntries caps the dataset count an OpCatalogResp frame may
// claim, bounding the decode allocation.
const MaxCatalogEntries = 65536

// CatalogEntry is one dataset row of an OpCatalogResp payload: the
// subset of the HTTP catalog listing a routing tier needs to merge
// listings and reason about replica freshness. It is also the row
// client.Datasets returns and, by its JSON tags, the row the router's
// GET /v1/datasets renders — one declaration, no copies between them.
type CatalogEntry struct {
	Name            string `json:"name"`
	Version         int64  `json:"version"`
	Status          string `json:"status"` // "ready", "building" or "rebuilding"
	Objects         int64  `json:"objects"`
	StaticBytes     int64  `json:"static_bytes"`
	Persisted       bool   `json:"persisted"`
	DeltaInserts    int    `json:"delta_inserts,omitempty"`
	DeltaTombstones int    `json:"delta_tombstones,omitempty"`
}

// catalogEntryMinSize is the smallest encoding of one entry (both
// strings empty): 2+8+2+8+8+4+4+1 bytes.
const catalogEntryMinSize = 37

// AppendCatalogResp encodes an OpCatalogResp payload:
//
//	u32 n | n × (str name | u64 version | str status | u64 objects |
//	             u64 staticBytes | u32 deltaInserts | u32 deltaTombstones |
//	             u8 persisted)
func AppendCatalogResp(dst []byte, entries []CatalogEntry) []byte {
	dst = AppendU32(dst, uint32(len(entries)))
	for _, e := range entries {
		dst = AppendStr(dst, e.Name)
		dst = AppendU64(dst, uint64(e.Version))
		dst = AppendStr(dst, e.Status)
		dst = AppendU64(dst, uint64(e.Objects))
		dst = AppendU64(dst, uint64(e.StaticBytes))
		dst = AppendU32(dst, uint32(e.DeltaInserts))
		dst = AppendU32(dst, uint32(e.DeltaTombstones))
		var p byte
		if e.Persisted {
			p = 1
		}
		dst = append(dst, p)
	}
	return dst
}

// DecodeCatalogResp decodes an OpCatalogResp payload. The strings are
// copied — catalog listings are rare and their rows outlive the frame.
func DecodeCatalogResp(p []byte) ([]CatalogEntry, error) {
	c := cursor{b: p}
	n, err := c.u32()
	if err != nil {
		return nil, err
	}
	if n > MaxCatalogEntries {
		return nil, malformed("catalog claims %d entries, cap is %d", n, MaxCatalogEntries)
	}
	if int(n)*catalogEntryMinSize > c.remaining() {
		return nil, malformed("catalog claims %d entries, payload holds at most %d", n, c.remaining()/catalogEntryMinSize)
	}
	entries := make([]CatalogEntry, 0, n)
	for i := uint32(0); i < n; i++ {
		var e CatalogEntry
		nb, err := c.str()
		if err != nil {
			return nil, err
		}
		e.Name = string(nb)
		v, err := c.u64()
		if err != nil {
			return nil, err
		}
		e.Version = int64(v)
		sb, err := c.str()
		if err != nil {
			return nil, err
		}
		e.Status = string(sb)
		o, err := c.u64()
		if err != nil {
			return nil, err
		}
		e.Objects = int64(o)
		b, err := c.u64()
		if err != nil {
			return nil, err
		}
		e.StaticBytes = int64(b)
		di, err := c.u32()
		if err != nil {
			return nil, err
		}
		e.DeltaInserts = int(di)
		dt, err := c.u32()
		if err != nil {
			return nil, err
		}
		e.DeltaTombstones = int(dt)
		pb, err := c.take(1)
		if err != nil {
			return nil, err
		}
		if pb[0] > 1 {
			return nil, malformed("catalog persisted flag %#02x is not a bool", pb[0])
		}
		e.Persisted = pb[0] == 1
		entries = append(entries, e)
	}
	return entries, c.done()
}

// AppendErrorResp encodes an OpError payload: a machine-readable code
// (the HTTP error vocabulary) and a human-readable message.
func AppendErrorResp(dst []byte, code, message string) []byte {
	dst = AppendStr(dst, code)
	if len(message) > math.MaxUint16 {
		message = message[:math.MaxUint16]
	}
	return AppendStr(dst, message)
}

// DecodeErrorResp decodes an OpError payload. The strings are copied —
// error paths are not the steady state, and callers keep them.
func DecodeErrorResp(p []byte) (code, message string, err error) {
	c := cursor{b: p}
	cb, err := c.str()
	if err != nil {
		return "", "", err
	}
	mb, err := c.str()
	if err != nil {
		return "", "", err
	}
	return string(cb), string(mb), c.done()
}

// MaxTracePhases caps the phase count an OpTrace frame may claim,
// bounding the decode allocation.
const MaxTracePhases = 64

// TraceResp is a decoded OpTrace payload: the server-assigned request
// ID, per-phase wall times in nanoseconds (indexed by the engine's
// phase order; the count may grow as phases are added), the engine
// counters for the request, and the cancel cause (0 none, 1 context,
// 2 stop).
type TraceResp struct {
	RequestID   string
	PhaseNs     []int64
	Comparisons int64
	NodeTests   int64
	Filtered    int64
	Results     int64
	Replicas    int64
	Cancel      byte
}

// AppendTraceResp encodes an OpTrace payload:
//
//	str requestID | u8 nPhases | nPhases×u64 ns |
//	u64 comparisons | u64 nodeTests | u64 filtered |
//	u64 results | u64 replicas | u8 cancel
func AppendTraceResp(dst []byte, r TraceResp) []byte {
	dst = AppendStr(dst, r.RequestID)
	dst = append(dst, byte(len(r.PhaseNs)))
	for _, ns := range r.PhaseNs {
		dst = AppendU64(dst, uint64(ns))
	}
	dst = AppendU64(dst, uint64(r.Comparisons))
	dst = AppendU64(dst, uint64(r.NodeTests))
	dst = AppendU64(dst, uint64(r.Filtered))
	dst = AppendU64(dst, uint64(r.Results))
	dst = AppendU64(dst, uint64(r.Replicas))
	return append(dst, r.Cancel)
}

// DecodeTraceResp decodes an OpTrace payload. The strings and slices
// are freshly allocated; trace frames are rare, not the steady state.
func DecodeTraceResp(p []byte) (TraceResp, error) {
	var r TraceResp
	c := cursor{b: p}
	rid, err := c.str()
	if err != nil {
		return r, err
	}
	r.RequestID = string(rid)
	nb, err := c.take(1)
	if err != nil {
		return r, err
	}
	n := int(nb[0])
	if n > MaxTracePhases {
		return r, malformed("trace claims %d phases, cap is %d", n, MaxTracePhases)
	}
	if int64(n)*8+5*8+1 != int64(c.remaining()) {
		return r, malformed("trace claims %d phases, %d payload bytes remain", n, c.remaining())
	}
	r.PhaseNs = make([]int64, n)
	for i := range r.PhaseNs {
		w, _ := c.u64() // size proven above
		r.PhaseNs[i] = int64(w)
	}
	for _, dst := range []*int64{&r.Comparisons, &r.NodeTests, &r.Filtered, &r.Results, &r.Replicas} {
		w, _ := c.u64() // size proven above
		*dst = int64(w)
	}
	cb, _ := c.take(1) // size proven above
	r.Cancel = cb[0]
	return r, c.done()
}
