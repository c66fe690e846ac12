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
// maxZ). The field layout and the bounds-checked reader every payload
// decoder here reads through are internal/binfmt's, the same code
// internal/snapshot decodes with: exact-size validation, errors instead
// of panics on any malformed input.
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
// (absent means zero — the encoding without flags stays valid), which
// AppendQueryFlags appends to what the plain encoders wrote;
// QueryFlagTrace asks the server to emit a non-terminal OpTrace frame
// carrying the request's span immediately before the terminal response,
// as FlagTrace does for joins. The OpTrace payload is the engine's
// trace.Span, coded by AppendTrace and DecodeTrace. Every response that
// answers from an index carries the catalog version it answered from,
// so clients can pin or compare versions exactly as over HTTP. OpError
// (str code | str message) is the terminal response of a failed
// request; the codes are the same machine-readable vocabulary as the
// HTTP error bodies.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"touch/internal/binfmt"
	"touch/internal/geom"
	"touch/internal/trace"
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
	b = binfmt.AppendU32(b, Version)
	b = binfmt.AppendU16(b, uint16(len(info)))
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

// AppendStr appends a u16-length-prefixed string (names; capped at 64 KiB
// by the prefix width).
func AppendStr(dst []byte, s string) []byte {
	dst = binfmt.AppendU16(dst, uint16(len(s)))
	return append(dst, s...)
}

// payloadReader returns the reader every decoder reads its payload
// through; each ends with Done, so a payload longer or shorter than its
// contents is malformed.
func payloadReader(p []byte) binfmt.Reader { return binfmt.NewReader(p, ErrMalformed, "payload") }

// str reads a u16-prefixed string without copying; the bytes alias the
// payload and are only valid as long as it is.
func str(c *binfmt.Reader) []byte { return c.Take(int(c.U16())) }

// decodeIDs decodes a run of u32 IDs whose size the caller has checked.
func decodeIDs(raw []byte) []geom.ID {
	ids := make([]geom.ID, len(raw)/4)
	for i := range ids {
		ids[i] = geom.ID(int32(binary.LittleEndian.Uint32(raw[4*i:])))
	}
	return ids
}

// decodeBoxes decodes a run of boxes whose size the caller has checked.
func decodeBoxes(raw []byte) []geom.Box {
	boxes := make([]geom.Box, len(raw)/binfmt.BoxSize)
	for i := range boxes {
		binfmt.DecodeBox(raw[i*binfmt.BoxSize:], &boxes[i])
	}
	return boxes
}

// --- requests -----------------------------------------------------------

// RequestDataset returns the dataset name that opens every OpRange,
// OpPoint, OpKNN, OpJoin and OpUpdate payload — the leading str and
// nothing else, which is all a relay needs to place a request; the rest
// of the payload is for the server that executes it to judge. name
// aliases the payload.
func RequestDataset(p []byte) (name []byte, err error) {
	c := payloadReader(p)
	name = str(&c)
	return name, c.Err()
}

// AppendQueryFlags finishes an OpRange, OpPoint or OpKNN payload that
// one of the plain encoders wrote: the trailing flags byte is appended
// only when non-zero, so a zero-flag encoding is byte-identical to the
// pre-flags wire format.
func AppendQueryFlags(dst []byte, flags byte) []byte {
	if flags != 0 {
		dst = append(dst, flags)
	}
	return dst
}

// queryFlags ends a query request: the optional trailing flags byte
// (none left means flags zero; unknown bits are malformed) and nothing
// after it.
func queryFlags(c *binfmt.Reader) (byte, error) {
	if c.Remaining() == 0 {
		return 0, c.Done()
	}
	flags := c.U8()
	if flags&^QueryFlagTrace != 0 {
		return 0, malformed("unknown query flags %#02x", flags)
	}
	return flags, c.Done()
}

// AppendRangeReq encodes an OpRange payload with zero flags.
func AppendRangeReq(dst []byte, name string, b geom.Box) []byte {
	return binfmt.AppendBox(AppendStr(dst, name), b)
}

// DecodeRangeReq decodes an OpRange payload. name aliases the payload.
func DecodeRangeReq(p []byte) (name []byte, b geom.Box, flags byte, err error) {
	c := payloadReader(p)
	name, b = str(&c), c.Box()
	flags, err = queryFlags(&c)
	return name, b, flags, err
}

// AppendPointReq encodes an OpPoint payload with zero flags.
func AppendPointReq(dst []byte, name string, p geom.Point) []byte {
	dst = AppendStr(dst, name)
	for d := 0; d < geom.Dims; d++ {
		dst = binfmt.AppendF64(dst, p[d])
	}
	return dst
}

// DecodePointReq decodes an OpPoint payload. name aliases the payload.
func DecodePointReq(p []byte) (name []byte, pt geom.Point, flags byte, err error) {
	c := payloadReader(p)
	name = str(&c)
	for d := range pt {
		pt[d] = c.F64()
	}
	flags, err = queryFlags(&c)
	return name, pt, flags, err
}

// AppendKNNReq encodes an OpKNN payload with zero flags.
func AppendKNNReq(dst []byte, name string, p geom.Point, k int) []byte {
	return binfmt.AppendU32(AppendPointReq(dst, name, p), uint32(k))
}

// DecodeKNNReq decodes an OpKNN payload. name aliases the payload; k is
// returned as the signed interpretation of the wire word so the engine's
// k-validation sees negative values as negative.
func DecodeKNNReq(p []byte) (name []byte, pt geom.Point, k int, flags byte, err error) {
	c := payloadReader(p)
	name = str(&c)
	for d := range pt {
		pt[d] = c.F64()
	}
	k = int(int32(c.U32()))
	flags, err = queryFlags(&c)
	return name, pt, k, flags, err
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

// AppendJoinReq encodes an OpJoin payload. flags carries FlagCountOnly
// and FlagTrace; FlagNamedProbe is derived from probeName, which selects
// a named probe when non-empty — boxes are the inline probe otherwise.
func AppendJoinReq(dst []byte, name string, eps float64, workers int, flags byte, probeName string, boxes []geom.Box) []byte {
	dst = AppendStr(dst, name)
	dst = binfmt.AppendF64(dst, eps)
	dst = binfmt.AppendU32(dst, uint32(workers))
	if probeName != "" {
		flags |= FlagNamedProbe
	} else {
		flags &^= FlagNamedProbe
	}
	dst = append(dst, flags)
	if probeName != "" {
		return AppendStr(dst, probeName)
	}
	dst = binfmt.AppendU32(dst, uint32(len(boxes)))
	for _, b := range boxes {
		dst = binfmt.AppendBox(dst, b)
	}
	return dst
}

// DecodeJoinReq decodes an OpJoin payload. The inline box count must
// agree exactly with the remaining payload size before anything is
// allocated, so a hostile count field cannot oversize the allocation
// beyond the frame the bytes actually arrived in.
func DecodeJoinReq(p []byte) (JoinReq, error) {
	c := payloadReader(p)
	req := JoinReq{Name: str(&c), Eps: c.F64(), Workers: int(int32(c.U32()))}
	flags := c.U8()
	if flags&^(FlagCountOnly|FlagNamedProbe|FlagTrace) != 0 {
		return req, malformed("unknown join flags %#02x", flags)
	}
	req.CountOnly = flags&FlagCountOnly != 0
	req.Trace = flags&FlagTrace != 0
	if flags&FlagNamedProbe != 0 {
		req.ProbeName = str(&c)
		return req, c.Done()
	}
	n := c.U32()
	if err := c.Err(); err != nil {
		return req, err
	}
	if int64(n)*binfmt.BoxSize != int64(c.Remaining()) {
		return req, malformed("join claims %d probe boxes, %d payload bytes remain", n, c.Remaining())
	}
	req.Boxes = decodeBoxes(c.Take(int(n) * binfmt.BoxSize))
	return req, c.Done()
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
	dst = binfmt.AppendU32(dst, uint32(len(deletes)))
	for _, id := range deletes {
		dst = binfmt.AppendU32(dst, uint32(id))
	}
	dst = binfmt.AppendU32(dst, uint32(len(inserts)))
	for _, b := range inserts {
		dst = binfmt.AppendBox(dst, b)
	}
	return dst
}

// DecodeUpdateReq decodes an OpUpdate payload. Both counts are validated
// against the remaining payload size before anything is allocated, and
// the insert count must consume the payload exactly.
func DecodeUpdateReq(p []byte) (UpdateReq, error) {
	c := payloadReader(p)
	req := UpdateReq{Name: str(&c)}
	nDel := c.U32()
	if err := c.Err(); err != nil {
		return req, err
	}
	// The delete section is followed by at least the 4-byte insert count.
	if int64(nDel)*4+4 > int64(c.Remaining()) {
		return req, malformed("update claims %d delete ids, %d payload bytes remain", nDel, c.Remaining())
	}
	req.Deletes = decodeIDs(c.Take(4 * int(nDel)))
	nIns := c.U32() // size proven above
	if int64(nIns)*binfmt.BoxSize != int64(c.Remaining()) {
		return req, malformed("update claims %d insert boxes, %d payload bytes remain", nIns, c.Remaining())
	}
	req.Inserts = decodeBoxes(c.Take(int(nIns) * binfmt.BoxSize))
	return req, c.Done()
}

// --- responses ----------------------------------------------------------

// AppendIDsResp encodes an OpIDs payload: the answering catalog version
// and the result IDs.
func AppendIDsResp(dst []byte, version int64, ids []geom.ID) []byte {
	dst = binfmt.AppendU64(dst, uint64(version))
	dst = binfmt.AppendU32(dst, uint32(len(ids)))
	for _, id := range ids {
		dst = binfmt.AppendU32(dst, uint32(id))
	}
	return dst
}

// DecodeIDsResp decodes an OpIDs payload. The count must agree exactly
// with the payload size; the returned slice is freshly allocated.
func DecodeIDsResp(p []byte) (version int64, ids []geom.ID, err error) {
	c := payloadReader(p)
	version = int64(c.U64())
	n := c.U32()
	if err := c.Err(); err != nil {
		return 0, nil, err
	}
	if int64(n)*4 != int64(c.Remaining()) {
		return 0, nil, malformed("ids response claims %d ids, %d payload bytes remain", n, c.Remaining())
	}
	return version, decodeIDs(c.Take(4 * int(n))), c.Done()
}

// AppendNeighborsResp encodes an OpNeighbors payload.
func AppendNeighborsResp(dst []byte, version int64, nbrs []geom.Neighbor) []byte {
	dst = binfmt.AppendU64(dst, uint64(version))
	dst = binfmt.AppendU32(dst, uint32(len(nbrs)))
	for _, n := range nbrs {
		dst = binfmt.AppendU32(dst, uint32(n.ID))
		dst = binfmt.AppendF64(dst, n.Distance)
	}
	return dst
}

// DecodeNeighborsResp decodes an OpNeighbors payload.
func DecodeNeighborsResp(p []byte) (version int64, nbrs []geom.Neighbor, err error) {
	c := payloadReader(p)
	version = int64(c.U64())
	n := c.U32()
	if err := c.Err(); err != nil {
		return 0, nil, err
	}
	if int64(n)*12 != int64(c.Remaining()) {
		return 0, nil, malformed("neighbors response claims %d entries, %d payload bytes remain", n, c.Remaining())
	}
	raw := c.Take(12 * int(n))
	nbrs = make([]geom.Neighbor, n)
	for i := range nbrs {
		e := raw[12*i:]
		nbrs[i] = geom.Neighbor{
			ID:       geom.ID(int32(binary.LittleEndian.Uint32(e))),
			Distance: math.Float64frombits(binary.LittleEndian.Uint64(e[4:])),
		}
	}
	return version, nbrs, c.Done()
}

// AppendCountResp encodes an OpCount payload (count-only joins).
func AppendCountResp(dst []byte, version, count int64) []byte {
	dst = binfmt.AppendU64(dst, uint64(version))
	return binfmt.AppendU64(dst, uint64(count))
}

// DecodeCountResp decodes an OpCount payload.
func DecodeCountResp(p []byte) (version, count int64, err error) {
	c := payloadReader(p)
	version, count = int64(c.U64()), int64(c.U64())
	return version, count, c.Done()
}

// AppendPairsResp encodes one OpPairs batch.
func AppendPairsResp(dst []byte, pairs []geom.Pair) []byte {
	dst = binfmt.AppendU32(dst, uint32(len(pairs)))
	for _, p := range pairs {
		dst = binfmt.AppendU32(dst, uint32(p.A))
		dst = binfmt.AppendU32(dst, uint32(p.B))
	}
	return dst
}

// DecodePairsResp decodes one OpPairs batch, appending to dst (which may
// be nil) so streaming clients accumulate without re-allocating per
// frame.
func DecodePairsResp(p []byte, dst []geom.Pair) ([]geom.Pair, error) {
	c := payloadReader(p)
	n := c.U32()
	if err := c.Err(); err != nil {
		return dst, err
	}
	if int64(n)*8 != int64(c.Remaining()) {
		return dst, malformed("pairs batch claims %d pairs, %d payload bytes remain", n, c.Remaining())
	}
	raw := c.Take(8 * int(n))
	for i := 0; i < len(raw); i += 8 {
		dst = append(dst, geom.Pair{
			A: geom.ID(int32(binary.LittleEndian.Uint32(raw[i:]))),
			B: geom.ID(int32(binary.LittleEndian.Uint32(raw[i+4:]))),
		})
	}
	return dst, c.Done()
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
	dst = binfmt.AppendU64(dst, uint64(r.Version))
	dst = binfmt.AppendU64(dst, uint64(r.FirstID))
	dst = binfmt.AppendU32(dst, uint32(r.Inserted))
	dst = binfmt.AppendU32(dst, uint32(r.Deleted))
	dst = binfmt.AppendU32(dst, uint32(r.DeltaInserts))
	return binfmt.AppendU32(dst, uint32(r.DeltaTombstones))
}

// DecodeUpdateResp decodes an OpUpdateDone payload.
func DecodeUpdateResp(p []byte) (UpdateResp, error) {
	c := payloadReader(p)
	r := UpdateResp{
		Version:         int64(c.U64()),
		FirstID:         int64(c.U64()),
		Inserted:        int(c.U32()),
		Deleted:         int(c.U32()),
		DeltaInserts:    int(c.U32()),
		DeltaTombstones: int(c.U32()),
	}
	return r, c.Done()
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
	dst = binfmt.AppendU32(dst, uint32(len(entries)))
	for _, e := range entries {
		dst = AppendStr(dst, e.Name)
		dst = binfmt.AppendU64(dst, uint64(e.Version))
		dst = AppendStr(dst, e.Status)
		dst = binfmt.AppendU64(dst, uint64(e.Objects))
		dst = binfmt.AppendU64(dst, uint64(e.StaticBytes))
		dst = binfmt.AppendU32(dst, uint32(e.DeltaInserts))
		dst = binfmt.AppendU32(dst, uint32(e.DeltaTombstones))
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
	c := payloadReader(p)
	n := c.U32()
	if err := c.Err(); err != nil {
		return nil, err
	}
	if n > MaxCatalogEntries {
		return nil, malformed("catalog claims %d entries, cap is %d", n, MaxCatalogEntries)
	}
	if int(n)*catalogEntryMinSize > c.Remaining() {
		return nil, malformed("catalog claims %d entries, payload holds at most %d", n, c.Remaining()/catalogEntryMinSize)
	}
	entries := make([]CatalogEntry, n)
	for i := range entries {
		e := &entries[i]
		e.Name = string(str(&c))
		e.Version = int64(c.U64())
		e.Status = string(str(&c))
		e.Objects = int64(c.U64())
		e.StaticBytes = int64(c.U64())
		e.DeltaInserts = int(c.U32())
		e.DeltaTombstones = int(c.U32())
		persisted := c.U8()
		if persisted > 1 {
			return nil, malformed("catalog persisted flag %#02x is not a bool", persisted)
		}
		e.Persisted = persisted == 1
	}
	return entries, c.Done()
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
	c := payloadReader(p)
	code, message = string(str(&c)), string(str(&c))
	return code, message, c.Done()
}

// MaxTracePhases caps the phase count an OpTrace frame may claim; a
// larger count is malformed.
const MaxTracePhases = 64

// AppendTrace encodes a span as an OpTrace payload:
//
//	str requestID | u8 nPhases | nPhases×u64 ns |
//	u64 comparisons | u64 nodeTests | u64 filtered |
//	u64 results | u64 replicas | u8 cancel
//
// The phase slots follow the engine's phase order, all trace.NumPhases
// of them; cancel is the stats cancel cause (0 none, 1 context, 2 stop).
func AppendTrace(dst []byte, s *trace.Span) []byte {
	dst = AppendStr(dst, s.RequestID)
	dst = append(dst, byte(len(s.Durations)))
	for _, d := range s.Durations {
		dst = binfmt.AppendU64(dst, uint64(d))
	}
	for _, n := range [...]int64{s.Comparisons, s.NodeTests, s.Filtered, s.Results, s.Replicas} {
		dst = binfmt.AppendU64(dst, uint64(n))
	}
	return append(dst, byte(s.Cancel))
}

// DecodeTrace decodes an OpTrace payload. A peer may know a different
// number of phases: slots past trace.NumPhases are dropped, and slots it
// did not send stay zero.
func DecodeTrace(p []byte) (trace.Span, error) {
	c := payloadReader(p)
	s := trace.Span{RequestID: string(str(&c))}
	n := int(c.U8())
	if err := c.Err(); err != nil {
		return s, err
	}
	if n > MaxTracePhases {
		return s, malformed("trace claims %d phases, cap is %d", n, MaxTracePhases)
	}
	if int64(n)*8+5*8+1 != int64(c.Remaining()) {
		return s, malformed("trace claims %d phases, %d payload bytes remain", n, c.Remaining())
	}
	for i := 0; i < n; i++ {
		if d := time.Duration(c.U64()); i < len(s.Durations) {
			s.Durations[i] = d
		}
	}
	for _, dst := range []*int64{&s.Comparisons, &s.NodeTests, &s.Filtered, &s.Results, &s.Replicas} {
		*dst = int64(c.U64())
	}
	s.Cancel = int32(c.U8())
	return s, c.Done()
}
