// Package snapshot makes the index catalog durable: a versioned,
// checksummed binary format for one built dataset (name, version, the
// original objects and the frozen TOUCH tree) plus a crash-safe on-disk
// store with atomic replace semantics, quarantine of corrupt files and
// an injectable filesystem seam for fault testing.
//
// # Format
//
// A snapshot file is a 16-byte header followed by three sections:
//
//	magic "TCHSNAP1" | format version u32 | section count u32
//	meta    (name, version, builtAt, tree config, element counts)
//	objects (the dataset in load order: id + 6 coords per object)
//	tree    (the arena — every object again, id + 6 coords, in the tree's
//	         DFS leaf order — and the DFS pre-order node table)
//
// Every section is length-prefixed (u64) and carries a CRC32-Castagnoli
// of its payload; all integers are little-endian and floats are IEEE-754
// bit patterns. Decode verifies the magic, the format version, every
// length against the remaining input and every checksum before a single
// element is interpreted, then re-validates the structural invariants of
// the tree through core.Thaw — arbitrary corrupt bytes produce an error,
// never a panic and never a silently different index.
//
// # Durability
//
// Store.Put writes temp file → write → fsync → atomic rename → directory
// fsync, so a crash at any byte offset leaves either the complete old
// snapshot or the complete new one, never a torn hybrid. Store.Scan
// validates every file on startup and moves undecodable ones into
// corrupt/ instead of refusing to start.
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"time"

	"touch/internal/core"
	"touch/internal/geom"
)

// Record is the durable form of one catalog entry: identity, the
// dataset as loaded (the probe side of joins against other datasets),
// and the frozen index built over it.
type Record struct {
	Name    string
	Version int64
	BuiltAt time.Time
	Objects geom.Dataset
	Tree    *core.Frozen
}

// Magic identifies a snapshot file; the trailing "1" is the format
// generation, bumped together with FormatVersion on incompatible
// layouts.
const Magic = "TCHSNAP1"

// FormatVersion is the encoding version this package writes and the
// only one it reads.
const FormatVersion = 1

const (
	headerSize   = len(Magic) + 8 // magic + version u32 + section count u32
	sectionCount = 3

	objectSize = 4 + 6*8             // id + box corners
	nodeSize   = 6*8 + 4 + 4 + 4 + 8 // mbr + children + aStart + aEnd + extSumA

	// maxNameLen caps the encoded dataset name — matches the serving
	// layer's 128-char rule with headroom for other producers.
	maxNameLen = 4096
)

// castagnoli is the CRC32C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt is wrapped into every decode rejection — truncated input,
// checksum mismatch, impossible counts, failed tree validation; test
// with errors.Is.
var ErrCorrupt = errors.New("snapshot: corrupt")

func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// appendSection appends one length-prefixed, checksummed section.
func appendSection(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(payload)))
	dst = append(dst, payload...)
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, castagnoli))
}

func appendBox(dst []byte, b geom.Box) []byte {
	for d := 0; d < geom.Dims; d++ {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(b.Min[d]))
	}
	for d := 0; d < geom.Dims; d++ {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(b.Max[d]))
	}
	return dst
}

// Marshal encodes the record. The tree is not re-validated here — the
// producer is the live engine — but the element counts are
// cross-checked so an inconsistent record cannot be written at all.
func (r *Record) Marshal() ([]byte, error) {
	if len(r.Name) == 0 || len(r.Name) > maxNameLen {
		return nil, fmt.Errorf("snapshot: name length %d outside [1,%d]", len(r.Name), maxNameLen)
	}
	if r.Tree == nil {
		return nil, errors.New("snapshot: nil frozen tree")
	}
	if len(r.Objects) != len(r.Tree.Arena) {
		return nil, fmt.Errorf("snapshot: %d objects but %d arena entries — index built from a different dataset?",
			len(r.Objects), len(r.Tree.Arena))
	}

	meta := make([]byte, 0, 64+len(r.Name))
	meta = binary.LittleEndian.AppendUint32(meta, uint32(len(r.Name)))
	meta = append(meta, r.Name...)
	meta = binary.LittleEndian.AppendUint64(meta, uint64(r.Version))
	meta = binary.LittleEndian.AppendUint64(meta, uint64(r.BuiltAt.UnixNano()))
	cfg := r.Tree.Cfg
	meta = binary.LittleEndian.AppendUint32(meta, uint32(cfg.Partitions))
	meta = binary.LittleEndian.AppendUint32(meta, uint32(cfg.Fanout))
	meta = binary.LittleEndian.AppendUint32(meta, uint32(cfg.LocalCells))
	meta = binary.LittleEndian.AppendUint64(meta, math.Float64bits(cfg.CellFactor))
	meta = binary.LittleEndian.AppendUint32(meta, uint32(cfg.LocalJoin))
	meta = binary.LittleEndian.AppendUint32(meta, uint32(cfg.Workers))
	meta = binary.LittleEndian.AppendUint32(meta, uint32(len(r.Objects)))
	meta = binary.LittleEndian.AppendUint32(meta, uint32(len(r.Tree.Nodes)))
	meta = binary.LittleEndian.AppendUint32(meta, uint32(r.Tree.Leaves))
	meta = binary.LittleEndian.AppendUint32(meta, uint32(r.Tree.Height))

	objects := make([]byte, 0, len(r.Objects)*objectSize)
	for i := range r.Objects {
		objects = binary.LittleEndian.AppendUint32(objects, uint32(r.Objects[i].ID))
		objects = appendBox(objects, r.Objects[i].Box)
	}

	tree := make([]byte, 0, len(r.Tree.Arena)*objectSize+len(r.Tree.Nodes)*nodeSize)
	for i := range r.Tree.Arena {
		tree = binary.LittleEndian.AppendUint32(tree, uint32(r.Tree.Arena[i].ID))
		tree = appendBox(tree, r.Tree.Arena[i].Box)
	}
	for i := range r.Tree.Nodes {
		n := &r.Tree.Nodes[i]
		tree = appendBox(tree, n.MBR)
		tree = binary.LittleEndian.AppendUint32(tree, uint32(n.Children))
		tree = binary.LittleEndian.AppendUint32(tree, uint32(n.AStart))
		tree = binary.LittleEndian.AppendUint32(tree, uint32(n.AEnd))
		tree = binary.LittleEndian.AppendUint64(tree, math.Float64bits(n.ExtSumA))
	}

	out := make([]byte, 0, headerSize+len(meta)+len(objects)+len(tree)+3*12)
	out = append(out, Magic...)
	out = binary.LittleEndian.AppendUint32(out, FormatVersion)
	out = binary.LittleEndian.AppendUint32(out, sectionCount)
	out = appendSection(out, meta)
	out = appendSection(out, objects)
	out = appendSection(out, tree)
	return out, nil
}

// reader is a bounds-checked cursor over the raw snapshot bytes; every
// take is validated against the remaining input before it allocates or
// reads anything.
type reader struct {
	data []byte
	off  int
}

func (rd *reader) remaining() int { return len(rd.data) - rd.off }

// rest consumes and returns everything left — used after a section's
// exact size has been validated, so the bulk loops can decode with
// fixed-stride indexing instead of per-field cursor calls.
func (rd *reader) rest() []byte {
	b := rd.data[rd.off:]
	rd.off = len(rd.data)
	return b
}

func (rd *reader) take(n int) ([]byte, error) {
	if n < 0 || rd.remaining() < n {
		return nil, corrupt("truncated: need %d bytes at offset %d, have %d", n, rd.off, rd.remaining())
	}
	b := rd.data[rd.off : rd.off+n]
	rd.off += n
	return b, nil
}

func (rd *reader) u32() (uint32, error) {
	b, err := rd.take(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (rd *reader) u64() (uint64, error) {
	b, err := rd.take(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

func (rd *reader) f64() (float64, error) {
	v, err := rd.u64()
	return math.Float64frombits(v), err
}

func (rd *reader) box() (geom.Box, error) {
	var b geom.Box
	var err error
	for d := 0; d < geom.Dims; d++ {
		if b.Min[d], err = rd.f64(); err != nil {
			return b, err
		}
	}
	for d := 0; d < geom.Dims; d++ {
		if b.Max[d], err = rd.f64(); err != nil {
			return b, err
		}
	}
	return b, nil
}

// section pops one length-prefixed section and verifies its checksum.
func (rd *reader) section(name string) (*reader, error) {
	size, err := rd.u64()
	if err != nil {
		return nil, err
	}
	if size > uint64(rd.remaining()) {
		return nil, corrupt("%s section claims %d bytes, %d remain", name, size, rd.remaining())
	}
	payload, err := rd.take(int(size))
	if err != nil {
		return nil, err
	}
	sum, err := rd.u32()
	if err != nil {
		return nil, err
	}
	if got := crc32.Checksum(payload, castagnoli); got != sum {
		return nil, corrupt("%s section checksum %08x, want %08x", name, got, sum)
	}
	return &reader{data: payload}, nil
}

// Unmarshal decodes and fully validates a snapshot. Any deviation —
// truncation, checksum mismatch, counts that disagree with section
// sizes, a tree failing core.Thaw's structural checks — returns an
// error wrapping ErrCorrupt. The returned record owns its memory; data
// may be reused afterwards.
func Unmarshal(data []byte) (*Record, error) {
	rd := &reader{data: data}
	magic, err := rd.take(len(Magic))
	if err != nil {
		return nil, err
	}
	if string(magic) != Magic {
		return nil, corrupt("bad magic %q", magic)
	}
	version, err := rd.u32()
	if err != nil {
		return nil, err
	}
	if version != FormatVersion {
		return nil, corrupt("format version %d, this build reads %d", version, FormatVersion)
	}
	nsec, err := rd.u32()
	if err != nil {
		return nil, err
	}
	if nsec != sectionCount {
		return nil, corrupt("%d sections, want %d", nsec, sectionCount)
	}

	meta, err := rd.section("meta")
	if err != nil {
		return nil, err
	}
	rec := &Record{Tree: &core.Frozen{}}
	nameLen, err := meta.u32()
	if err != nil {
		return nil, err
	}
	if nameLen == 0 || nameLen > maxNameLen {
		return nil, corrupt("name length %d outside [1,%d]", nameLen, maxNameLen)
	}
	nameBytes, err := meta.take(int(nameLen))
	if err != nil {
		return nil, err
	}
	rec.Name = string(nameBytes)
	v, err := meta.u64()
	if err != nil {
		return nil, err
	}
	rec.Version = int64(v)
	builtNs, err := meta.u64()
	if err != nil {
		return nil, err
	}
	rec.BuiltAt = time.Unix(0, int64(builtNs)).UTC()
	var cfg core.Config
	var fields [3]uint32
	for i := range fields {
		if fields[i], err = meta.u32(); err != nil {
			return nil, err
		}
	}
	cfg.Partitions, cfg.Fanout, cfg.LocalCells = int(int32(fields[0])), int(int32(fields[1])), int(int32(fields[2]))
	if cfg.CellFactor, err = meta.f64(); err != nil {
		return nil, err
	}
	lj, err := meta.u32()
	if err != nil {
		return nil, err
	}
	cfg.LocalJoin = core.LocalJoinKind(int32(lj))
	wk, err := meta.u32()
	if err != nil {
		return nil, err
	}
	cfg.Workers = int(int32(wk))
	rec.Tree.Cfg = cfg
	var counts [4]uint32 // objects, nodes, leaves, height
	for i := range counts {
		if counts[i], err = meta.u32(); err != nil {
			return nil, err
		}
	}
	if meta.remaining() != 0 {
		return nil, corrupt("%d trailing bytes in meta section", meta.remaining())
	}
	nObj, nNodes := int(counts[0]), int(counts[1])
	rec.Tree.Leaves, rec.Tree.Height = int(counts[2]), int(counts[3])

	objects, err := rd.section("objects")
	if err != nil {
		return nil, err
	}
	if objects.remaining() != nObj*objectSize {
		return nil, corrupt("objects section is %d bytes, %d objects need %d", objects.remaining(), nObj, nObj*objectSize)
	}
	rec.Objects = make(geom.Dataset, nObj)
	if err := decodeObjects(objects.rest(), rec.Objects); err != nil {
		return nil, err
	}

	tree, err := rd.section("tree")
	if err != nil {
		return nil, err
	}
	if want := nObj*objectSize + nNodes*nodeSize; tree.remaining() != want {
		return nil, corrupt("tree section is %d bytes, %d arena + %d nodes need %d", tree.remaining(), nObj, nNodes, want)
	}
	treeBuf := tree.rest()
	rec.Tree.Arena = make(geom.Dataset, nObj)
	if err := decodeObjects(treeBuf[:nObj*objectSize], rec.Tree.Arena); err != nil {
		return nil, err
	}
	nodeBuf := treeBuf[nObj*objectSize:]
	rec.Tree.Nodes = make([]core.FrozenNode, nNodes)
	for i := range rec.Tree.Nodes {
		b := nodeBuf[i*nodeSize : i*nodeSize+nodeSize : i*nodeSize+nodeSize]
		n := &rec.Tree.Nodes[i]
		decodeBox(b, &n.MBR)
		n.Children = int32(binary.LittleEndian.Uint32(b[48:]))
		n.AStart = int32(binary.LittleEndian.Uint32(b[52:]))
		n.AEnd = int32(binary.LittleEndian.Uint32(b[56:]))
		n.ExtSumA = math.Float64frombits(binary.LittleEndian.Uint64(b[60:]))
	}
	if rd.remaining() != 0 {
		return nil, corrupt("%d trailing bytes after the last section", rd.remaining())
	}
	return rec, nil
}

// decodeBox reads the 48-byte corner layout appendBox writes into box.
// The caller guarantees len(b) >= 48.
func decodeBox(b []byte, box *geom.Box) {
	for d := 0; d < geom.Dims; d++ {
		box.Min[d] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*d:]))
		box.Max[d] = math.Float64frombits(binary.LittleEndian.Uint64(b[24+8*d:]))
	}
}

// decodeObjects decodes len(into) objects from buf, whose length the
// caller has already validated to be exactly len(into)*objectSize.
func decodeObjects(buf []byte, into geom.Dataset) error {
	for i := range into {
		b := buf[i*objectSize : i*objectSize+objectSize : i*objectSize+objectSize]
		o := &into[i]
		o.ID = geom.ID(int32(binary.LittleEndian.Uint32(b)))
		decodeBox(b[4:], &o.Box)
		// The loaders reject non-finite and inverted boxes, so no valid
		// producer can have written one — the same contract holds on the
		// way back in (non-finite coordinates poison grid sizing and STR
		// silently rather than loudly). lo <= hi rejects NaN and inverted
		// corners in one compare; x-x != 0 catches ±Inf (Inf-Inf = NaN).
		for d := 0; d < geom.Dims; d++ {
			lo, hi := o.Box.Min[d], o.Box.Max[d]
			if !(lo <= hi) || lo-lo != 0 || hi-hi != 0 {
				return corrupt("object %d has a non-finite or inverted box", i)
			}
		}
	}
	return nil
}

// Thaw validates the record's frozen tree and returns the live tree —
// the step between Unmarshal and serving. Split out so callers that
// only need the metadata (catalog scans, tooling) can skip it.
func (r *Record) Thaw() (*core.Tree, error) {
	t, err := core.Thaw(r.Tree)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return t, nil
}
