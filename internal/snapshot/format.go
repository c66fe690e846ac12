// Package snapshot makes the index catalog durable: a versioned,
// checksummed binary format for one serving version of a dataset (name,
// version, and per index tier the objects and the frozen TOUCH tree over
// them, plus the tombstones and the ID high-water mark) and a crash-safe
// on-disk store with atomic replace semantics, quarantine of corrupt
// files and an injectable filesystem seam for fault testing.
//
// # Format
//
// A snapshot file is a 16-byte header followed by its sections:
//
//	magic "TCHSNAP1" | format version u32 | section count u32
//	meta    (name, version, builtAt, next insert ID, tombstone and tier
//	         counts; per tier the tree config and the element counts)
//	per tier, base first:
//	  objects (the tier's dataset, ID-ascending — load order for a
//	           dataset that was never updated: id + 6 coords per object)
//	  tree    (the arena — every object again, id + 6 coords, in the
//	           tree's DFS leaf order — and the DFS pre-order node table)
//	tombs   (the IDs, ascending, of objects the tiers hold but that have
//	         been deleted: u32 each)
//
// That is format 2. Format 1, which this package still reads and no
// longer writes, is one tier without the tombs section and without the
// next-ID and count fields in meta; it decodes as a record with no
// tombstones and no high-water mark (NextID 0: one above the largest ID).
// The next insert ID is persisted because it cannot be recomputed: once
// a fold has dropped the objects with the highest IDs, the largest
// surviving ID no longer tells which IDs were ever issued.
//
// Every section is length-prefixed (u64) and carries a CRC32-Castagnoli
// of its payload; all integers are little-endian and floats are IEEE-754
// bit patterns. Decode verifies the magic, the format version, every
// length against the remaining input and every checksum before a single
// element is interpreted, checks what the readers lean on across tiers —
// ascending, disjoint ID ranges, tombstones that name held objects — and
// then re-validates the structural invariants of every tree through
// core.Thaw: arbitrary corrupt bytes produce an error, never a panic and
// never a silently different index.
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
	"slices"
	"time"

	"touch/internal/core"
	"touch/internal/geom"
)

// Record is the durable form of one catalog entry: identity, the index
// tiers, the tombstones over them and the next insert ID.
type Record struct {
	Name    string
	Version int64
	BuiltAt time.Time
	// Tiers holds the index tiers, base first; never empty.
	Tiers []Tier
	// Tombs lists, ascending, the IDs of deleted objects a tier still
	// holds.
	Tombs []geom.ID
	// NextID is the ID the next insert receives; 0 when the file carried
	// none (format 1), meaning one above the largest ID held.
	NextID geom.ID
}

// Tier is one index tier of a Record: the dataset (the probe side of
// joins against other datasets, and what a fold merges) and the frozen
// index built over it.
type Tier struct {
	Objects geom.Dataset
	Tree    *core.Frozen
}

// Magic identifies a snapshot file. Layout changes bump FormatVersion
// and leave the magic alone, so a build that meets a newer file says
// which version it cannot read.
const Magic = "TCHSNAP1"

// FormatVersion is the encoding version this package writes; it reads
// this one and formatV1.
const (
	FormatVersion = 2
	formatV1      = 1
)

const (
	headerSize = len(Magic) + 8 // magic + version u32 + section count u32

	objectSize   = 4 + 6*8             // id + box corners
	nodeSize     = 6*8 + 4 + 4 + 4 + 8 // mbr + children + aStart + aEnd + extSumA
	tierMetaSize = 3*4 + 8 + 2*4 + 4*4 // config + objects, nodes, leaves, height

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

// Marshal encodes the record in the current format. The trees are not
// re-validated here — the producer is the live engine — but the element
// counts are cross-checked so an inconsistent record cannot be written
// at all.
func (r *Record) Marshal() ([]byte, error) {
	if len(r.Name) == 0 || len(r.Name) > maxNameLen {
		return nil, fmt.Errorf("snapshot: name length %d outside [1,%d]", len(r.Name), maxNameLen)
	}
	if len(r.Tiers) == 0 {
		return nil, errors.New("snapshot: no tiers")
	}
	size := headerSize
	for i, t := range r.Tiers {
		if t.Tree == nil {
			return nil, fmt.Errorf("snapshot: tier %d: nil frozen tree", i)
		}
		if len(t.Objects) != len(t.Tree.Arena) {
			return nil, fmt.Errorf("snapshot: tier %d: %d objects but %d arena entries — index built from a different dataset?",
				i, len(t.Objects), len(t.Tree.Arena))
		}
		size += 2*len(t.Objects)*objectSize + len(t.Tree.Nodes)*nodeSize
	}

	meta := make([]byte, 0, 64+len(r.Name)+len(r.Tiers)*tierMetaSize)
	meta = binary.LittleEndian.AppendUint32(meta, uint32(len(r.Name)))
	meta = append(meta, r.Name...)
	meta = binary.LittleEndian.AppendUint64(meta, uint64(r.Version))
	meta = binary.LittleEndian.AppendUint64(meta, uint64(r.BuiltAt.UnixNano()))
	meta = binary.LittleEndian.AppendUint32(meta, uint32(r.NextID))
	meta = binary.LittleEndian.AppendUint32(meta, uint32(len(r.Tombs)))
	meta = binary.LittleEndian.AppendUint32(meta, uint32(len(r.Tiers)))
	for _, t := range r.Tiers {
		cfg := t.Tree.Cfg
		meta = binary.LittleEndian.AppendUint32(meta, uint32(cfg.Partitions))
		meta = binary.LittleEndian.AppendUint32(meta, uint32(cfg.Fanout))
		meta = binary.LittleEndian.AppendUint32(meta, uint32(cfg.LocalCells))
		meta = binary.LittleEndian.AppendUint64(meta, math.Float64bits(cfg.CellFactor))
		meta = binary.LittleEndian.AppendUint32(meta, uint32(cfg.LocalJoin))
		meta = binary.LittleEndian.AppendUint32(meta, uint32(cfg.Workers))
		meta = binary.LittleEndian.AppendUint32(meta, uint32(len(t.Objects)))
		meta = binary.LittleEndian.AppendUint32(meta, uint32(len(t.Tree.Nodes)))
		meta = binary.LittleEndian.AppendUint32(meta, uint32(t.Tree.Leaves))
		meta = binary.LittleEndian.AppendUint32(meta, uint32(t.Tree.Height))
	}

	sections := 2 + 2*len(r.Tiers)
	out := make([]byte, 0, size+len(meta)+4*len(r.Tombs)+12*sections)
	out = append(out, Magic...)
	out = binary.LittleEndian.AppendUint32(out, FormatVersion)
	out = binary.LittleEndian.AppendUint32(out, uint32(sections))
	out = appendSection(out, meta)
	var buf []byte
	for _, t := range r.Tiers {
		buf = appendObjects(buf[:0], t.Objects)
		out = appendSection(out, buf)
		buf = appendObjects(buf[:0], t.Tree.Arena)
		for i := range t.Tree.Nodes {
			n := &t.Tree.Nodes[i]
			buf = appendBox(buf, n.MBR)
			buf = binary.LittleEndian.AppendUint32(buf, uint32(n.Children))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(n.AStart))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(n.AEnd))
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(n.ExtSumA))
		}
		out = appendSection(out, buf)
	}
	buf = buf[:0]
	for _, id := range r.Tombs {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(id))
	}
	return appendSection(out, buf), nil
}

func appendObjects(dst []byte, objs []geom.Object) []byte {
	dst = slices.Grow(dst, len(objs)*objectSize)
	for i := range objs {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(objs[i].ID))
		dst = appendBox(dst, objs[i].Box)
	}
	return dst
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

// Unmarshal decodes and fully validates a snapshot of either format. Any
// deviation — truncation, checksum mismatch, counts that disagree with
// section sizes, tiers or tombstones out of order — returns an error
// wrapping ErrCorrupt (so does a tree failing core.Thaw's structural
// checks, in Thaw). The returned record owns its memory; data may be
// reused afterwards.
func Unmarshal(data []byte) (*Record, error) {
	rd := &reader{data: data}
	magic, err := rd.take(len(Magic))
	if err != nil {
		return nil, err
	}
	if string(magic) != Magic {
		return nil, corrupt("bad magic %q", magic)
	}
	format, err := rd.u32()
	if err != nil {
		return nil, err
	}
	if format != FormatVersion && format != formatV1 {
		return nil, corrupt("format version %d, this build reads %d and %d", format, formatV1, FormatVersion)
	}
	nsec, err := rd.u32()
	if err != nil {
		return nil, err
	}

	meta, err := rd.section("meta")
	if err != nil {
		return nil, err
	}
	rec := &Record{}
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
	nTombs, nTiers, wantSections := 0, 1, uint32(3)
	if format != formatV1 {
		var fields [3]uint32 // next ID, tombstones, tiers
		for i := range fields {
			if fields[i], err = meta.u32(); err != nil {
				return nil, err
			}
		}
		if int32(fields[0]) < 0 {
			return nil, corrupt("next insert ID %d", int32(fields[0]))
		}
		rec.NextID = geom.ID(fields[0])
		// The tier count is checked against the bytes that are there
		// before anything is sized by it.
		if fields[2] == 0 || uint64(fields[2])*tierMetaSize != uint64(meta.remaining()) {
			return nil, corrupt("%d tiers in a meta section with %d bytes left", fields[2], meta.remaining())
		}
		nTombs, nTiers = int(fields[1]), int(fields[2])
		wantSections = uint32(2 + 2*nTiers)
	}
	if nsec != wantSections {
		return nil, corrupt("%d sections, want %d", nsec, wantSections)
	}
	rec.Tiers = make([]Tier, nTiers)
	counts := make([][2]int, nTiers) // objects, nodes
	for i := range rec.Tiers {
		f := &core.Frozen{}
		var fields [3]uint32
		for j := range fields {
			if fields[j], err = meta.u32(); err != nil {
				return nil, err
			}
		}
		f.Cfg.Partitions, f.Cfg.Fanout, f.Cfg.LocalCells = int(int32(fields[0])), int(int32(fields[1])), int(int32(fields[2]))
		if f.Cfg.CellFactor, err = meta.f64(); err != nil {
			return nil, err
		}
		lj, err := meta.u32()
		if err != nil {
			return nil, err
		}
		f.Cfg.LocalJoin = core.LocalJoinKind(int32(lj))
		wk, err := meta.u32()
		if err != nil {
			return nil, err
		}
		f.Cfg.Workers = int(int32(wk))
		var c [4]uint32 // objects, nodes, leaves, height
		for j := range c {
			if c[j], err = meta.u32(); err != nil {
				return nil, err
			}
		}
		counts[i] = [2]int{int(c[0]), int(c[1])}
		f.Leaves, f.Height = int(c[2]), int(c[3])
		rec.Tiers[i].Tree = f
	}
	if meta.remaining() != 0 {
		return nil, corrupt("%d trailing bytes in meta section", meta.remaining())
	}

	for i := range rec.Tiers {
		t, nObj, nNodes := &rec.Tiers[i], counts[i][0], counts[i][1]
		objects, err := rd.section("objects")
		if err != nil {
			return nil, err
		}
		if objects.remaining() != nObj*objectSize {
			return nil, corrupt("objects section is %d bytes, %d objects need %d", objects.remaining(), nObj, nObj*objectSize)
		}
		t.Objects = make(geom.Dataset, nObj)
		if err := decodeObjects(objects.rest(), t.Objects); err != nil {
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
		t.Tree.Arena = make(geom.Dataset, nObj)
		if err := decodeObjects(treeBuf[:nObj*objectSize], t.Tree.Arena); err != nil {
			return nil, err
		}
		nodeBuf := treeBuf[nObj*objectSize:]
		t.Tree.Nodes = make([]core.FrozenNode, nNodes)
		for i := range t.Tree.Nodes {
			b := nodeBuf[i*nodeSize : i*nodeSize+nodeSize : i*nodeSize+nodeSize]
			n := &t.Tree.Nodes[i]
			decodeBox(b, &n.MBR)
			n.Children = int32(binary.LittleEndian.Uint32(b[48:]))
			n.AStart = int32(binary.LittleEndian.Uint32(b[52:]))
			n.AEnd = int32(binary.LittleEndian.Uint32(b[56:]))
			n.ExtSumA = math.Float64frombits(binary.LittleEndian.Uint64(b[60:]))
		}
	}
	if format != formatV1 {
		tombs, err := rd.section("tombs")
		if err != nil {
			return nil, err
		}
		if tombs.remaining() != 4*nTombs {
			return nil, corrupt("tombs section is %d bytes, %d tombstones need %d", tombs.remaining(), nTombs, 4*nTombs)
		}
		buf := tombs.rest()
		rec.Tombs = make([]geom.ID, nTombs)
		for i := range rec.Tombs {
			rec.Tombs[i] = geom.ID(int32(binary.LittleEndian.Uint32(buf[4*i:])))
		}
	}
	if rd.remaining() != 0 {
		return nil, corrupt("%d trailing bytes after the last section", rd.remaining())
	}
	if err := rec.checkTiers(); err != nil {
		return nil, err
	}
	return rec, nil
}

// checkTiers verifies what merged reads lean on once a record holds more
// than a dataset as it was loaded: every tier ID-ascending, the tiers'
// ID ranges ascending without overlap, no empty tier above the base, and
// the tombstones ascending, each naming an object some tier holds. A
// lone tier without tombstones is taken in whatever order it was loaded.
func (r *Record) checkTiers() error {
	if len(r.Tiers) == 1 && len(r.Tombs) == 0 {
		return nil
	}
	last, seen := geom.ID(0), false
	for i, t := range r.Tiers {
		if i > 0 && len(t.Objects) == 0 {
			return corrupt("tier %d is empty", i)
		}
		for j := range t.Objects {
			id := t.Objects[j].ID
			if seen && id <= last {
				return corrupt("tier %d object %d has ID %d, not above %d", i, j, id, last)
			}
			last, seen = id, true
		}
	}
	for i, id := range r.Tombs {
		if i > 0 && id <= r.Tombs[i-1] {
			return corrupt("tombstone %d is %d, not above %d", i, id, r.Tombs[i-1])
		}
		held := false
		for _, t := range r.Tiers {
			if _, held = slices.BinarySearchFunc(t.Objects, id, func(o geom.Object, id geom.ID) int { return int(o.ID) - int(id) }); held {
				break
			}
		}
		if !held {
			return corrupt("tombstone %d names no object of any tier", id)
		}
	}
	return nil
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

// Thaw validates the record's frozen trees and returns the live ones,
// base first — the step between Unmarshal and serving. Split out so
// callers that only need the metadata (catalog scans, tooling) can skip
// it.
func (r *Record) Thaw() ([]*core.Tree, error) {
	trees := make([]*core.Tree, len(r.Tiers))
	for i, t := range r.Tiers {
		tree, err := core.Thaw(t.Tree)
		if err != nil {
			return nil, fmt.Errorf("%w: tier %d: %v", ErrCorrupt, i, err)
		}
		trees[i] = tree
	}
	return trees, nil
}
