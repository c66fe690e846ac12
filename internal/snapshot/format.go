// Package snapshot makes the index catalog durable: a versioned,
// checksummed binary format for one serving version of a dataset (name,
// version, and per index tier the frozen TOUCH tree, whose arena is the
// tier's only copy of its objects, plus the tombstones and the ID
// high-water mark) and a crash-safe on-disk store with atomic replace
// semantics, quarantine of corrupt files and an injectable filesystem
// seam for fault testing.
//
// # Format
//
// A snapshot file is a 16-byte header followed by its sections:
//
//	magic "TCHSNAP1" | format version u32 | section count u32
//	meta    (name, version, builtAt, next insert ID, tombstone and tier
//	         counts; per tier the tree config — partitions, fanout,
//	         local cells, cell factor, local-join kind, then a retired
//	         u32 worker slot, written 0 and ignored on read — and the
//	         element counts)
//	per tier, base first:
//	  tree    (the arena — every object of the tier, id + 6 coords, in
//	           the tree's DFS leaf order — and the DFS pre-order node
//	           table)
//	tombs   (the IDs, ascending, of objects the tiers hold but that have
//	         been deleted: u32 each)
//
// That is format 3. The arena is what every reader scans, and its IDs,
// gathered into runs of consecutive IDs on decode, are what the tiers'
// ID ranges, the tombstones and the ID order a fold merges in are
// checked and rebuilt from. Formats 1 and 2, which this package still
// reads and no longer writes, put an objects section before each tree
// section — the tier's dataset again, id + 6 coords per object — that
// decode checks against the arena, object for object, and then drops: a
// file whose two copies disagree is corrupt. Format 2's meta is format
// 3's; format 1 is one tier without the tombs section and without the
// next-ID and count fields in meta, and decodes as a record with no
// tombstones and no high-water mark (NextID 0: one above the largest
// ID). The next insert ID is persisted because it cannot be recomputed:
// once a fold has dropped the objects with the highest IDs, the largest
// surviving ID no longer tells which IDs were ever issued.
//
// Every section is length-prefixed (u64) and carries a CRC32-Castagnoli
// of its payload; all integers are little-endian and floats are IEEE-754
// bit patterns. Decode verifies the magic, the format version, every
// length against the remaining input and every checksum before a single
// element is interpreted, checks what the readers lean on across tiers —
// distinct IDs in every tier, ascending, disjoint ID ranges, tombstones
// that name held objects — and then re-validates the structural
// invariants of every tree through core.Thaw: arbitrary corrupt bytes
// produce an error, never a panic and never a silently different index.
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

	"touch/internal/binfmt"
	"touch/internal/core"
	"touch/internal/delta"
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

// Tier is one index tier of a Record: the frozen index, whose arena
// holds the tier's objects, and the set of their IDs.
type Tier struct {
	Tree *core.Frozen
	// IDs is the set of the arena's IDs. Unmarshal fills it in, having
	// checked them; Marshal does not read it.
	IDs delta.IDs
}

// Magic identifies a snapshot file. Layout changes bump FormatVersion
// and leave the magic alone, so a build that meets a newer file says
// which version it cannot read.
const Magic = "TCHSNAP1"

// FormatVersion is the encoding version this package writes; it reads
// this one, formatV2 and formatV1.
const (
	FormatVersion = 3
	formatV2      = 2
	formatV1      = 1
)

const (
	headerSize = len(Magic) + 8 // magic + version u32 + section count u32

	objectSize   = 4 + binfmt.BoxSize             // id + box corners
	nodeSize     = binfmt.BoxSize + 4 + 4 + 4 + 8 // mbr + children + aStart + aEnd + extSumA
	tierMetaSize = 3*4 + 8 + 2*4 + 4*4            // config + objects, nodes, leaves, height

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
	dst = binfmt.AppendU64(dst, uint64(len(payload)))
	dst = append(dst, payload...)
	return binfmt.AppendU32(dst, crc32.Checksum(payload, castagnoli))
}

// Marshal encodes the record in the current format. The trees are not
// re-validated here — the producer is the live engine, and Unmarshal
// checks everything on the way back.
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
		size += len(t.Tree.IDs)*objectSize + len(t.Tree.Nodes)*nodeSize
	}

	meta := make([]byte, 0, 64+len(r.Name)+len(r.Tiers)*tierMetaSize)
	meta = binfmt.AppendU32(meta, uint32(len(r.Name)))
	meta = append(meta, r.Name...)
	meta = binfmt.AppendU64(meta, uint64(r.Version))
	meta = binfmt.AppendU64(meta, uint64(r.BuiltAt.UnixNano()))
	meta = binfmt.AppendU32(meta, uint32(r.NextID))
	meta = binfmt.AppendU32(meta, uint32(len(r.Tombs)))
	meta = binfmt.AppendU32(meta, uint32(len(r.Tiers)))
	for _, t := range r.Tiers {
		cfg := t.Tree.Cfg
		meta = binfmt.AppendU32(meta, uint32(cfg.Partitions))
		meta = binfmt.AppendU32(meta, uint32(cfg.Fanout))
		meta = binfmt.AppendU32(meta, uint32(cfg.LocalCells))
		meta = binfmt.AppendF64(meta, cfg.CellFactor)
		meta = binfmt.AppendU32(meta, uint32(cfg.LocalJoin))
		meta = binfmt.AppendU32(meta, 0) // the retired worker slot
		meta = binfmt.AppendU32(meta, uint32(len(t.Tree.IDs)))
		meta = binfmt.AppendU32(meta, uint32(len(t.Tree.Nodes)))
		meta = binfmt.AppendU32(meta, uint32(t.Tree.Leaves))
		meta = binfmt.AppendU32(meta, uint32(t.Tree.Height))
	}

	sections := 2 + len(r.Tiers)
	out := make([]byte, 0, size+len(meta)+4*len(r.Tombs)+12*sections)
	out = append(out, Magic...)
	out = binfmt.AppendU32(out, FormatVersion)
	out = binfmt.AppendU32(out, uint32(sections))
	out = appendSection(out, meta)
	var buf []byte
	for _, t := range r.Tiers {
		buf = appendObjects(buf[:0], t.Tree.Boxes, t.Tree.IDs)
		for i := range t.Tree.Nodes {
			n := &t.Tree.Nodes[i]
			buf = binfmt.AppendBox(buf, n.MBR)
			buf = binfmt.AppendU32(buf, uint32(n.Children))
			buf = binfmt.AppendU32(buf, uint32(n.AStart))
			buf = binfmt.AppendU32(buf, uint32(n.AEnd))
			buf = binfmt.AppendF64(buf, n.ExtSumA)
		}
		out = appendSection(out, buf)
	}
	buf = buf[:0]
	for _, id := range r.Tombs {
		buf = binfmt.AppendU32(buf, uint32(id))
	}
	return appendSection(out, buf), nil
}

// appendObjects appends the objects of the two columns boxes and ids,
// each as its ID and its box, in order.
func appendObjects(dst []byte, boxes []geom.Box, ids []geom.ID) []byte {
	dst = slices.Grow(dst, len(ids)*objectSize)
	for i, id := range ids {
		dst = binfmt.AppendU32(dst, uint32(id))
		dst = binfmt.AppendBox(dst, boxes[i])
	}
	return dst
}

// section pops one length-prefixed section off rd, verifies its checksum
// and returns its payload. A failed read of the length leaves it zero, so
// the first failure is what the check after the checksum read reports.
func section(rd *binfmt.Reader, name string) ([]byte, error) {
	size := rd.U64()
	if size > uint64(rd.Remaining()) {
		return nil, corrupt("%s section claims %d bytes, %d remain", name, size, rd.Remaining())
	}
	payload, sum := rd.Take(int(size)), rd.U32()
	if err := rd.Err(); err != nil {
		return nil, err
	}
	if got := crc32.Checksum(payload, castagnoli); got != sum {
		return nil, corrupt("%s section checksum %08x, want %08x", name, got, sum)
	}
	return payload, nil
}

// Unmarshal decodes and fully validates a snapshot of any format. Any
// deviation — truncation, checksum mismatch, counts that disagree with
// section sizes, repeated IDs, tiers or tombstones out of order, an
// objects section that disagrees with its arena — returns an error
// wrapping ErrCorrupt (so does a tree failing core.Thaw's structural
// checks, in Thaw). The returned record owns its memory; data may be
// reused afterwards.
func Unmarshal(data []byte) (*Record, error) {
	rd := binfmt.NewReader(data, ErrCorrupt, "snapshot")
	magic := rd.Take(len(Magic))
	if err := rd.Err(); err != nil {
		return nil, err
	}
	if string(magic) != Magic {
		return nil, corrupt("bad magic %q", magic)
	}
	format := rd.U32()
	if err := rd.Err(); err != nil {
		return nil, err
	}
	if format != FormatVersion && format != formatV2 && format != formatV1 {
		return nil, corrupt("format version %d, this build reads %d to %d", format, formatV1, FormatVersion)
	}
	nsec := rd.U32()
	metaBytes, err := section(&rd, "meta")
	if err != nil {
		return nil, err
	}
	meta := binfmt.NewReader(metaBytes, ErrCorrupt, "meta section")
	nameLen := meta.U32()
	if err := meta.Err(); err != nil {
		return nil, err
	}
	if nameLen == 0 || nameLen > maxNameLen {
		return nil, corrupt("name length %d outside [1,%d]", nameLen, maxNameLen)
	}
	rec := &Record{Name: string(meta.Take(int(nameLen))), Version: int64(meta.U64())}
	rec.BuiltAt = time.Unix(0, int64(meta.U64())).UTC()
	if err := meta.Err(); err != nil {
		return nil, err
	}
	nTombs, nTiers, wantSections := 0, 1, uint32(3)
	if format != formatV1 {
		nextID, tombs, tiers := meta.U32(), meta.U32(), meta.U32()
		if err := meta.Err(); err != nil {
			return nil, err
		}
		if int32(nextID) < 0 {
			return nil, corrupt("next insert ID %d", int32(nextID))
		}
		rec.NextID = geom.ID(nextID)
		// The tier count is checked against the bytes that are there
		// before anything is sized by it.
		if tiers == 0 || uint64(tiers)*tierMetaSize != uint64(meta.Remaining()) {
			return nil, corrupt("%d tiers in a meta section with %d bytes left", tiers, meta.Remaining())
		}
		nTombs, nTiers = int(tombs), int(tiers)
		wantSections = uint32(2 + nTiers)
		if format == formatV2 {
			wantSections += uint32(nTiers)
		}
	}
	if nsec != wantSections {
		return nil, corrupt("%d sections, want %d", nsec, wantSections)
	}
	rec.Tiers = make([]Tier, nTiers)
	counts := make([][2]int, nTiers) // objects, nodes
	for i := range rec.Tiers {
		f := &core.Frozen{Cfg: core.Config{
			Partitions: int(int32(meta.U32())),
			Fanout:     int(int32(meta.U32())),
			LocalCells: int(int32(meta.U32())),
			CellFactor: meta.F64(),
			LocalJoin:  core.LocalJoinKind(int32(meta.U32())),
		}}
		meta.U32() // the retired worker slot
		counts[i] = [2]int{int(meta.U32()), int(meta.U32())}
		f.Leaves, f.Height = int(meta.U32()), int(meta.U32())
		rec.Tiers[i].Tree = f
	}
	if err := meta.Done(); err != nil {
		return nil, err
	}

	// legacy holds the objects sections of a format-1 or -2 file, per tier,
	// until they are checked against the arenas.
	var legacy []objectsSection
	for i := range rec.Tiers {
		t, nObj, nNodes := &rec.Tiers[i], counts[i][0], counts[i][1]
		if format != FormatVersion {
			objects, err := section(&rd, "objects")
			if err != nil {
				return nil, err
			}
			if len(objects) != nObj*objectSize {
				return nil, corrupt("objects section is %d bytes, %d objects need %d", len(objects), nObj, nObj*objectSize)
			}
			var sec objectsSection
			if sec.boxes, sec.ids, err = decodeObjects(objects, nObj); err != nil {
				return nil, err
			}
			legacy = append(legacy, sec)
		}

		tree, err := section(&rd, "tree")
		if err != nil {
			return nil, err
		}
		if want := nObj*objectSize + nNodes*nodeSize; len(tree) != want {
			return nil, corrupt("tree section is %d bytes, %d arena + %d nodes need %d", len(tree), nObj, nNodes, want)
		}
		if t.Tree.Boxes, t.Tree.IDs, err = decodeObjects(tree[:nObj*objectSize], nObj); err != nil {
			return nil, err
		}
		nodeBuf := tree[nObj*objectSize:]
		t.Tree.Nodes = make([]core.FrozenNode, nNodes)
		for i := range t.Tree.Nodes {
			b := nodeBuf[i*nodeSize : i*nodeSize+nodeSize : i*nodeSize+nodeSize]
			n := &t.Tree.Nodes[i]
			binfmt.DecodeBox(b, &n.MBR)
			n.Children = int32(binary.LittleEndian.Uint32(b[48:]))
			n.AStart = int32(binary.LittleEndian.Uint32(b[52:]))
			n.AEnd = int32(binary.LittleEndian.Uint32(b[56:]))
			n.ExtSumA = math.Float64frombits(binary.LittleEndian.Uint64(b[60:]))
		}
	}
	if format != formatV1 {
		tombs, err := section(&rd, "tombs")
		if err != nil {
			return nil, err
		}
		if len(tombs) != 4*nTombs {
			return nil, corrupt("tombs section is %d bytes, %d tombstones need %d", len(tombs), nTombs, 4*nTombs)
		}
		rec.Tombs = make([]geom.ID, nTombs)
		for i := range rec.Tombs {
			rec.Tombs[i] = geom.ID(int32(binary.LittleEndian.Uint32(tombs[4*i:])))
		}
	}
	if rd.Remaining() != 0 {
		return nil, corrupt("%d trailing bytes after the last section", rd.Remaining())
	}
	if err := rec.checkTiers(legacy); err != nil {
		return nil, err
	}
	return rec, nil
}

// checkTiers verifies what merged reads lean on and fills in the tiers'
// ID sets: no tier repeats an ID, the tiers' ID ranges ascend without
// overlap, no tier above the base is empty, and the tombstones ascend,
// each naming an object some tier holds. legacy, the objects sections of
// a format-1 or -2 file, must hold exactly the arenas' objects.
func (r *Record) checkTiers(legacy []objectsSection) error {
	last, seen := geom.ID(0), false
	for i := range r.Tiers {
		t := &r.Tiers[i]
		if t.IDs = delta.IDsOf(t.Tree.IDs); t.IDs.Len() != len(t.Tree.IDs) {
			return corrupt("tier %d repeats %d IDs", i, len(t.Tree.IDs)-t.IDs.Len())
		}
		if legacy != nil {
			if err := sameObjects(legacy[i], t.Tree, t.IDs); err != nil {
				return corrupt("tier %d: %v", i, err)
			}
		}
		if t.IDs.Len() == 0 {
			if i > 0 {
				return corrupt("tier %d is empty", i)
			}
			continue
		}
		if seen && t.IDs.Min() <= last {
			return corrupt("tier %d starts at ID %d, not above %d", i, t.IDs.Min(), last)
		}
		last, seen = t.IDs.Max(), true
	}
	for i, id := range r.Tombs {
		if i > 0 && id <= r.Tombs[i-1] {
			return corrupt("tombstone %d is %d, not above %d", i, id, r.Tombs[i-1])
		}
		held := false
		for j := range r.Tiers {
			if held = r.Tiers[j].IDs.Holds(id); held {
				break
			}
		}
		if !held {
			return corrupt("tombstone %d names no object of any tier", id)
		}
	}
	return nil
}

// objectsSection is the objects section of a format-1 or -2 file,
// decoded into two columns as an arena is.
type objectsSection struct {
	boxes []geom.Box
	ids   []geom.ID
}

// sameObjects checks that objs holds the objects of arena, whose IDs are
// ids, each exactly once, in any order.
func sameObjects(objs objectsSection, arena *core.Frozen, ids delta.IDs) error {
	byID := ids.Gather(make(geom.Dataset, 0, len(arena.IDs)), arena.Boxes, arena.IDs)
	matched := make([]bool, len(byID))
	for i, id := range objs.ids {
		at, held := ids.Rank(id)
		if !held || matched[at] || byID[at] != (geom.Object{ID: id, Box: objs.boxes[i]}) {
			return fmt.Errorf("objects section entry %d (ID %d) is not an object of the arena", i, id)
		}
		matched[at] = true
	}
	return nil
}

// decodeObjects decodes n objects from buf, whose length the caller has
// already validated to be exactly n*objectSize, into a box column and an
// ID column.
func decodeObjects(buf []byte, n int) ([]geom.Box, []geom.ID, error) {
	boxes, ids := make([]geom.Box, n), make([]geom.ID, n)
	for i := range ids {
		b := buf[i*objectSize : i*objectSize+objectSize : i*objectSize+objectSize]
		ids[i] = geom.ID(int32(binary.LittleEndian.Uint32(b)))
		binfmt.DecodeBox(b[4:], &boxes[i])
		// The loaders reject non-finite and inverted boxes, so no valid
		// producer can have written one.
		if !boxes[i].Finite() {
			return nil, nil, corrupt("object %d has a non-finite or inverted box", i)
		}
	}
	return boxes, ids, nil
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
