package touch

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"touch/internal/core"
	"touch/internal/delta"
	"touch/internal/snapshot"
)

// ErrSnapshotCorrupt is wrapped into every snapshot decode rejection —
// truncated input, checksum mismatch, a repeated ID, a tree failing
// structural validation, or an objects section of an older format that
// disagrees with its tree; test with errors.Is. Decoding arbitrary corrupt bytes
// returns an error wrapping this, never a panic and never a silently
// different index.
var ErrSnapshotCorrupt = snapshot.ErrCorrupt

// SnapshotInfo identifies a snapshot: the dataset name and version it
// carries and when its index was built. Serving layers persist one
// snapshot per catalog entry; library users may use any naming scheme
// (Version and BuiltAt can be zero).
type SnapshotInfo struct {
	Name    string
	Version int64
	BuiltAt time.Time
}

// EncodeSnapshot serializes a dataset and the Index built over it into
// the durable snapshot format: a versioned, length-prefixed binary
// layout with per-section CRC32C checksums, decodable by DecodeSnapshot
// into an Index that answers every query identically. The objects are
// written once, as the index's arena; the dataset must be the one the
// index was built from, with distinct IDs (its object count is
// cross-checked; a mismatched pairing fails to encode). An index that
// has been stepped to more than one tier or to pending updates is not
// one dataset and one index: encode it with Overlay.EncodeSnapshot.
func EncodeSnapshot(info SnapshotInfo, a Dataset, ix *Index) ([]byte, error) {
	switch {
	case ix == nil:
		return nil, errors.New("touch: nil index")
	case len(ix.tiers) > 1 || !ix.frozen():
		ins, tombs := ix.Pending()
		return nil, fmt.Errorf("touch: a generation of %d tiers, %d inserts and %d tombstones is not one dataset and one index; encode it with Overlay.EncodeSnapshot", len(ix.tiers), ins, tombs)
	case len(a) != ix.tiers[0].tree.SizeA:
		return nil, fmt.Errorf("touch: %d objects, but the index holds %d: built from a different dataset?", len(a), ix.tiers[0].tree.SizeA)
	}
	return ix.EncodeSnapshot(info)
}

// EncodeSnapshot serializes a whole generation: every tier's tree — its
// arena the tier's objects — the tombstones over them and the ID
// high-water mark, so that DecodeOverlay restores the same live objects,
// the same answers and the same next insert ID with no tree rebuilt.
// Inserts no fold has indexed have no place in the format — a generation
// that holds some fails to encode; fold first. A read-only generation —
// one built by NewOverlay, or by BuildIndex over a repeated ID — has no
// high-water mark and fails to encode too.
func (v *Overlay) EncodeSnapshot(info SnapshotInfo) ([]byte, error) {
	if err := v.readOnly(); err != nil {
		return nil, fmt.Errorf("touch: %w", err)
	}
	if n := v.tail.Inserts(); n > 0 {
		return nil, fmt.Errorf("touch: %d unfolded inserts cannot be encoded", n)
	}
	rec := &snapshot.Record{
		Name:    info.Name,
		Version: info.Version,
		BuiltAt: info.BuiltAt,
		Tombs:   v.tail.Tombs(),
		NextID:  v.d.NextID(),
	}
	for _, t := range v.tiers {
		rec.Tiers = append(rec.Tiers, snapshot.Tier{Tree: t.tree.Freeze()})
	}
	return rec.Marshal()
}

// DecodeSnapshot decodes and fully validates a snapshot produced by
// EncodeSnapshot, returning its identity, the original dataset —
// gathered from the index's arena in ID order, a fresh slice — and a
// ready-to-serve Index — no rebuild — whose first insert receives the
// persisted ID high-water mark. Every checksum and every
// structural invariant of the tree is re-verified (MBRs and extent sums
// are recomputed from the arena and compared bit-exactly), so corrupt
// bytes — torn writes, bit flips, hostile edits — are rejected with an
// error wrapping ErrSnapshotCorrupt. A snapshot of a generation with
// several tiers or with tombstones is not one dataset and one index:
// decode it with DecodeOverlay.
func DecodeSnapshot(data []byte) (SnapshotInfo, Dataset, *Index, error) {
	info, v, err := DecodeOverlay(data)
	if err != nil {
		return SnapshotInfo{}, nil, nil, err
	}
	if tombs := v.tail.Tombs(); len(v.tiers) > 1 || len(tombs) > 0 {
		return SnapshotInfo{}, nil, nil, fmt.Errorf("touch: snapshot holds %d tiers and %d tombstones; decode it with DecodeOverlay", len(v.tiers), len(tombs))
	}
	return info, v.Dataset(), v, nil
}

// DecodeOverlay decodes and fully validates a snapshot of either
// producer — EncodeSnapshot's one dataset and index, or a whole
// generation — into a generation ready to serve and to update: every
// tier restored without a rebuild, the tombstones in place, and the next
// insert ID the persisted high-water mark (one above the largest ID held
// for a file that carries none). Validation and errors as DecodeSnapshot.
func DecodeOverlay(data []byte) (SnapshotInfo, *Overlay, error) {
	rec, err := snapshot.Unmarshal(data)
	if err != nil {
		return SnapshotInfo{}, nil, err
	}
	trees, err := rec.Thaw()
	if err != nil {
		return SnapshotInfo{}, nil, err
	}
	tiers := make([]tier, len(trees))
	maxID := ID(-1)
	for i, t := range trees {
		tiers[i] = newTier(t, rec.Tiers[i].IDs)
		maxID = max(maxID, tiers[i].ids.Max())
	}
	info := SnapshotInfo{Name: rec.Name, Version: rec.Version, BuiltAt: rec.BuiltAt}
	return info, over(tiers, delta.Restored(rec.Tombs, rec.NextID, maxID)), nil
}

// newTier wraps a built or already-validated thawed tree, whose arena
// holds the IDs ids, in a tier and wires its probe pool.
func newTier(t *core.Tree, ids delta.IDs) tier {
	return tier{tree: t, ids: ids, probes: &sync.Pool{New: func() any { return t.NewProbe() }}}
}

// Config returns the configuration the base tier was built with,
// defaults filled in — the value a snapshot round-trips, so a rebuild
// with this config reproduces the identical tree shape, and the one a
// fold builds its tiers with.
func (v *Overlay) Config() TOUCHConfig { return v.tiers[0].tree.Config() }
