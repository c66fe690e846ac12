package touch

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"touch/internal/core"
	"touch/internal/delta"
	"touch/internal/snapshot"
)

// ErrSnapshotCorrupt is wrapped into every snapshot decode rejection —
// truncated input, checksum mismatch, or a tree failing structural
// validation; test with errors.Is. Decoding arbitrary corrupt bytes
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
// into an Index that answers every query identically. The dataset must
// be the one the index was built from (the object counts are
// cross-checked; a mismatched pairing fails to encode).
func EncodeSnapshot(info SnapshotInfo, a Dataset, ix *Index) ([]byte, error) {
	if ix == nil {
		return nil, errors.New("touch: nil index")
	}
	return OverlayOf(a, ix).EncodeSnapshot(info)
}

// EncodeSnapshot serializes a whole generation: every tier's dataset and
// tree, the tombstones over them and the ID high-water mark, so that
// DecodeOverlay restores the same live objects, the same answers and the
// same next insert ID with no tree rebuilt. Inserts no fold has indexed
// have no place in the format — a generation that holds some fails to
// encode; fold first. The receiver must descend from OverlayOf.
func (v *Overlay) EncodeSnapshot(info SnapshotInfo) ([]byte, error) {
	if v.d == nil {
		return nil, errors.New("touch: a read-only Overlay built by NewOverlay holds no dataset to encode")
	}
	if n := len(v.inserts); n > 0 {
		return nil, fmt.Errorf("touch: %d unfolded inserts cannot be encoded", n)
	}
	rec := &snapshot.Record{
		Name:    info.Name,
		Version: info.Version,
		BuiltAt: info.BuiltAt,
		Tombs:   v.tombs,
		NextID:  v.d.NextID(),
	}
	for _, t := range v.tiers {
		rec.Tiers = append(rec.Tiers, snapshot.Tier{Objects: t.ds, Tree: t.tree.Freeze()})
	}
	return rec.Marshal()
}

// DecodeSnapshot decodes and fully validates a snapshot produced by
// EncodeSnapshot, returning its identity, the original dataset and a
// ready-to-serve Index — no rebuild. Every checksum and every
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
	if len(v.tiers) > 1 || len(v.tombs) > 0 {
		return SnapshotInfo{}, nil, nil, fmt.Errorf("touch: snapshot holds %d tiers and %d tombstones; decode it with DecodeOverlay", len(v.tiers), len(v.tombs))
	}
	return info, v.tiers[0].ds, v.idx, nil
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
	var base *Index
	maxID := ID(-1)
	for i := len(trees) - 1; i >= 0; i-- {
		base = indexFromTree(trees[i])
		tiers[i], maxID = base.tier(rec.Tiers[i].Objects), max(maxID, base.maxID)
	}
	info := SnapshotInfo{Name: rec.Name, Version: rec.Version, BuiltAt: rec.BuiltAt}
	return info, base.over(tiers, delta.Restored(rec.Tombs, rec.NextID, maxID)), nil
}

// WriteSnapshot is EncodeSnapshot to an io.Writer, returning the byte
// count written. Writing to a file does not by itself make the snapshot
// crash-safe — the serving layer's store adds the temp-file → fsync →
// rename → directory-fsync protocol on top.
func WriteSnapshot(w io.Writer, info SnapshotInfo, a Dataset, ix *Index) (int64, error) {
	data, err := EncodeSnapshot(info, a, ix)
	if err != nil {
		return 0, err
	}
	n, err := w.Write(data)
	if err == nil && n < len(data) {
		err = io.ErrShortWrite
	}
	return int64(n), err
}

// ReadSnapshot is DecodeSnapshot from an io.Reader.
func ReadSnapshot(r io.Reader) (SnapshotInfo, Dataset, *Index, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return SnapshotInfo{}, nil, nil, fmt.Errorf("touch: read snapshot: %w", err)
	}
	return DecodeSnapshot(data)
}

// indexFromTree wraps a built or already-validated thawed tree in the
// public Index and wires its probe pool.
func indexFromTree(t *core.Tree) *Index {
	probes := &sync.Pool{New: func() any { return t.NewProbe() }}
	return &Index{reader: newReader([]tier{{tree: t, probes: probes}}), maxID: t.MaxID()}
}

// Config returns the configuration the index was built with, defaults
// filled in — the value a snapshot round-trips, so a rebuild with this
// config reproduces the identical tree shape.
func (ix *Index) Config() TOUCHConfig { return ix.tiers[0].tree.Config() }
