package touch

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"touch/internal/core"
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
	rec := &snapshot.Record{
		Name:    info.Name,
		Version: info.Version,
		BuiltAt: info.BuiltAt,
		Objects: a,
		Tree:    ix.tree.Freeze(),
	}
	return rec.Marshal()
}

// DecodeSnapshot decodes and fully validates a snapshot produced by
// EncodeSnapshot, returning its identity, the original dataset and a
// ready-to-serve Index — no rebuild. Every checksum and every
// structural invariant of the tree is re-verified (MBRs and extent sums
// are recomputed from the arena and compared bit-exactly), so corrupt
// bytes — torn writes, bit flips, hostile edits — are rejected with an
// error wrapping ErrSnapshotCorrupt.
func DecodeSnapshot(data []byte) (SnapshotInfo, Dataset, *Index, error) {
	rec, err := snapshot.Unmarshal(data)
	if err != nil {
		return SnapshotInfo{}, nil, nil, err
	}
	tree, err := rec.Thaw()
	if err != nil {
		return SnapshotInfo{}, nil, nil, err
	}
	info := SnapshotInfo{Name: rec.Name, Version: rec.Version, BuiltAt: rec.BuiltAt}
	return info, rec.Objects, indexFromTree(tree, len(rec.Objects)), nil
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
func indexFromTree(t *core.Tree, lenA int) *Index {
	probes := &sync.Pool{New: func() any { return t.NewProbe() }}
	return &Index{reader: reader{tree: t, probes: probes}, lenA: lenA, maxID: t.MaxID()}
}

// Config returns the configuration the index was built with, defaults
// filled in — the value a snapshot round-trips, so a rebuild with this
// config reproduces the identical tree shape.
func (ix *Index) Config() TOUCHConfig { return ix.tree.Config() }
