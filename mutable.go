package touch

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"touch/internal/delta"
)

// ErrIDSpaceExhausted is returned by Mutable.Insert when assigning the
// requested IDs would overflow the 31-bit object ID space. IDs are
// never reused — not even across compactions — so a very long-lived
// Mutable with heavy churn can run out even while its live object
// count is small.
var ErrIDSpaceExhausted = errors.New("touch: object ID space exhausted")

// DefaultCompactThreshold is the delta size (inserts + tombstones) at
// which a Mutable schedules a background compaction unless
// SetCompactThreshold chose otherwise.
const DefaultCompactThreshold = 4096

// Mutable is an incrementally updatable index: an immutable base Index
// plus a small delta of pending inserts and tombstones, read through
// View. Reads are lock-free — View loads one atomic pointer to an
// immutable (base, delta) generation — and are safe concurrently with
// writers and with the background compaction that periodically folds
// the delta into a fresh base index.
//
// The consistency contract: the Overlay View returns is never nil and
// never changes — every query and join on it answers exactly as an
// Index rebuilt from the merged live objects of its generation would,
// however many writes and compactions publish meanwhile, so several
// questions asked of one View are answered from one state; a compaction
// or a concurrent write is either entirely visible to a View or not at
// all, and the next View call sees it. Inserted objects receive fresh
// ascending IDs (starting after the largest base ID) that are never
// reused; Delete tombstones by ID and unknown or already-deleted IDs
// are ignored.
//
// Writers (Insert, Delete, Compact, SetCompactThreshold) serialize on
// an internal mutex; reads never block on it. The zero Mutable is not
// usable — construct with NewMutable.
type Mutable struct {
	cfg TOUCHConfig

	// mu serializes mutations and view publication. Reads only Load.
	mu   sync.Mutex
	view atomic.Pointer[mutView]

	// folds schedules the background Compact at the threshold; guarded by mu.
	folds delta.Scheduler

	// compactMu serializes compactions, explicit and scheduled.
	compactMu   sync.Mutex
	compactions atomic.Int64
}

// mutView is one immutable generation of a Mutable: the base dataset,
// the pending delta and the reader over the base index and that delta.
type mutView struct {
	base Dataset // ID-ascending
	d    *delta.Delta
	ov   *Overlay
}

// newView builds the generation of base, its index and the delta d.
func newView(base Dataset, idx *Index, d *delta.Delta) *mutView {
	return &mutView{base: base, d: d, ov: OverlayOf(idx, d)}
}

// NewMutable builds the base index over ds (zero cfg = paper defaults,
// as BuildIndex) and returns a Mutable ready for updates. The dataset
// is cloned and sorted by ID; duplicate IDs are rejected. Auto-
// compaction starts enabled at DefaultCompactThreshold.
func NewMutable(ds Dataset, cfg TOUCHConfig) (*Mutable, error) {
	base := slices.Clone(ds)
	slices.SortFunc(base, func(a, b Object) int { return int(a.ID) - int(b.ID) })
	for i := 1; i < len(base); i++ {
		if base[i].ID == base[i-1].ID {
			return nil, fmt.Errorf("touch: duplicate object ID %d", base[i].ID)
		}
	}
	m := &Mutable{cfg: cfg, folds: delta.Scheduler{Threshold: DefaultCompactThreshold}}
	m.view.Store(newView(base, BuildIndex(base, cfg), delta.NewForBase(base)))
	return m, nil
}

// SetCompactThreshold sets the delta size (inserts + tombstones) that
// triggers a background compaction; n <= 0 disables automatic
// compaction (Compact can still be called explicitly). If the current
// delta already meets the new threshold a compaction is scheduled
// immediately.
func (m *Mutable) SetCompactThreshold(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.folds.Threshold = n
	m.folds.Arm(&m.mu, m.view.Load().d.Size(), m.fold)
}

// fold is the scheduled compaction; it reports the updates that arrived
// during the build and are still pending, for the scheduler to check.
func (m *Mutable) fold() int {
	m.Compact()
	return m.view.Load().d.Size()
}

// apply runs one update step against the current generation and, when
// it changed anything, publishes the next one and arms the scheduler.
func (m *Mutable) apply(boxes []Box, ids []ID) (first ID, deleted int, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	v := m.view.Load()
	nd, first, deleted, ok := v.d.Apply(v.base, boxes, ids)
	if nd != v.d {
		m.view.Store(newView(v.base, v.ov.Base(), nd))
		m.folds.Arm(&m.mu, nd.Size(), m.fold)
	}
	return first, deleted, ok
}

// Insert adds one object per box and returns the assigned IDs, which
// are consecutive and ascending. Boxes are validated like
// DatasetFromBoxes (NaN, Inf and inverted corners rejected); on any
// error nothing is inserted.
func (m *Mutable) Insert(boxes []Box) ([]ID, error) {
	for _, b := range boxes {
		if err := checkDataBox(b); err != nil {
			return nil, err
		}
	}
	first, _, ok := m.apply(boxes, nil)
	if !ok {
		return nil, ErrIDSpaceExhausted
	}
	ids := make([]ID, len(boxes))
	for i := range ids {
		ids[i] = first + ID(i)
	}
	return ids, nil
}

// Delete tombstones the given IDs and reports how many were live —
// unknown and already-deleted IDs are skipped silently, so Delete is
// idempotent.
func (m *Mutable) Delete(ids []ID) int {
	_, n, _ := m.apply(nil, ids)
	return n
}

// Compact synchronously folds the current delta into a fresh base
// index and publishes it, returning whether there was anything to fold.
// The expensive build runs without blocking writers or readers; only
// the final pointer swap takes the writer lock, where updates that
// arrived during the build carry over into the new (small) delta.
// Concurrent Compact calls serialize.
func (m *Mutable) Compact() bool {
	m.compactMu.Lock()
	defer m.compactMu.Unlock()
	v0 := m.view.Load()
	if v0.d.Empty() {
		return false
	}
	merged := v0.d.Merged(v0.base)
	idx := BuildIndex(merged, m.cfg)
	m.mu.Lock()
	defer m.mu.Unlock()
	// Writers never replace the base and compactMu makes us the only
	// compactor, so the current delta still descends from v0's.
	v1 := m.view.Load()
	nd := v1.d.Since(v0.d)
	// Counted before it is published, so no reader of the new generation
	// can see a Stats that has not counted its fold.
	m.compactions.Add(1)
	m.view.Store(newView(merged, idx, nd))
	return true
}

// Dataset returns the merged live objects — base survivors plus live
// inserts, ID-ascending — as a fresh slice. An Index built from it is
// the rebuild oracle the Mutable's answers are defined against.
func (m *Mutable) Dataset() Dataset {
	v := m.view.Load()
	if v.d.Empty() {
		// Merged hands back base itself; everything else it returns is
		// already a fresh slice.
		return slices.Clone(v.base)
	}
	return v.d.Merged(v.base)
}

// View returns the current generation's reader: an immutable Overlay
// over the base index and the pending delta, never nil. Take one View
// to ask several questions of one state; take a new one to see later
// writes.
func (m *Mutable) View() *Overlay { return m.view.Load().ov }

// MutableStats describes a Mutable at one instant: the base index
// shape, the live object count across base and delta, the pending
// delta size and how many compactions have folded so far.
type MutableStats struct {
	// Base is the shape of the current base index (its Objects count
	// includes base objects that are tombstoned in the delta).
	Base IndexStats
	// Objects is the number of live objects over base + delta.
	Objects int
	// DeltaInserts and DeltaTombstones are the pending update counts;
	// their sum is compared against the compaction threshold.
	DeltaInserts    int
	DeltaTombstones int
	// Compactions counts the delta folds published since NewMutable.
	Compactions int64
}

// Stats reports the current state. Safe concurrently with everything.
func (m *Mutable) Stats() MutableStats {
	v := m.view.Load()
	return MutableStats{
		Base:            v.ov.Base().Stats(),
		Objects:         len(v.base) + v.d.Inserts() - v.d.Tombstones(),
		DeltaInserts:    v.d.Inserts(),
		DeltaTombstones: v.d.Tombstones(),
		Compactions:     m.compactions.Load(),
	}
}
