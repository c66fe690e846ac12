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

// DefaultCompactThreshold is the size of the unfolded tail (inserts +
// tombstones no fold has seen) at which a Mutable schedules a background
// fold unless SetCompactThreshold chose otherwise.
const DefaultCompactThreshold = 4096

// Mutable is an incrementally updatable index: a short list of immutable
// index tiers plus a small tail of pending inserts and tombstones, read
// through View. Reads are lock-free — View loads one atomic pointer to
// an immutable generation — and are safe concurrently with writers and
// with the background folds that index the tail as a new tier or merge
// it with the tiers it has outgrown (Overlay.Fold has the rule).
//
// The consistency contract: the Overlay View returns is never nil and
// never changes — every query and join on it answers exactly as an
// Index rebuilt from the merged live objects of its generation would,
// however many writes and folds publish meanwhile, so several questions
// asked of one View are answered from one state; a fold or a concurrent
// write is either entirely visible to a View or not at all, and the next
// View call sees it. Inserted objects receive fresh ascending IDs
// (starting after the largest base ID) that are never reused; Delete
// tombstones by ID and unknown or already-deleted IDs are ignored.
//
// Writers (Insert, Delete, Compact, SetCompactThreshold) serialize on
// an internal mutex; reads never block on it. The zero Mutable is not
// usable — construct with NewMutable.
type Mutable struct {
	// mu serializes mutations and view publication. Reads only Load.
	mu   sync.Mutex
	view atomic.Pointer[Overlay]

	// folds schedules the background fold at the threshold; guarded by mu.
	folds delta.Scheduler

	// compactMu serializes folds, explicit and scheduled.
	compactMu   sync.Mutex
	compactions atomic.Int64
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
	m := &Mutable{}
	// The scheduled fold reports the updates that arrived during the build
	// and are still unfolded, for the scheduler to check.
	m.folds = delta.NewScheduler(&m.mu, DefaultCompactThreshold, func() int {
		m.fold(false)
		return m.view.Load().d.Size()
	})
	m.view.Store(OverlayOf(base, BuildIndex(base, cfg)))
	return m, nil
}

// SetCompactThreshold sets the size of the unfolded tail (inserts +
// tombstones) that triggers a background fold; n <= 0 disables automatic
// folds (Compact can still be called explicitly). If the current tail
// already meets the new threshold a fold is scheduled immediately.
func (m *Mutable) SetCompactThreshold(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.folds.Threshold = n
	m.folds.Arm(m.view.Load().d.Size())
}

// apply runs one update step against the current generation and, when
// it changed anything, publishes the next one and arms the scheduler.
func (m *Mutable) apply(boxes []Box, ids []ID) (first ID, deleted int, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	v := m.view.Load()
	next, first, deleted, ok := v.Apply(boxes, ids)
	if next != v {
		m.view.Store(next)
		m.folds.Arm(next.d.Size())
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

// Compact synchronously folds everything — every tier, the pending
// inserts and all tombstones — into one fresh base index and publishes
// it, returning whether there was anything to fold. It is the scheduled
// fold started at the base (Overlay.Fold). The expensive build runs
// without blocking writers or readers; only the final pointer swap takes
// the writer lock, where updates that arrived during the build carry
// over into the new (small) tail. Concurrent Compact calls serialize.
func (m *Mutable) Compact() bool { return m.fold(true) }

// fold is the compaction, explicit (full) and scheduled.
func (m *Mutable) fold(full bool) bool {
	m.compactMu.Lock()
	defer m.compactMu.Unlock()
	f := m.view.Load().Fold(full, BuildIndex)
	if f == nil {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	// Writers only Apply and compactMu makes us the only folder, so the
	// current generation still descends from the one folded. Counted
	// before it is published, so no reader of the new generation can see
	// a Stats that has not counted its fold.
	m.compactions.Add(1)
	m.view.Store(f.Next(m.view.Load()))
	return true
}

// Dataset returns the merged live objects — tier survivors plus live
// inserts, ID-ascending — as a fresh slice. An Index built from it is
// the rebuild oracle the Mutable's answers are defined against.
func (m *Mutable) Dataset() Dataset {
	v := m.view.Load()
	if len(v.tiers) == 1 && v.frozen() {
		// Merged hands back the tier's dataset itself; everything else it
		// returns is already a fresh slice.
		return slices.Clone(v.tiers[0].ds)
	}
	return v.Dataset()
}

// View returns the current generation's reader: an immutable Overlay
// over the tiers and the pending tail, never nil. Take one View to ask
// several questions of one state; take a new one to see later writes.
func (m *Mutable) View() *Overlay { return m.view.Load() }

// MutableStats describes a Mutable at one instant: the base index
// shape, the live object count across tiers and tail, the size of the
// unfolded tail and how many folds have published so far.
type MutableStats struct {
	// Base is the shape of the current base index, the lowest tier (its
	// Objects count includes objects that are tombstoned). Overlay.Tiers
	// on View describes the tiers above it.
	Base IndexStats
	// Objects is the number of live objects over tiers + tail.
	Objects int
	// DeltaInserts and DeltaTombstones are the unfolded update counts;
	// their sum is compared against the compaction threshold.
	DeltaInserts    int
	DeltaTombstones int
	// Compactions counts the folds published since NewMutable.
	Compactions int64
}

// Stats reports the current state. Safe concurrently with everything.
func (m *Mutable) Stats() MutableStats {
	v := m.view.Load()
	ins, tombs := v.Pending()
	return MutableStats{
		Base:            v.Base().Stats(),
		Objects:         v.Stats().Objects + ins - tombs,
		DeltaInserts:    ins,
		DeltaTombstones: tombs,
		Compactions:     m.compactions.Load(),
	}
}
