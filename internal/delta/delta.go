// Package delta implements the write side of the incremental-update
// path: a small per-dataset buffer of inserted objects and tombstones
// that sits above a short list of immutable index tiers, in the spirit
// of an LSM memtable over packed runs. A Delta is an immutable value —
// every mutation returns a new *Delta sharing structure with its parent —
// so the owning layer can publish it through an atomic pointer and
// readers never take a lock. The write path is written once and run by
// both owners, the touch package's Mutable and the server catalog, each
// under its own writer lock: Apply is the update step (a batch of
// deletes, then inserts), Scheduler decides when the owner folds, and
// Merged and Since are the two halves of a fold — the dataset of the
// tier it builds, and what is left pending once that tier is published
// (the fold rule itself, which tiers a fold rewrites, lives with the
// tiers in package touch). Serialized writers are what lets inserts
// share one append-only backing array across generations.
//
// The contract that everything downstream leans on: every tier's dataset
// is ID-ascending and the tiers' ID ranges ascend without overlap, every
// insert receives a fresh ID strictly greater than any ID the dataset
// has ever held (NextID is monotone across folds and restarts, IDs are
// never reused), and deletes are recorded as tombstones rather than
// applied in place: the unfolded tail keeps tombstoned objects, and the
// tombstones — of tier objects and tail objects alike — are one
// ID-ascending slice. Readers take both slices as they are (Objects,
// Tombs) and test a tombstone by binary search only on an object that is
// already a hit, so publishing an update costs O(batch) plus a
// 4-byte-per-tombstone copy when the batch deletes something.
//
// A fold rewrites every object with an ID at or above some cut — the
// tail alone, or the tail and the topmost tiers — and drops the
// tombstoned ones together with their tombstones. Tombstones below the
// cut name objects of tiers the fold left alone: they stay in the slice,
// because reads still need them, but they are settled — no longer part
// of the unfolded tail that Size, Inserts and Tombstones measure and
// that compaction thresholds are compared against — until a later fold
// reaches their tier. Merged reads are a disjoint union — tier answers
// minus tombstoned IDs, plus one pass over the tail — and a fold
// preserves every surviving ID, so answers over tiers + delta are
// bit-identical to answers over an index rebuilt from the merged
// dataset.
package delta

import (
	"slices"

	"touch/internal/geom"
)

// Delta is one immutable generation of pending updates against the
// tiers of a dataset. The zero of the type is not used; start from
// NewForBase or Restored. A nil *Delta is a valid empty delta for every
// read accessor.
type Delta struct {
	// inserts is the unfolded tail: every object inserted since the last
	// fold, with consecutive ascending IDs, including ones later
	// tombstoned — the slice is append-only so descendant deltas and the
	// readers of published generations share its backing array.
	inserts geom.Dataset
	// tombs lists the deleted IDs whose objects some tier or the tail
	// still holds, ascending. Never mutated after the Delta is published;
	// Delete copies.
	tombs []geom.ID
	// settled counts the tombstones a fold has already seen and left in
	// place (see the package comment); they are somewhere in tombs.
	settled int
	// nextID is the ID the next insert will receive. It only grows,
	// across folds included, so IDs are never reused.
	nextID geom.ID
}

// NewForBase returns an empty delta whose first insert will receive an
// ID greater than every ID in base. base need not be sorted here (the
// max is scanned), though Merged and merged reads require it ascending.
func NewForBase(base geom.Dataset) *Delta {
	next := geom.ID(0)
	for i := range base {
		if id := base[i].ID; id >= next {
			next = id + 1
		}
	}
	return &Delta{nextID: next}
}

// Restored returns the delta a decoded snapshot resumes from: nothing
// unfolded, tombs (ascending, retained) settled, and the next insert ID
// the persisted high-water mark or one above maxID, the largest ID the
// snapshot holds, whichever is greater.
func Restored(tombs []geom.ID, nextID, maxID geom.ID) *Delta {
	return &Delta{tombs: tombs, settled: len(tombs), nextID: max(nextID, maxID+1)}
}

// NextID returns the ID the next insert will be assigned.
func (d *Delta) NextID() geom.ID {
	if d == nil {
		return 0
	}
	return d.nextID
}

// Empty reports whether the delta holds no unfolded updates.
func (d *Delta) Empty() bool { return d.Size() == 0 }

// Inserts returns the number of unfolded inserts, tombstoned ones
// included.
func (d *Delta) Inserts() int { return len(d.Objects()) }

// Tombstones returns the number of unfolded tombstones: those of Tombs
// no fold has settled.
func (d *Delta) Tombstones() int {
	if d == nil {
		return 0
	}
	return len(d.tombs) - d.settled
}

// Size is the total number of unfolded updates — the quantity
// compaction thresholds are compared against.
func (d *Delta) Size() int { return d.Inserts() + d.Tombstones() }

// Objects returns every buffered insert, tombstoned ones included, in
// ID order. The slice is the delta's own: read-only, and valid while
// the writer keeps the history linear (see Insert).
func (d *Delta) Objects() geom.Dataset {
	if d == nil {
		return nil
	}
	return d.inserts
}

// Tombs returns the tombstoned IDs ascending, settled ones included. The
// slice is the delta's own and read-only; TombIDs returns a copy.
func (d *Delta) Tombs() []geom.ID {
	if d == nil {
		return nil
	}
	return d.tombs
}

// Tombstoned reports whether id has been deleted in this delta.
func (d *Delta) Tombstoned(id geom.ID) bool {
	_, dead := slices.BinarySearch(d.Tombs(), id)
	return dead
}

// TombIDs returns the tombstoned IDs ascending, as a fresh slice.
func (d *Delta) TombIDs() []geom.ID { return slices.Clone(d.Tombs()) }

// findID binary-searches the ID-ascending ds for id.
func findID(ds geom.Dataset, id geom.ID) (int, bool) {
	return slices.BinarySearchFunc(ds, id, func(o geom.Object, id geom.ID) int { return int(o.ID) - int(id) })
}

// appendLive appends the objects of src (ID-ascending) that tombs
// (ascending) does not name: one binary search per tombstone in src's
// ID range, the runs between them copied whole.
func appendLive(dst, src geom.Dataset, tombs []geom.ID) geom.Dataset {
	if len(src) > 0 {
		below, _ := slices.BinarySearch(tombs, src[0].ID)
		tombs = tombs[below:]
	}
	for _, id := range tombs {
		if len(src) == 0 {
			break
		}
		i, dead := findID(src, id)
		dst = append(dst, src[:i]...)
		if dead {
			i++
		}
		src = src[i:]
	}
	return append(dst, src...)
}

// Live returns the buffered inserts that have not been tombstoned, in
// ID order, as a fresh slice safe to retain.
func (d *Delta) Live() geom.Dataset {
	if d.Inserts() == 0 {
		return nil
	}
	return appendLive(make(geom.Dataset, 0, len(d.inserts)), d.inserts, d.tombs)
}

// containsInsert reports whether id is one of the unfolded inserts,
// whose IDs are the consecutive run ending just below nextID. The
// shortcut holds for the tail only: a tier's IDs have gaps where a fold
// dropped dead objects, so tiers are searched (Apply's held).
func (d *Delta) containsInsert(id geom.ID) bool {
	return id >= d.tailStart() && id < d.nextID
}

// tailStart returns the ID of the first unfolded insert — nextID when
// there is none. Every ID at or above it belongs to the tail.
func (d *Delta) tailStart() geom.ID { return d.nextID - geom.ID(len(d.inserts)) }

// CanInsert reports whether n more inserts fit before the int32 ID
// space is exhausted.
func (d *Delta) CanInsert(n int) bool {
	return int64(d.NextID())+int64(n) <= int64(maxID)+1
}

const maxID = geom.ID(1<<31 - 1)

// Insert returns a delta extended with one object per box, assigning
// the IDs first, first+1, … in order. Boxes must already be validated
// by the caller. The receiver must be non-nil and the caller must hold
// the writer lock.
//
// Linear history only: the new objects are appended into the spare
// capacity of the array the receiver — and every published reader of it
// — shares, so each delta may be extended at most once by a child that
// is kept. Forking two kept children from one parent would let the
// second overwrite the first one's objects. Calling Insert again on the
// same parent and discarding the earlier result is fine.
func (d *Delta) Insert(boxes []geom.Box) (nd *Delta, first geom.ID) {
	first = d.nextID
	if len(boxes) == 0 {
		return d, first
	}
	inserts := d.inserts
	for i, b := range boxes {
		inserts = append(inserts, geom.Object{ID: first + geom.ID(i), Box: b})
	}
	return &Delta{inserts: inserts, tombs: d.tombs, settled: d.settled, nextID: first + geom.ID(len(boxes))}, first
}

// Delete returns a delta with a tombstone added for every id that is
// currently live — present in some tier (as reported by held) or among
// this delta's inserts, and not already tombstoned. Unknown, repeated
// and already-deleted IDs are skipped; deleted reports how many
// tombstones were actually added. The receiver must be non-nil. The
// tombstone slice is copied once, with the new IDs merged in place.
func (d *Delta) Delete(ids []geom.ID, held func(geom.ID) bool) (nd *Delta, deleted int) {
	add := slices.Clone(ids)
	slices.Sort(add)
	add = slices.DeleteFunc(slices.Compact(add), func(id geom.ID) bool {
		return d.Tombstoned(id) || (!d.containsInsert(id) && !held(id))
	})
	if len(add) == 0 {
		return d, 0
	}
	old := d.tombs
	tombs := make([]geom.ID, 0, len(old)+len(add))
	for _, id := range add {
		i, _ := slices.BinarySearch(old, id)
		tombs = append(append(tombs, old[:i]...), id)
		old = old[i:]
	}
	return &Delta{inserts: d.inserts, tombs: append(tombs, old...), settled: d.settled, nextID: d.nextID}, len(add)
}

// Apply is the one update step both owners run under their writer lock:
// deletes first — so a batch can delete existing IDs and insert their
// replacements without tombstoning its own inserts — with membership in
// the tiers as reported by held, then inserts. ok is false, and nothing
// applied, when the inserts would overflow the ID space; a batch that
// changes nothing returns the receiver itself.
func (d *Delta) Apply(inserts []geom.Box, deletes []geom.ID, held func(geom.ID) bool) (next *Delta, first geom.ID, deleted int, ok bool) {
	if !d.CanInsert(len(inserts)) {
		return d, d.nextID, 0, false
	}
	next, deleted = d.Delete(deletes, held)
	next, first = next.Insert(inserts)
	return next, first, deleted, true
}

// Holds reports whether the ID-ascending ds holds an object with this
// ID — the membership test of one tier.
func Holds(ds geom.Dataset, id geom.ID) bool {
	_, found := findID(ds, id)
	return found
}

// Since returns what is left pending of d once a fold built from its
// ancestor d0 publishes, the fold having rewritten every object with an
// ID at or above cut (d0's whole tail included): the inserts appended
// after d0, unfolded; the tombstones added after d0, unfolded, wherever
// they point; and d0's tombstones below cut, settled — the tiers they
// name were not rewritten. d0's tombstones at or above cut drop out with
// the objects they named. d must descend from d0 by Insert/Delete steps,
// so d0's tombstones are a subsequence of d's and one walk separates
// them; d0.Since(d0, cut) is the delta of the fold itself, nothing
// carried over.
func (d *Delta) Since(d0 *Delta, cut geom.ID) *Delta {
	nd := &Delta{nextID: d.nextID}
	if n := len(d0.inserts); n < len(d.inserts) {
		nd.inserts = d.inserts[n:]
	}
	nd.settled, _ = slices.BinarySearch(d0.tombs, cut)
	folded := d0.tombs[nd.settled:]
	if n := len(d.tombs) - len(folded); n > 0 {
		nd.tombs = make([]geom.ID, 0, n)
		for _, id := range d.tombs {
			if len(folded) > 0 && folded[0] == id {
				folded = folded[1:]
				continue
			}
			nd.tombs = append(nd.tombs, id)
		}
	}
	return nd
}

// Merged materializes the dataset this delta describes over tiers —
// ID-ascending datasets over ascending, disjoint ID ranges, the topmost
// tiers of the dataset in order: their objects that survive the
// tombstones followed by the live inserts, ID-ascending too and ready to
// build a tier from — and, by the ID-stability contract, an index built
// from it answers every query and join exactly as (those tiers + delta)
// do. Tombstones naming objects of lower tiers are passed over. With
// nothing to merge into a single tier it returns that tier itself.
func (d *Delta) Merged(tiers ...geom.Dataset) geom.Dataset {
	if len(tiers) == 1 && len(d.Objects()) == 0 && len(d.Tombs()) == 0 {
		return tiers[0]
	}
	// Every tombstone at or above the lowest ID merged names one of the
	// objects merged, so the result's size is known.
	n, lowest := len(d.Objects()), d.tailStart()
	for i := len(tiers) - 1; i >= 0; i-- {
		if n += len(tiers[i]); len(tiers[i]) > 0 {
			lowest = tiers[i][0].ID
		}
	}
	below, _ := slices.BinarySearch(d.Tombs(), lowest)
	merged := make(geom.Dataset, 0, n-(len(d.Tombs())-below))
	for _, t := range tiers {
		merged = appendLive(merged, t, d.Tombs())
	}
	return appendLive(merged, d.Objects(), d.Tombs())
}
