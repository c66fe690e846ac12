// Package delta implements the write side of the incremental-update
// path: a small per-dataset buffer of inserted objects and tombstones
// that sits next to an immutable base index, in the spirit of an LSM
// memtable over a packed run. A Delta is an immutable value — every
// mutation returns a new *Delta sharing structure with its parent — so
// the owning layer can publish it through an atomic pointer and readers
// never take a lock. The write path is written once here and run by both
// owners, the touch package's Mutable and the server catalog, each under
// its own writer lock: Apply is the update step (a batch of deletes, then
// inserts) and Scheduler decides when the owner folds the delta into a
// rebuilt base. Serialized writers are what lets inserts share one
// append-only backing array across generations.
//
// The contract that everything downstream leans on: a base dataset is
// ID-ascending, every insert receives a fresh ID strictly greater than
// any ID the base has ever held (NextID is monotone, IDs are never
// reused), and deletes are recorded as tombstones rather than applied
// in place: the inserts array keeps tombstoned objects, and the
// tombstones are one ID-ascending slice that is retained until a
// compaction folds it. Readers take both slices as they are (Objects,
// Tombstones) and test a tombstone by binary search only on an object
// that is already a hit, so publishing an update costs O(batch) plus a
// 4-byte-per-tombstone copy when the batch deletes something. Merged
// reads are a disjoint union — base answers minus tombstoned IDs, plus
// one pass over the inserts — and folding the delta into a new base
// (Merged) preserves every surviving ID, so answers over base+delta are
// bit-identical to answers over an index rebuilt from the merged
// dataset.
package delta

import (
	"slices"

	"touch/internal/geom"
)

// Delta is one immutable generation of pending updates against a base
// dataset. The zero of the type is not used; start from NewForBase. A
// nil *Delta is a valid empty delta for every read accessor.
type Delta struct {
	// inserts holds every inserted object of this base generation with
	// consecutive ascending IDs, including ones later tombstoned — the
	// slice is append-only so descendant deltas and the readers of
	// published generations share its backing array.
	inserts geom.Dataset
	// tombs lists the deleted IDs, of base objects and inserts alike,
	// ascending. Never mutated after the Delta is published; Delete
	// copies.
	tombs []geom.ID
	// nextID is the ID the next insert will receive. It only grows,
	// across compactions included, so IDs are never reused.
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

// NextID returns the ID the next insert will be assigned.
func (d *Delta) NextID() geom.ID {
	if d == nil {
		return 0
	}
	return d.nextID
}

// Empty reports whether the delta holds no pending updates.
func (d *Delta) Empty() bool { return d.Size() == 0 }

// Inserts returns the number of buffered inserts, tombstoned ones
// included.
func (d *Delta) Inserts() int { return len(d.Objects()) }

// Tombstones returns the number of tombstoned IDs.
func (d *Delta) Tombstones() int { return len(d.Tombs()) }

// Size is the total number of buffered updates — the quantity
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

// Tombs returns the tombstoned IDs ascending. The slice is the delta's
// own and read-only; TombIDs returns a copy.
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
// (ascending) does not name: one binary search per tombstone, the runs
// between them copied whole.
func appendLive(dst, src geom.Dataset, tombs []geom.ID) geom.Dataset {
	for _, id := range tombs {
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

// containsInsert reports whether id is one of this delta's inserts,
// whose IDs are the consecutive run ending just below nextID.
func (d *Delta) containsInsert(id geom.ID) bool {
	return id < d.nextID && int(d.nextID)-int(id) <= len(d.inserts)
}

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
	return &Delta{inserts: inserts, tombs: d.tombs, nextID: first + geom.ID(len(boxes))}, first
}

// Delete returns a delta with a tombstone added for every id that is
// currently live — present in the base (as reported by inBase) or among
// this delta's inserts, and not already tombstoned. Unknown, repeated
// and already-deleted IDs are skipped; deleted reports how many
// tombstones were actually added. The receiver must be non-nil. The
// tombstone slice is copied once, with the new IDs merged in place.
func (d *Delta) Delete(ids []geom.ID, inBase func(geom.ID) bool) (nd *Delta, deleted int) {
	add := slices.Clone(ids)
	slices.Sort(add)
	add = slices.DeleteFunc(slices.Compact(add), func(id geom.ID) bool {
		return d.Tombstoned(id) || (!d.containsInsert(id) && !inBase(id))
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
	return &Delta{inserts: d.inserts, tombs: append(tombs, old...), nextID: d.nextID}, len(add)
}

// Apply is the one update step both owners run under their writer lock:
// deletes first — so a batch can delete existing IDs and insert their
// replacements without tombstoning its own inserts — with membership in
// the ID-ascending base by binary search, then inserts. ok is false, and
// nothing applied, when the inserts would overflow the ID space; a batch
// that changes nothing returns the receiver itself.
func (d *Delta) Apply(base geom.Dataset, inserts []geom.Box, deletes []geom.ID) (next *Delta, first geom.ID, deleted int, ok bool) {
	if !d.CanInsert(len(inserts)) {
		return d, d.nextID, 0, false
	}
	next, deleted = d.Delete(deletes, func(id geom.ID) bool {
		_, found := findID(base, id)
		return found
	})
	next, first = next.Insert(inserts)
	return next, first, deleted, true
}

// Since returns the updates of d not yet contained in its ancestor d0:
// the inserts appended after d0 and the tombstones added after d0. It
// is the delta that remains pending once a compaction built from
// (base, d0) publishes — tombstones of d0's own inserts drop out with
// it (those objects were folded in dead or not at all), while later
// tombstones survive verbatim, whether they point at old base IDs, at
// folded inserts (now base IDs of the new generation) or at inserts
// newer than the fold. d must descend from d0 by Insert/Delete steps,
// so d0's tombstones are a subsequence of d's and one walk separates
// them.
func (d *Delta) Since(d0 *Delta) *Delta {
	nd := &Delta{nextID: d.nextID}
	if n := len(d0.inserts); n < len(d.inserts) {
		nd.inserts = d.inserts[n:]
	}
	if n := len(d.tombs) - len(d0.tombs); n > 0 {
		nd.tombs = make([]geom.ID, 0, n)
		folded := d0.tombs
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

// Merged materializes the dataset this delta describes over base, which
// must be ID-ascending: the base objects that survive the tombstones
// followed by the live inserts, ID-ascending too and ready to build the
// next-generation index from — and, by the ID-stability contract, an
// index built from it answers every query and join exactly as the
// (base index + delta) pair does.
func (d *Delta) Merged(base geom.Dataset) geom.Dataset {
	if d.Empty() {
		return base
	}
	merged := make(geom.Dataset, 0, len(base)+len(d.inserts)-len(d.tombs))
	return appendLive(appendLive(merged, base, d.tombs), d.inserts, d.tombs)
}
