package touch

import (
	"fmt"
	"math"
	"slices"
	"time"

	"touch/internal/delta"
	"touch/internal/trace"
)

// Overlay is one immutable generation of an updatable dataset: a short
// list of immutable index tiers over ascending, disjoint ID ranges — the
// base Index first — plus the pending updates no fold has indexed yet,
// inserted objects and deleted (tombstoned) IDs, presenting the reader's
// query and join surface over the merged state. Every answer is
// bit-identical to what an index rebuilt from the merged dataset would
// return, and an Overlay of one tier with nothing pending reads exactly
// as its base Index does. What each shape costs per tier and over a
// non-empty delta is documented on the reader's methods. Publishing an
// update is O(batch): nothing here is copied or rebuilt per generation.
//
// An Overlay is an immutable value: it holds references, never copies a
// tier, and is safe for arbitrary concurrent callers, exactly like
// Index. The write side lives elsewhere (Mutable here, the serving
// catalog in touchserved); both hold the current Overlay behind an
// atomic pointer and step it with the same three functions: OverlayOf
// starts a generation from a dataset and its index, Apply is the update
// step, and Fold with Fold.Next is the compaction.
//
// The invariant the merges rest on: every tier's IDs lie above the IDs
// of the tiers below it, the inserts are strictly ID-ascending and every
// insert ID is greater than every ID a tier holds, so merged ID lists
// stay sorted by concatenation and an insert loses every distance tie
// against what is already in a top-k. OverlayOf's descendants keep it by
// construction; NewOverlay checks it once.
type Overlay struct {
	reader
	idx *Index
	// d is the write side's account of inserts and tombs; nil in an
	// Overlay built by NewOverlay, which is read-only.
	d *delta.Delta
}

// NewOverlay builds a read-only Overlay over idx with the given inserted
// objects and deleted IDs. inserts must satisfy the Overlay invariant —
// checked here, once, and a violation panics — and may or may not still
// contain objects that deleted names. deleted may come in any order and
// is copied only if it has to be sorted; otherwise the slices are
// retained, not copied: treat them as frozen afterwards. The result
// holds no dataset for its index, so it has none to merge or to search
// for a deleted ID: Apply, Fold and Dataset panic on it, saying so.
// Generations that can be stepped start from OverlayOf.
func NewOverlay(idx *Index, inserts Dataset, deleted []ID) *Overlay {
	last := idx.maxID
	for i := range inserts {
		if inserts[i].ID <= last {
			panic(fmt.Sprintf("touch: NewOverlay: insert ID %d is not above the base's and the earlier inserts' IDs (≤ %d)", inserts[i].ID, last))
		}
		last = inserts[i].ID
	}
	if !slices.IsSorted(deleted) {
		deleted = slices.Clone(deleted)
		slices.Sort(deleted)
	}
	v := &Overlay{reader: idx.reader, idx: idx}
	v.inserts, v.tombs = inserts, deleted
	return v
}

// OverlayOf returns the first generation of a dataset: idx, which must
// have been built over ds, as the only tier and nothing pending. ds must
// be ID-ascending and is retained; the first insert will receive an ID
// above every ID in it.
func OverlayOf(ds Dataset, idx *Index) *Overlay {
	return idx.over([]tier{idx.tier(ds)}, delta.NewForBase(ds))
}

// tier returns ix's tree as the tier of ds, the dataset it indexes.
func (ix *Index) tier(ds Dataset) tier {
	t := ix.tiers[0]
	t.ds = ds
	return t
}

// over returns the generation of tiers — tiers[0] being ix's — with d
// pending.
func (ix *Index) over(tiers []tier, d *delta.Delta) *Overlay {
	v := &Overlay{reader: newReader(tiers), idx: ix, d: d}
	v.inserts, v.tombs = d.Objects(), d.Tombs()
	return v
}

// Base returns the base index, the lowest tier.
func (v *Overlay) Base() *Index { return v.idx }

// stepped panics when v is read-only (see NewOverlay); method names the
// caller.
func (v *Overlay) stepped(method string) {
	if v.d == nil {
		panic("touch: Overlay." + method + " on a read-only Overlay built by NewOverlay, which holds no dataset for its index; start from OverlayOf")
	}
}

// Apply is the update step: deletes first — so a batch can delete
// existing IDs and insert their replacements — then inserts, which
// receive the consecutive IDs first, first+1, …, never used before.
// Unknown and already-deleted IDs are skipped; deleted counts the
// objects actually tombstoned. ok is false, and nothing applied, when
// the inserts would overflow the ID space; a batch that changes nothing
// returns the receiver itself. Boxes must already be validated. The
// caller serializes Apply and Fold.Next on one generation chain.
func (v *Overlay) Apply(inserts []Box, deletes []ID) (next *Overlay, first ID, deleted int, ok bool) {
	v.stepped("Apply")
	nd, first, deleted, ok := v.d.Apply(inserts, deletes, v.holds)
	if nd == v.d {
		return v, first, deleted, ok
	}
	next = &Overlay{reader: v.reader, idx: v.idx, d: nd}
	next.inserts, next.tombs = nd.Objects(), nd.Tombs()
	return next, first, deleted, ok
}

// holds reports whether some tier holds an object with this ID, dead or
// alive. The tiers' ID ranges ascend, so the topmost tier that starts at
// or below id is the only candidate.
func (v *Overlay) holds(id ID) bool {
	for i := len(v.tiers) - 1; i >= 0; i-- {
		if ds := v.tiers[i].ds; len(ds) > 0 && ds[0].ID <= id {
			return delta.Holds(ds, id)
		}
	}
	return false
}

// Pending returns the sizes of the unfolded tail: the inserts no fold
// has indexed and the tombstones no fold has seen. Their sum is what a
// compaction threshold is compared against; tombstones a fold left in
// place, because they name objects of tiers it did not rewrite, are not
// part of it.
func (v *Overlay) Pending() (inserts, tombstones int) {
	return len(v.inserts), len(v.tombs) - v.settled()
}

// settled counts the tombstones a fold has seen and left in place.
func (v *Overlay) settled() int { return len(v.d.Tombs()) - v.d.Tombstones() }

// Dataset returns the merged live objects, ID-ascending: what an index
// rebuilt from scratch would be built over. Read-only — with one tier and
// no update ever applied to it, it is that tier's own dataset.
func (v *Overlay) Dataset() Dataset {
	v.stepped("Dataset")
	return v.d.Merged(v.datasets(0)...)
}

// datasets lists the datasets of the tiers from start up.
func (v *Overlay) datasets(start int) []Dataset {
	out := make([]Dataset, 0, len(v.tiers)-start)
	for _, t := range v.tiers[start:] {
		out = append(out, t.ds)
	}
	return out
}

// Stats describes the generation's tiers as one index: object, node and
// leaf counts and static bytes summed, the height of the tallest tier.
// Objects leaves out the dead objects the tiers still hold under a
// tombstone an earlier fold has seen, so Objects plus the pending inserts
// minus the pending tombstones is the live object count.
func (v *Overlay) Stats() IndexStats {
	var st IndexStats
	for i := range v.tiers {
		t := v.tiers[i].stats()
		st.Objects += t.Objects
		st.Nodes += t.Nodes
		st.Leaves += t.Leaves
		st.Height = max(st.Height, t.Height)
		st.StaticBytes += t.StaticBytes
	}
	st.Objects -= v.settled()
	return st
}

// TierStats describes one tier of an Overlay.
type TierStats struct {
	// Objects is the number of objects the tier indexes, Dead how many of
	// them are tombstoned and wait for a fold to reach the tier.
	Objects, Dead int
	// MinID and MaxID bound the tier's IDs; 0 and -1 on an empty base.
	MinID, MaxID ID
}

// Tiers describes the generation's tiers, base first. Their ID ranges
// ascend without overlap, and right after a fold every tier holds more
// than twice the objects of all the tiers above it together.
func (v *Overlay) Tiers() []TierStats {
	out := make([]TierStats, len(v.tiers))
	tombs := v.tombs
	for i := len(v.tiers) - 1; i >= 0; i-- {
		ds := v.tiers[i].ds
		st := TierStats{Objects: len(ds), MaxID: -1}
		if len(ds) > 0 {
			st.MinID, st.MaxID = ds[0].ID, ds[len(ds)-1].ID
			tombs = tombs[:lowerBound(tombs, st.MaxID+1)]
			below := lowerBound(tombs, st.MinID)
			st.Dead, tombs = len(tombs)-below, tombs[:below]
		}
		out[i] = st
	}
	return out
}

// lowerBound returns the number of ids below id; ids ascends.
func lowerBound(ids []ID, id ID) int {
	n, _ := slices.BinarySearch(ids, id)
	return n
}

// Fold is a compaction that has been built and not yet published: the
// tiers it leaves and what it takes to carry a later generation's
// updates over onto them.
type Fold struct {
	// Objects is the number of objects the fold wrote into its new tree —
	// what the fold cost, and over the inserts accepted the write
	// amplification.
	Objects int

	from  *Overlay
	idx   *Index
	tiers []tier
	cut   ID // the fold rewrote every object with an ID at or above it
}

// Fold folds the unfolded tail of v into its tiers and returns the
// outcome for Next to publish; nil when there is nothing to fold. It is
// the expensive half of a compaction — it builds one tree with build —
// reads only immutable state and needs no lock.
//
// The tail becomes a new top tier, unless some tier's pending weight —
// the objects in the tiers and the tail above it plus the tombstones
// pointing into it — has reached half its size: then the fold starts at
// the lowest such tier and rewrites it and everything above it into one
// tree, dropping the tombstoned objects and their tombstones on the way.
// A tier is therefore rewritten once what changed above and inside it is
// comparable to its size, and not before: every tier left alone holds
// more than twice what sits above it, which bounds the tiers at
// log₂(objects ÷ tail size) + 2 and the dead objects in any tier at half
// of it. Tombstones pointing below the rewritten tiers stay for the
// readers. full starts the fold at the base whatever the weights: one
// tier, no tombstone, an explicit compaction.
//
// A tier above the base is built with the base's configuration and as
// many partitions as give it the base's objects per bucket.
func (v *Overlay) Fold(full bool, build func(Dataset, TOUCHConfig) *Index) *Fold {
	v.stepped("Fold")
	ins, tombs := v.d.Objects(), v.d.Tombs()
	tail := v.d.NextID() - ID(len(ins)) // the first unfolded insert's ID
	start := len(v.tiers)
	if full {
		if start = 0; len(v.tiers) == 1 && len(ins) == 0 && len(tombs) == 0 {
			return nil
		}
	} else {
		if v.d.Empty() {
			return nil
		}
		// From the top: above counts the objects over tier i, and the
		// tombstones not yet attributed all point into tier i or below.
		above := len(ins)
		tombs = tombs[:lowerBound(tombs, tail)]
		for i := len(v.tiers) - 1; i >= 0; i-- {
			ds := v.tiers[i].ds
			below := 0
			if i > 0 {
				below = lowerBound(tombs, ds[0].ID)
			}
			if 2*(above+len(tombs)-below) >= len(ds) {
				start = i
			}
			above, tombs = above+len(ds), tombs[:below]
		}
	}

	merged := v.d.Merged(v.datasets(start)...)
	f := &Fold{Objects: len(merged), from: v, idx: v.idx, tiers: slices.Clip(v.tiers[:start]), cut: tail}
	cfg := v.idx.Config()
	switch {
	case start == 0:
		f.cut = math.MinInt32
		f.idx = build(merged, cfg)
		f.tiers = append(f.tiers, f.idx.tier(merged))
	case len(merged) > 0:
		bucket := max(1, (len(v.tiers[0].ds)+cfg.Partitions-1)/cfg.Partitions)
		cfg.Partitions = min(cfg.Partitions, (len(merged)+bucket-1)/bucket)
		f.tiers = append(f.tiers, build(merged, cfg).tier(merged))
	}
	if 0 < start && start < len(v.tiers) {
		f.cut = v.tiers[start].ds[0].ID
	}
	return f
}

// Next returns the generation that follows cur once the fold is in: the
// fold's tiers under the updates cur has taken since the generation the
// fold was built from, which cur must descend from by Apply steps.
// Passing that generation itself gives the fold's own outcome, nothing
// carried over. O(tombstones); the caller holds its writer lock.
func (f *Fold) Next(cur *Overlay) *Overlay {
	return f.idx.over(f.tiers, cur.d.Since(f.from.d, f.cut))
}

// dead reports whether id is tombstoned.
func (r *reader) dead(id ID) bool {
	_, dead := slices.BinarySearch(r.tombs, id)
	return dead
}

// merge turns the tiers' answer ids (ascending) for the box q into the
// merged answer: the inserts intersecting q are appended — in ID order
// and above every tier's IDs, so the list stays ascending — and then the
// tombstoned IDs, tier objects and inserts alike, are removed in place.
// A non-nil sp records the insert pass as PhaseDelta and the filter as
// PhaseOverlay.
func (r *reader) merge(ids []ID, q Box, sp *Span) []ID {
	if r.frozen() {
		return ids
	}
	var start time.Time
	if sp != nil {
		start = time.Now()
	}
	ins := r.inserts
	for i := range ins {
		if ins[i].Box.Meets(&q) {
			ids = append(ids, ins[i].ID)
		}
	}
	if sp != nil {
		sp.Add(trace.PhaseDelta, time.Since(start))
		start = time.Now()
	}
	if tombs := r.tombs; len(tombs) > 0 {
		live := ids[:0]
		for _, id := range ids {
			// ids ascend, so each search resumes where the last ended.
			at, dead := slices.BinarySearch(tombs, id)
			tombs = tombs[at:]
			if !dead {
				live = append(live, id)
			}
		}
		ids = live
	}
	if sp != nil {
		sp.Add(trace.PhaseOverlay, time.Since(start))
		sp.SetResults(int64(len(ids)))
	}
	return ids
}
