package touch

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"touch/internal/core"
	"touch/internal/delta"
	"touch/internal/trace"
)

// Overlay is one immutable generation of a dataset, and the one read
// surface of the package: a short list of immutable index tiers over
// ascending, disjoint ID ranges, tiers[0] being the base, plus the
// pending updates no fold has indexed yet, inserted objects and deleted
// (tombstoned) IDs. BuildIndex returns a dataset's first generation, one
// tier with nothing pending; Apply is the update step, and Fold with
// Fold.Next the compaction. Every query and join method answers
// bit-identically to an index rebuilt from the merged dataset. Publishing
// an update is O(batch): nothing here is copied or rebuilt per
// generation, except that the update completing a stretch of
// delta.RunLen inserts seals it into a sorted run the single-probe
// queries read instead of scanning it (see package delta).
//
// Reads fan over the tiers — each method says at what cost — and over
// the delta as its slices, as they are. Every delta pass returns at once
// when its slice is empty, so with one tier and nothing pending a read
// runs the bare tree's instructions plus those branches, and its trace
// carries no delta or overlay phase.
//
// An Overlay is an immutable value: it holds references, never copies a
// tier, and is safe for arbitrary concurrent callers, each call drawing
// a private probe from the pool of the tier it probes. The write side
// lives elsewhere (Mutable here, the serving catalog in touchserved);
// both hold the current Overlay behind an atomic pointer and step it
// with Apply and Fold.
//
// The invariant the merges rest on: every tier's IDs lie above the IDs
// of the tiers below it, the inserts are strictly ID-ascending and every
// insert ID is greater than every ID a tier holds, so merged ID lists
// stay sorted by concatenation and an insert loses every distance tie
// against what is already in a top-k. The steps keep it by construction;
// NewOverlay checks it once.
type Overlay struct {
	tiers []tier
	upper []*core.Tree // the trees of tiers[1:], as the engine's queries take them
	// inserts are the ones no fold has indexed, tombstoned ones included,
	// in ID order, as joins read them; single probes read them as runs,
	// the sealed x-sorted stretches of delta.RunLen (delta.Run), and rest.
	inserts Dataset
	runs    []delta.Run
	rest    Dataset // the unsealed suffix of inserts
	tombs   []ID    // ascending, of tier objects and inserts alike
	// d is the write side's account of inserts and tombs; nil in a
	// read-only generation: one built by NewOverlay, or by BuildIndex over
	// a repeated ID.
	d *delta.Delta
}

// NewOverlay builds a read-only Overlay over idx's tiers with the given
// inserted objects and deleted IDs; what idx has pending is not carried
// over. inserts must satisfy the Overlay invariant — checked here, once,
// against the top tier's largest ID, and a violation panics — and may or
// may not still contain objects that deleted names. deleted may come in
// any order and is copied only if it has to be sorted; otherwise the
// slices are retained, not copied: treat them as frozen afterwards. The
// result has no write side — its inserts need not have the consecutive
// IDs an update issues — so Apply, Fold and Dataset panic on it, saying
// so, and EncodeSnapshot refuses it.
func NewOverlay(idx *Index, inserts Dataset, deleted []ID) *Overlay {
	last := idx.tiers[len(idx.tiers)-1].ids.Max()
	for i := range inserts {
		if inserts[i].ID <= last {
			panic(fmt.Sprintf("touch: NewOverlay: insert ID %d is not above the tiers' and the earlier inserts' IDs (≤ %d)", inserts[i].ID, last))
		}
		last = inserts[i].ID
	}
	if !slices.IsSorted(deleted) {
		deleted = slices.Clone(deleted)
		slices.Sort(deleted)
	}
	v := &Overlay{tiers: idx.tiers, upper: idx.upper}
	v.pend(inserts, delta.Seal(nil, inserts), deleted)
	return v
}

// readOnly says why v has no write side, nil when it has one.
func (v *Overlay) readOnly() error {
	switch t := &v.tiers[0]; {
	case v.d != nil:
		return nil
	case t.ids.Len() < t.tree.SizeA:
		return fmt.Errorf("%d duplicate object IDs", t.tree.SizeA-t.ids.Len())
	default:
		return errors.New("a read-only Overlay built by NewOverlay has no write side")
	}
}

// stepped panics when v is read-only; method names the caller.
func (v *Overlay) stepped(method string) {
	if err := v.readOnly(); err != nil {
		panic("touch: Overlay." + method + ": " + err.Error())
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
	next = &Overlay{tiers: v.tiers, upper: v.upper, d: nd}
	next.pend(nd.Objects(), nd.Runs(), nd.Tombs())
	return next, first, deleted, ok
}

// holds reports whether some tier holds an object with this ID, dead or
// alive. The tiers' ID ranges ascend, so the topmost tier that starts at
// or below id is the only candidate.
func (v *Overlay) holds(id ID) bool {
	for i := len(v.tiers) - 1; i >= 0; i-- {
		if ids := v.tiers[i].ids; ids.Len() > 0 && ids.Min() <= id {
			return ids.Holds(id)
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

// settled counts the tombstones a fold has seen and left in place; none
// in a read-only generation, whose tombstones are all pending.
func (v *Overlay) settled() int { return len(v.d.Tombs()) - v.d.Tombstones() }

// Dataset returns the merged live objects, ID-ascending, as a fresh
// slice: what an index rebuilt from scratch would be built over, each
// tier's objects gathered from its tree's arena.
func (v *Overlay) Dataset() Dataset {
	v.stepped("Dataset")
	return v.merged(0)
}

// merged gathers the objects of the tiers from start up, in ID order,
// into one fresh slice with room for the inserts, and merges the delta
// into it in place: the dataset of a fold that rewrites those tiers.
func (v *Overlay) merged(start int) Dataset {
	n := len(v.inserts)
	for i := start; i < len(v.tiers); i++ {
		n += v.tiers[i].ids.Len()
	}
	held := make(Dataset, 0, n)
	for i := start; i < len(v.tiers); i++ {
		held = v.tiers[i].gather(held)
	}
	return v.d.MergedInPlace(held)
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
		ids := v.tiers[i].ids
		st := TierStats{Objects: ids.Len(), MaxID: -1}
		if ids.Len() > 0 {
			st.MinID, st.MaxID = ids.Min(), ids.Max()
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
			ids := v.tiers[i].ids
			below := 0
			if i > 0 {
				below = lowerBound(tombs, ids.Min())
			}
			if 2*(above+len(tombs)-below) >= ids.Len() {
				start = i
			}
			above, tombs = above+ids.Len(), tombs[:below]
		}
	}

	merged := v.merged(start)
	f := &Fold{Objects: len(merged), from: v, tiers: slices.Clip(v.tiers[:start]), cut: tail}
	cfg := v.Config()
	switch {
	case start == 0:
		f.cut = math.MinInt32
		f.tiers = append(f.tiers, build(merged, cfg).tiers[0])
	case len(merged) > 0:
		bucket := max(1, (v.tiers[0].ids.Len()+cfg.Partitions-1)/cfg.Partitions)
		cfg.Partitions = min(cfg.Partitions, (len(merged)+bucket-1)/bucket)
		f.tiers = append(f.tiers, build(merged, cfg).tiers[0])
	}
	if 0 < start && start < len(v.tiers) {
		f.cut = v.tiers[start].ids.Min()
	}
	return f
}

// Next returns the generation that follows cur once the fold is in: the
// fold's tiers under the updates cur has taken since the generation the
// fold was built from, which cur must descend from by Apply steps.
// Passing that generation itself gives the fold's own outcome, nothing
// carried over. O(tombstones); the caller holds its writer lock.
func (f *Fold) Next(cur *Overlay) *Overlay {
	return over(f.tiers, cur.d.Since(f.from.d, f.cut))
}

// dead reports whether id is tombstoned.
func (v *Overlay) dead(id ID) bool {
	_, dead := slices.BinarySearch(v.tombs, id)
	return dead
}

// merge turns the tiers' answer ids (ascending) for the box q into the
// merged answer: the inserts intersecting q are appended — in ID order
// and above every tier's IDs, so the list stays ascending — and then the
// tombstoned IDs, tier objects and inserts alike, are removed in place.
// Each sealed run is tested only in its window (delta.Run.Window) and its
// hits, met in x order, are sorted; the unsealed rest, ID-ascending and
// above every run's IDs, is tested whole. A non-nil sp records the
// insert pass as PhaseDelta and the filter as PhaseOverlay.
func (v *Overlay) merge(ids []ID, q Box, sp *Span) []ID {
	if v.frozen() {
		return ids
	}
	var start time.Time
	if sp != nil {
		start = time.Now()
	}
	from := len(ids)
	for i := range v.runs {
		es := v.runs[i].Window(&q)
		for j := range es {
			if es[j].Box.Meets(&q) {
				ids = append(ids, es[j].ID)
			}
		}
	}
	slices.Sort(ids[from:])
	rest := v.rest
	for i := range rest {
		if rest[i].Box.Meets(&q) {
			ids = append(ids, rest[i].ID)
		}
	}
	if sp != nil {
		sp.Add(trace.PhaseDelta, time.Since(start))
		start = time.Now()
	}
	if tombs := v.tombs; len(tombs) > 0 {
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
