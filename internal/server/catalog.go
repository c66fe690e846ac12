package server

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"touch"
	"touch/internal/delta"
	"touch/internal/promhist"
)

// buildFunc constructs the index over one dataset version. Production
// code uses touch.BuildIndex; tests inject slow builds to observe the
// building states deterministically.
type buildFunc func(touch.Dataset, touch.TOUCHConfig) *touch.Index

// snapshot is one immutable serving state of a named dataset: the
// touch.Overlay of one generation — the index tiers, the pending inserts
// and the tombstones — with the version that built its tiers. A request
// obtains a snapshot with a single atomic load and asks everything of
// its Overlay, so every query and join answers from one consistent state
// even while a PATCH, a rebuild or a compaction swaps the entry
// underneath it — an update is entirely visible to a request or not at
// all, never half.
type snapshot struct {
	version int64
	// ov is the generation every query, join and update of this serving
	// state runs on. Its pending updates are in-memory only — they become
	// durable when a compaction folds them into the next persisted version.
	ov      *touch.Overlay
	builtAt time.Time
	// persisted marks a version whose snapshot file is durably on disk
	// (written before this snapshot became visible, or restored from
	// disk at startup); snapBytes is that file's size. A false persisted
	// on a server with a data dir means the dataset is ephemeral — a
	// restart loses it.
	persisted bool
	snapBytes int64
}

// pending returns the size of the unfolded tail, inserts + tombstones:
// what the compaction threshold is compared against.
func (s *snapshot) pending() int {
	ins, tombs := s.ov.Pending()
	return ins + tombs
}

// entry is one named dataset of the catalog.
type entry struct {
	name string

	// ready holds the newest fully built snapshot; nil until the first
	// build completes. This pointer is the hot swap: builders store,
	// readers load, and the read path takes no locks.
	ready atomic.Pointer[snapshot]

	mu         sync.Mutex      // guards the fields below and every store to ready
	accepted   int64           // newest version accepted for building
	building   int             // builds in flight or queued
	folds      delta.Scheduler // background compactions, at most one in flight
	pendingMax int             // largest pending delta an update has published
	// dropped marks an entry that drop removed while a request still held
	// it: its update answers as if the lookup had missed and its fold
	// reserves no version, so the retired counter stays the name's newest.
	dropped bool

	buildMu sync.Mutex // serializes builds of this entry
}

// catalog is the named, versioned index store behind /v1/datasets.
// Loading a name that already exists starts a background rebuild; the
// old index keeps serving until the new one atomically replaces it, and
// a version that finishes building after a newer one never regresses
// the entry (every swap of a version passes entry.publish).
type catalog struct {
	build buildFunc
	// persist, when non-nil, mirrors builds and drops to disk. Set once
	// at construction, before any load can run.
	persist *persister

	// pending counts builds accepted but not yet finished (or skipped),
	// catalog-wide; the server's load path uses it to bound the build
	// backlog, which lives outside the request-slot admission layer.
	pending atomic.Int64

	// compactAt is the per-dataset size of the unfolded tail (inserts +
	// tombstones) at which an update schedules a background compaction;
	// <= 0 disables automatic compaction. Set once at construction.
	compactAt int
	// compactions counts published folds and compactionObjects the objects
	// they wrote into new trees; compactionsSkipped counts compactions
	// abandoned because a newer full version superseded them.
	compactions         atomic.Int64
	compactionObjects   atomic.Int64
	compactionsSkipped  atomic.Int64
	compactionsInFlight atomic.Int64 // folds holding a reserved version
	// compactionTime histograms the published folds end to end: merge,
	// build of the one new tree and persist.
	compactionTime promhist.Histogram

	mu      sync.RWMutex
	entries map[string]*entry
	// retired remembers the last accepted version of dropped names so a
	// DELETE + re-POST cannot reset the version sequence — responses
	// advertise per-name monotonic versions and clients rely on it.
	retired map[string]int64
}

func newCatalog(build buildFunc) *catalog {
	if build == nil {
		build = touch.BuildIndex
	}
	return &catalog{build: build, entries: make(map[string]*entry), retired: make(map[string]int64)}
}

// entryFor returns the named entry, or nil when the name is unknown.
func (c *catalog) entryFor(name string) *entry {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.entries[name]
}

// entryLocked returns the named entry, created if new with its version
// counter continuing a dropped predecessor's. Caller holds c.mu.
func (c *catalog) entryLocked(name string) *entry {
	e := c.entries[name]
	if e == nil {
		e = &entry{name: name, accepted: c.retired[name]}
		e.folds = delta.NewScheduler(&e.mu, c.compactAt, e.pending, func() bool { return c.fold(e) })
		delete(c.retired, name)
		c.entries[name] = e
	}
	return e
}

// acquireVersion creates the entry if needed and assigns the next
// version under the catalog lock — the same lock drop takes — so a
// DELETE racing a load can never record a stale counter into retired
// and let a re-created entry reissue an already-used version number.
func (c *catalog) acquireVersion(name string) (*entry, int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entryLocked(name)
	e.mu.Lock()
	defer e.mu.Unlock()
	e.accepted++
	e.building++
	return e, e.accepted
}

// buildVersion is the one way the reserved version v of e comes to
// serve, and it ends the reservation. In its turn on the entry's build
// lock it skips v if a newer version has been accepted (that one builds
// after us, or already has, so ours could never serve: don't waste the
// work, release the pinned dataset at once); otherwise it runs
// generation — a full build or a fold — persists what that returns ahead
// of visibility and publishes it through e.publish. carry is a fold's:
// see publish. It reports whether v was published.
func (c *catalog) buildVersion(e *entry, v int64, generation func() *touch.Overlay, carry func(*touch.Overlay) *touch.Overlay) bool {
	if carry != nil {
		c.compactionsInFlight.Add(1)
	}
	defer func() {
		// The gauge drops before the version is released, so it never
		// counts a fold that holds none.
		if carry != nil {
			c.compactionsInFlight.Add(-1)
		}
		e.mu.Lock()
		e.building--
		e.mu.Unlock()
		c.pending.Add(-1)
	}()
	e.buildMu.Lock()
	defer e.buildMu.Unlock()
	e.mu.Lock()
	superseded := e.accepted > v
	e.mu.Unlock()
	if superseded {
		return false
	}
	snap := &snapshot{version: v, ov: generation(), builtAt: time.Now()}
	if p := c.persist; p != nil {
		// Write-ahead of visibility: the snapshot — and with it every
		// update a compaction folded in — must be durably on disk before
		// the hot swap can publish it, so a crash right after a
		// 200-visible version still restarts with that version. A
		// persistence failure degrades gracefully — the publish still
		// happens, the version just serves as ephemeral (flagged in the
		// listing, counted in metrics).
		var err error
		if snap.snapBytes, snap.persisted, err = p.save(e.name, v, snap.ov, snap.builtAt); err != nil {
			p.log.Error("snapshot: persist failed, dataset is ephemeral",
				"dataset", e.name, "version", v, "err", err)
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.publish(snap, carry)
}

// publish is the guard every version passes to serve: it stores snap
// unless a version at least as new already serves, so the entry never
// swaps backwards, and reports whether it stored. carry, when non-nil,
// runs right before the store and gives the generation to serve in place
// of snap's, from the serving one's: a fold carries over the updates
// applied while it built. The caller holds e.mu.
func (e *entry) publish(snap *snapshot, carry func(*touch.Overlay) *touch.Overlay) bool {
	cur := e.ready.Load()
	if cur != nil && cur.version >= snap.version {
		return false
	}
	if carry != nil {
		snap.ov = carry(cur.ov)
	}
	e.ready.Store(snap)
	return true
}

// load accepts a new version of the named dataset and builds its index,
// in the background unless wait is set. When maxPending > 0 the build
// backlog is capped: the reservation is a single atomic add, so
// concurrent loads cannot overshoot it — ok is false when the cap is
// hit and nothing was accepted. It returns the assigned version number
// (monotonically increasing per name, surviving drop).
func (c *catalog) load(name string, ds touch.Dataset, cfg touch.TOUCHConfig, wait bool, maxPending int) (version int64, ok bool) {
	if n := c.pending.Add(1); maxPending > 0 && n > int64(maxPending) {
		c.pending.Add(-1)
		return 0, false
	}
	e, v := c.acquireVersion(name)
	run := func() {
		c.buildVersion(e, v, func() *touch.Overlay {
			ov := c.build(ds, cfg)
			// A repeated ID leaves the index read-only: no update could
			// step it, so the dataset cannot be served.
			if dup := len(ds) - ov.Tiers()[0].Objects; dup > 0 {
				panic(fmt.Sprintf("server: dataset %q: %d duplicate object IDs", name, dup))
			}
			return ov
		}, nil)
	}
	if wait {
		run()
	} else {
		go run()
	}
	return v, true
}

// updStatus classifies the outcome of applyUpdate; Server.update maps
// the failures onto the error vocabulary.
type updStatus int

const (
	updOK       updStatus = iota
	updUnknown            // name not in the catalog
	updBuilding           // first version still building, nothing to update
	updOverflow           // insert would exhaust the object ID space
)

// updResult describes one applied update batch.
type updResult struct {
	version   int64 // base version the update was applied against
	firstID   int64 // first assigned insert ID, -1 when nothing inserted
	inserted  int
	deleted   int // live objects actually tombstoned (idempotent skip otherwise)
	deltaIns  int // unfolded inserts after this update
	deltaTomb int // unfolded tombstones after this update
}

// applyUpdate applies one batch of deletes and inserts to the named
// dataset's pending delta (Overlay.Apply: deletes first, unknown or
// already-deleted IDs skipped silently, fresh consecutive insert IDs
// never reused even across compactions) and publishes the merged serving
// state atomically — queries concurrent with the PATCH see all of it or
// none of it. Boxes must already be validated (DatasetFromBoxes rules).
func (c *catalog) applyUpdate(name string, inserts []touch.Box, deletes []touch.ID) (updResult, updStatus) {
	return c.updateEntry(c.entryFor(name), inserts, deletes)
}

// updateEntry is applyUpdate past the lookup, which may have missed (nil)
// or been overtaken by a DELETE.
func (c *catalog) updateEntry(e *entry, inserts []touch.Box, deletes []touch.ID) (updResult, updStatus) {
	if e == nil {
		return updResult{}, updUnknown
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	snap := e.ready.Load()
	switch {
	case e.dropped:
		return updResult{}, updUnknown
	case snap == nil:
		return updResult{}, updBuilding
	}
	ov, first, deleted, ok := snap.ov.Apply(inserts, deletes)
	if !ok {
		return updResult{}, updOverflow
	}
	res := updResult{version: snap.version, firstID: -1, inserted: len(inserts), deleted: deleted}
	res.deltaIns, res.deltaTomb = ov.Pending()
	if len(inserts) > 0 {
		res.firstID = int64(first)
	}
	next := *snap
	next.ov = ov
	e.ready.Store(&next)
	pending := res.deltaIns + res.deltaTomb
	e.pendingMax = max(e.pendingMax, pending)
	e.folds.Arm()
	return res, updOK
}

// fold is the one compaction: it folds e's unfolded tail into the tiers
// (Overlay.Fold — a new top tier, or one tree in place of the tiers the
// tail has outgrown) and publishes the result as the next version through
// buildVersion, unless a newer full version supersedes it. Reserving the
// version under e.mu while no newer one is accepted orders a racing
// re-POST: whichever reserves later has the higher version and wins the
// publish guard, and a version serving at the publish is either the
// fold's base or newer than the fold. Updates applied while the build ran
// carry over into the new snapshot's tail, which inherits the ID
// high-water mark: no ID reuse. It reports whether it published.
func (c *catalog) fold(e *entry) (published bool) {
	e.mu.Lock()
	from := e.ready.Load()
	if e.dropped || from.pending() == 0 {
		e.mu.Unlock()
		return false
	}
	if e.accepted != from.version {
		// A newer full version is building; it replaces the base
		// wholesale, so folding into the old base could never publish.
		e.mu.Unlock()
		c.compactionsSkipped.Add(1)
		return false
	}
	e.accepted++
	e.building++
	v := e.accepted
	e.mu.Unlock()
	c.pending.Add(1)
	start := time.Now()
	var f *touch.Fold
	published = c.buildVersion(e, v, func() *touch.Overlay {
		f = from.ov.Fold(false, c.build)
		return f.Next(from.ov)
	}, func(cur *touch.Overlay) *touch.Overlay {
		// Counted and observed before the publish, so a scrape never shows
		// a serving version whose fold is missing from the compaction
		// metrics.
		c.compactions.Add(1)
		c.compactionObjects.Add(int64(f.Objects))
		c.compactionTime.Observe(time.Since(start))
		return f.Next(cur)
	})
	if !published {
		// A newer full load was accepted or published while we built; its
		// dataset replaced ours wholesale and pending updates with it.
		c.compactionsSkipped.Add(1)
	}
	return published
}

// pending is the unfolded tail of e's serving snapshot, none before its
// first build; the caller holds e.mu.
func (e *entry) pending() int {
	if snap := e.ready.Load(); snap != nil {
		return snap.pending()
	}
	return 0
}

// snapshotOf returns the serving snapshot for a name. exists reports
// whether the name is known at all; a known name with a nil snapshot is
// still building its first version. The name may still be a byte slice
// off the wire: the map lookup's string conversion does not copy (the
// compiler recognizes the m[string(b)] form), keeping the binary
// protocol's per-request path allocation-free.
func snapshotOf[S name](c *catalog, n S) (snap *snapshot, exists bool) {
	c.mu.RLock()
	e := c.entries[string(n)]
	c.mu.RUnlock()
	if e == nil {
		return nil, false
	}
	return e.ready.Load(), true
}

// maxRetired caps the dropped-name version memory: beyond it, arbitrary
// entries are evicted (an evicted name re-POSTed later restarts at
// version 1 — the monotonicity loss is confined to names deleted beyond
// the cap, instead of letting a load/delete loop of random names grow
// memory without bound).
const maxRetired = 4096

// drop removes a name from the catalog, remembering its version counter
// so a later re-POST of the same name continues the sequence. In-flight
// requests holding the entry's snapshot finish unharmed — snapshots are
// immutable. The retired counter is returned so the caller can
// tombstone the on-disk snapshot with it — drop itself must not touch
// the persister (lock order is persister.mu → catalog.mu).
func (c *catalog) drop(name string) (retired int64, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, exists := c.entries[name]
	if !exists {
		return 0, false
	}
	for len(c.retired) >= maxRetired {
		for k := range c.retired {
			delete(c.retired, k)
			break
		}
	}
	e.mu.Lock()
	retired, e.dropped = e.accepted, true
	e.mu.Unlock()
	c.retired[name] = retired
	delete(c.entries, name)
	return retired, true
}

// counters returns every known per-name version counter: live entries'
// accepted versions plus the retired memory of dropped names — the map
// the persister writes next to the snapshots so version monotonicity
// survives restarts.
func (c *catalog) counters() map[string]int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	m := make(map[string]int64, len(c.entries)+len(c.retired))
	for name, v := range c.retired {
		m[name] = v
	}
	for name, e := range c.entries {
		e.mu.Lock()
		m[name] = e.accepted
		e.mu.Unlock()
	}
	return m
}

// restore installs a snapshot recovered from disk, merging with
// whatever the live catalog already holds: the accepted counter never
// regresses, and the file publishes through the guard every build passes,
// so a newer serving version is never replaced by an older file — a
// re-POST racing startup recovery converges to the newest version,
// whichever side wins the race.
func (c *catalog) restore(name string, version int64, ov *touch.Overlay, builtAt time.Time, size int64) {
	c.mu.Lock()
	e := c.entryLocked(name)
	c.mu.Unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	e.accepted = max(e.accepted, version)
	e.publish(&snapshot{version: version, ov: ov, builtAt: builtAt, persisted: true, snapBytes: size}, nil)
}

// restoreCounters folds the persisted version counters back in after a
// restart: a name with a live entry has its accepted counter raised to
// the persisted value; a name without one (deleted, or ephemeral and
// lost) goes to the retired memory, so its next POST continues the
// sequence instead of reissuing version 1.
func (c *catalog) restoreCounters(versions map[string]int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for name, v := range versions {
		if e := c.entries[name]; e != nil {
			e.mu.Lock()
			e.accepted = max(e.accepted, v)
			e.mu.Unlock()
			continue
		}
		if c.retired[name] < v && len(c.retired) < maxRetired {
			c.retired[name] = v
		}
	}
}

// datasetInfo is one row of the catalog listing (GET /v1/datasets).
type datasetInfo struct {
	Name    string `json:"name"`
	Version int64  `json:"version"`
	// Status is "building" (no version ready yet), "ready", or
	// "rebuilding" (serving one version while a newer one builds).
	Status      string `json:"status"`
	Objects     int    `json:"objects"`
	StaticBytes int64  `json:"static_bytes"`
	Nodes       int    `json:"nodes"`
	Height      int    `json:"height"`
	BuiltAt     string `json:"built_at,omitempty"`
	// Persisted reports whether the serving version's snapshot is
	// durably on disk; false on a server with a data dir means the
	// dataset is ephemeral and a restart loses it. SnapshotBytes is the
	// snapshot file size when persisted.
	Persisted     bool  `json:"persisted"`
	SnapshotBytes int64 `json:"snapshot_bytes,omitempty"`
	// DeltaInserts and DeltaTombstones count the incremental updates
	// (PATCH) no compaction has folded into the serving version yet —
	// Objects counts what the version's index tiers held live when it was
	// built. Omitted when no updates are pending.
	DeltaInserts    int `json:"delta_inserts,omitempty"`
	DeltaTombstones int `json:"delta_tombstones,omitempty"`
	// Metrics, not part of the listing: entry.pendingMax and the serving
	// version's tier count.
	deltaPendingMax int
	tiers           int
}

func (e *entry) info() datasetInfo {
	e.mu.Lock()
	accepted, building, pendingMax := e.accepted, e.building, e.pendingMax
	e.mu.Unlock()
	snap := e.ready.Load()
	if snap == nil {
		return datasetInfo{Name: e.name, Version: accepted, Status: "building"}
	}
	status := "ready"
	if building > 0 {
		status = "rebuilding"
	}
	ins, tombs := snap.ov.Pending()
	stats := snap.ov.Stats()
	return datasetInfo{
		Name:            e.name,
		Version:         snap.version,
		Status:          status,
		Objects:         stats.Objects,
		StaticBytes:     stats.StaticBytes,
		Nodes:           stats.Nodes,
		Height:          stats.Height,
		BuiltAt:         snap.builtAt.UTC().Format(time.RFC3339Nano),
		Persisted:       snap.persisted,
		SnapshotBytes:   snap.snapBytes,
		DeltaInserts:    ins,
		DeltaTombstones: tombs,
		deltaPendingMax: pendingMax,
		tiers:           len(snap.ov.Tiers()),
	}
}

// list returns the catalog rows sorted by name.
func (c *catalog) list() []datasetInfo {
	c.mu.RLock()
	entries := make([]*entry, 0, len(c.entries))
	for _, e := range c.entries {
		entries = append(entries, e)
	}
	c.mu.RUnlock()
	infos := make([]datasetInfo, 0, len(entries))
	for _, e := range entries {
		infos = append(infos, e.info())
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	return infos
}

// size returns the number of catalog entries.
func (c *catalog) size() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries)
}
