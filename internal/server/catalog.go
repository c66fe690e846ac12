package server

import (
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
// decoded base objects, the index built over them, the index stats —
// and, since the incremental-update path, the pending delta of inserts
// and tombstones against that base together with the touch.Overlay
// over both. A request obtains a snapshot with a single atomic load and
// uses its fields together, so every query and join answers from one
// consistent (base, delta) pair even while a PATCH, a rebuild or a
// compaction swaps the entry underneath it — an update is entirely
// visible to a request or not at all, never half.
type snapshot struct {
	version int64
	ds      touch.Dataset
	idx     *touch.Index
	stats   touch.IndexStats
	builtAt time.Time
	// cfg is the build configuration of this version; compaction reuses
	// it so a folded index keeps the shape the POST asked for.
	cfg touch.TOUCHConfig
	// persisted marks a version whose snapshot file is durably on disk
	// (written before this snapshot became visible, or restored from
	// disk at startup); snapBytes is that file's size. A false persisted
	// on a server with a data dir means the dataset is ephemeral — a
	// restart loses it.
	persisted bool
	snapBytes int64

	// d holds the updates applied since this base version was built
	// (nil = none); ov is the reader over (idx, d) that every query and
	// join of this serving state runs on, always set. The delta is
	// in-memory only — its updates become durable when a compaction folds
	// them into the next persisted base version.
	d  *delta.Delta
	ov *touch.Overlay

	// merged lazily materializes d.Merged(ds) for probe-side use of an
	// updated dataset in joins; computed at most once per snapshot.
	mergedOnce sync.Once
	merged     touch.Dataset
}

// dataset returns the live objects of this serving state — the base
// dataset when no updates are pending, the merged materialization
// otherwise (computed once and cached on the snapshot).
func (s *snapshot) dataset() touch.Dataset {
	s.mergedOnce.Do(func() { s.merged = s.d.Merged(s.ds) })
	return s.merged
}

// withDelta derives the serving state that publishes nd over the same
// base as s.
func (s *snapshot) withDelta(nd *delta.Delta) *snapshot {
	return &snapshot{
		version: s.version, ds: s.ds, idx: s.idx, stats: s.stats,
		builtAt: s.builtAt, cfg: s.cfg, persisted: s.persisted, snapBytes: s.snapBytes,
		d: nd, ov: touch.OverlayOf(s.idx, nd),
	}
}

// entry is one named dataset of the catalog.
type entry struct {
	name string

	// ready holds the newest fully built snapshot; nil until the first
	// build completes. This pointer is the hot swap: builders store,
	// readers load, and the read path takes no locks.
	ready atomic.Pointer[snapshot]

	mu       sync.Mutex // guards the version counters and compacting below
	accepted int64      // newest version accepted for building
	building int        // builds in flight or queued
	// compacting marks a background compaction in flight for this entry;
	// at most one ever runs, and a new one is not scheduled while set.
	compacting bool

	buildMu sync.Mutex // serializes builds of this entry
}

// catalog is the named, versioned index store behind /v1/datasets.
// Loading a name that already exists starts a background rebuild; the
// old index keeps serving until the new one atomically replaces it, and
// a version that finishes building after a newer one never regresses
// the entry (the swap is guarded by a version comparison).
type catalog struct {
	build buildFunc
	// persist, when non-nil, mirrors builds and drops to disk. Set once
	// at construction, before any load can run.
	persist *persister

	// pending counts builds accepted but not yet finished (or skipped),
	// catalog-wide; the server's load path uses it to bound the build
	// backlog, which lives outside the request-slot admission layer.
	pending atomic.Int64

	// compactAt is the per-dataset delta size (inserts + tombstones) at
	// which an update schedules a background compaction; <= 0 disables
	// automatic compaction. Set once at construction.
	compactAt int
	// compactions counts published delta folds; compactionsSkipped counts
	// compactions abandoned because a newer full version superseded them.
	compactions        atomic.Int64
	compactionsSkipped atomic.Int64
	// compactionTime histograms the published folds end to end: merge,
	// build and persist.
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

// acquireVersion creates the entry if needed and assigns the next
// version under the catalog lock — the same lock drop takes — so a
// DELETE racing a load can never record a stale counter into retired
// and let a re-created entry reissue an already-used version number.
func (c *catalog) acquireVersion(name string) (*entry, int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[name]
	if e == nil {
		e = &entry{name: name, accepted: c.retired[name]}
		delete(c.retired, name)
		c.entries[name] = e
	}
	e.mu.Lock()
	e.accepted++
	v := e.accepted
	e.building++
	e.mu.Unlock()
	return e, v
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
		e.buildMu.Lock()
		defer e.buildMu.Unlock()
		defer func() {
			e.mu.Lock()
			e.building--
			e.mu.Unlock()
			c.pending.Add(-1)
		}()
		// Skip superseded builds: once a newer version has been accepted
		// (it will build after us, or already has), our result could
		// never serve — don't waste the work and release the pinned
		// dataset immediately. The version-guarded store below still
		// protects against any swap backwards.
		e.mu.Lock()
		superseded := e.accepted > v
		e.mu.Unlock()
		if superseded {
			return
		}
		idx := c.build(ds, cfg)
		snap := &snapshot{version: v, ds: ds, idx: idx, stats: idx.Stats(), builtAt: time.Now(), cfg: cfg, ov: touch.OverlayOf(idx, nil)}
		if p := c.persist; p != nil {
			// Write-ahead of visibility: the snapshot must be durably on
			// disk before the hot swap can publish it, so a crash right
			// after a 200-visible version still restarts with that
			// version. A persistence failure degrades gracefully — the
			// swap below still happens, the version just serves as
			// ephemeral (flagged in the listing, counted in metrics).
			size, wrote, err := p.save(e.name, v, ds, idx, snap.builtAt)
			switch {
			case err != nil:
				p.log.Error("snapshot: persist failed, dataset is ephemeral",
					"dataset", e.name, "version", v, "err", err)
			case wrote:
				snap.persisted, snap.snapBytes = true, size
			}
		}
		e.mu.Lock()
		if cur := e.ready.Load(); cur == nil || cur.version < v {
			e.ready.Store(snap)
		}
		e.mu.Unlock()
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
	deltaIns  int // pending delta inserts after this update
	deltaTomb int // pending delta tombstones after this update
}

// applyUpdate applies one batch of deletes and inserts to the named
// dataset's pending delta and publishes the merged serving state
// atomically — queries concurrent with the PATCH see either all of it or
// none of it. Deletes apply first, so a batch can delete existing IDs
// and insert replacements without tombstoning its own inserts; unknown
// or already-deleted IDs are skipped silently. Inserted objects get
// fresh consecutive IDs, never reused even across compactions. Boxes
// must already be validated (DatasetFromBoxes rules).
func (c *catalog) applyUpdate(name string, inserts []touch.Box, deletes []touch.ID) (updResult, updStatus) {
	e := c.entryFor(name)
	if e == nil {
		return updResult{}, updUnknown
	}
	e.mu.Lock()
	snap := e.ready.Load()
	if snap == nil {
		e.mu.Unlock()
		return updResult{}, updBuilding
	}
	d := snap.d
	if d == nil {
		d = delta.NewForBase(snap.ds)
	}
	res := updResult{version: snap.version, firstID: -1}
	if len(deletes) > 0 {
		d, res.deleted = d.Delete(deletes, func(id touch.ID) bool {
			_, ok := sort.Find(len(snap.ds), func(i int) int { return int(id) - int(snap.ds[i].ID) })
			return ok
		})
	}
	if len(inserts) > 0 {
		if !d.CanInsert(len(inserts)) {
			e.mu.Unlock()
			return updResult{}, updOverflow
		}
		var first touch.ID
		d, first = d.Insert(inserts)
		res.firstID = int64(first)
		res.inserted = len(inserts)
	}
	res.deltaIns, res.deltaTomb = d.Inserts(), d.Tombstones()
	e.ready.Store(snap.withDelta(d))
	size := d.Size()
	e.mu.Unlock()
	c.maybeCompact(e, size)
	return res, updOK
}

// maybeCompact schedules a background compaction of e when its pending
// delta has reached the configured threshold and no compaction or newer
// full build is already in flight. Reserving the next version number
// under e.mu means a re-POST racing the compaction is ordered: whichever
// reserves later has the higher version and wins the publish guard.
func (c *catalog) maybeCompact(e *entry, size int) {
	if c.compactAt <= 0 || size < c.compactAt {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	snap := e.ready.Load()
	if snap == nil || snap.d.Empty() || e.compacting {
		return
	}
	if e.accepted != snap.version {
		// A newer full version is building; it replaces the base
		// wholesale, so folding into the old base could never publish.
		c.compactionsSkipped.Add(1)
		return
	}
	e.accepted++
	v := e.accepted
	e.building++
	e.compacting = true
	c.pending.Add(1)
	go c.runCompaction(e, snap, v)
}

// runCompaction folds from's delta into a fresh base index and publishes
// it as version v with load's write-ahead persistence, unless a newer
// full version superseded it meanwhile. Updates applied while the build
// ran carry over into the new snapshot's delta, and the new delta always
// inherits the ID high-water mark so compaction never causes ID reuse.
func (c *catalog) runCompaction(e *entry, from *snapshot, v int64) {
	e.buildMu.Lock()
	defer e.buildMu.Unlock()
	carried := 0 // size of the delta the publish left pending
	defer func() {
		e.mu.Lock()
		e.building--
		e.compacting = false
		e.mu.Unlock()
		c.pending.Add(-1)
		// Updates that outran this build may already be over the
		// threshold again; no later update need arrive to fold them.
		c.maybeCompact(e, carried)
	}()
	e.mu.Lock()
	superseded := e.accepted > v
	e.mu.Unlock()
	if superseded {
		c.compactionsSkipped.Add(1)
		return
	}
	start := time.Now()
	merged := from.d.Merged(from.ds)
	idx := c.build(merged, from.cfg)
	snap := &snapshot{version: v, ds: merged, idx: idx, stats: idx.Stats(), builtAt: time.Now(), cfg: from.cfg}
	if p := c.persist; p != nil {
		// Same write-ahead-of-visibility contract as load: the folded
		// delta becomes durable here, before it can serve.
		size, wrote, err := p.save(e.name, v, merged, idx, snap.builtAt)
		switch {
		case err != nil:
			p.log.Error("snapshot: persist failed, dataset is ephemeral",
				"dataset", e.name, "version", v, "err", err)
		case wrote:
			snap.persisted, snap.snapBytes = true, size
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	cur := e.ready.Load()
	if cur == nil || cur.version != from.version {
		// A newer full load published while we built; its dataset
		// replaced ours wholesale and pending updates with it.
		c.compactionsSkipped.Add(1)
		return
	}
	nd := cur.d.Since(from.d)
	// Counted and observed before the publish, so a scrape never shows a
	// serving version whose fold is missing from the compaction metrics.
	c.compactions.Add(1)
	c.compactionTime.Observe(time.Since(start))
	e.ready.Store(snap.withDelta(nd))
	carried = nd.Size()
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
	retired = e.accepted
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
// whatever the live catalog already holds under the same version guards
// as builds: the accepted counter never regresses and a newer serving
// version is never replaced by an older file — so a re-POST racing
// startup recovery converges to the newest version, whichever side wins
// the race.
func (c *catalog) restore(name string, version int64, ds touch.Dataset, idx *touch.Index, builtAt time.Time, size int64) {
	snap := &snapshot{
		version: version, ds: ds, idx: idx, stats: idx.Stats(),
		builtAt: builtAt, persisted: true, snapBytes: size, ov: touch.OverlayOf(idx, nil),
	}
	c.mu.Lock()
	e := c.entries[name]
	if e == nil {
		e = &entry{name: name, accepted: c.retired[name]}
		delete(c.retired, name)
		c.entries[name] = e
	}
	c.mu.Unlock()
	e.mu.Lock()
	if e.accepted < version {
		e.accepted = version
	}
	if cur := e.ready.Load(); cur == nil || cur.version < version {
		e.ready.Store(snap)
	}
	e.mu.Unlock()
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
			if e.accepted < v {
				e.accepted = v
			}
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
	// DeltaInserts and DeltaTombstones count the pending incremental
	// updates (PATCH) not yet folded into the base version — Objects
	// still counts the base index. Omitted when no updates are pending.
	DeltaInserts    int `json:"delta_inserts,omitempty"`
	DeltaTombstones int `json:"delta_tombstones,omitempty"`
}

func (e *entry) info() datasetInfo {
	e.mu.Lock()
	accepted, building := e.accepted, e.building
	e.mu.Unlock()
	snap := e.ready.Load()
	if snap == nil {
		return datasetInfo{Name: e.name, Version: accepted, Status: "building"}
	}
	status := "ready"
	if building > 0 {
		status = "rebuilding"
	}
	return datasetInfo{
		Name:            e.name,
		Version:         snap.version,
		Status:          status,
		Objects:         snap.stats.Objects,
		StaticBytes:     snap.stats.StaticBytes,
		Nodes:           snap.stats.Nodes,
		Height:          snap.stats.Height,
		BuiltAt:         snap.builtAt.UTC().Format(time.RFC3339Nano),
		Persisted:       snap.persisted,
		SnapshotBytes:   snap.snapBytes,
		DeltaInserts:    snap.d.Inserts(),
		DeltaTombstones: snap.d.Tombstones(),
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
