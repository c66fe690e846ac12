package server

import (
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"touch"
	"touch/internal/api"
	snapstore "touch/internal/snapshot"
)

// persister mirrors the catalog onto a snapshot.Store: every successful
// build writes its snapshot before the hot swap publishes it
// (write-ahead of visibility), DELETE tombstones the file, and the
// per-name version counters are persisted alongside so monotonicity
// survives restarts even for names whose snapshots are gone.
//
// All disk mutations run under one mutex, and the lock order is
// persister.mu → catalog.mu (counters collection) — never call into the
// persister while holding a catalog lock.
type persister struct {
	store *snapstore.Store
	cat   *catalog
	log   *slog.Logger

	// errors backs snapshot_errors_total: every failed persistence
	// operation increments it, whether or not the failure left the
	// dataset ephemeral.
	errors atomic.Int64

	mu sync.Mutex
	// written tracks the newest version on disk per name — or, after a
	// DELETE, the retired counter as a tombstone — so a stale in-flight
	// build can neither overwrite a newer snapshot nor resurrect a
	// dropped dataset's file. The disk-side twin of the catalog's
	// version-guarded pointer swap.
	written map[string]int64
}

// save persists one built version. wrote is false with a nil error when
// the version is stale (a newer one — or a tombstone — already owns the
// file); size is the snapshot's byte count when wrote.
func (p *persister) save(name string, version int64, ov *touch.Overlay, builtAt time.Time) (size int64, wrote bool, err error) {
	data, err := ov.EncodeSnapshot(touch.SnapshotInfo{Name: name, Version: version, BuiltAt: builtAt})
	if err != nil {
		p.errors.Add(1)
		return 0, false, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.written[name] >= version {
		return 0, false, nil
	}
	if err := p.store.Put(name, data); err != nil {
		p.errors.Add(1)
		return 0, false, err
	}
	p.written[name] = version
	p.saveCounters()
	return int64(len(data)), true, nil
}

// delete removes the snapshot of a dropped name. retired is the version
// counter the catalog retired at drop time: it becomes the tombstone
// blocking that generation's in-flight builds from writing, and if a
// newer version already owns the file (a re-POST raced the DELETE), the
// file rightly survives.
func (p *persister) delete(name string, retired int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.written[name] > retired {
		return
	}
	p.written[name] = retired
	if err := p.store.Delete(name); err != nil {
		p.errors.Add(1)
		p.log.Error("snapshot: delete failed", "dataset", name, "err", err)
	}
	p.saveCounters()
}

// saveCounters persists the catalog's per-name version counters; must
// run under p.mu. A failure risks only version reuse after the next
// crash, so it is logged and counted but never fails the caller.
func (p *persister) saveCounters() {
	if err := p.store.SaveVersions(p.cat.counters()); err != nil {
		p.errors.Add(1)
		p.log.Error("snapshot: persisting version counters failed", "err", err)
	}
}

// restored records a version recovered from disk, so post-restart
// writes obey the same staleness guard.
func (p *persister) restored(name string, version int64) {
	p.mu.Lock()
	if p.written[name] < version {
		p.written[name] = version
	}
	p.mu.Unlock()
}

// RecoveryStats summarizes a startup recovery scan.
type RecoveryStats struct {
	// Loaded is the number of datasets restored into the catalog;
	// Quarantined the number of corrupt/partial files moved to the
	// store's corrupt/ subdirectory.
	Loaded      int
	Quarantined int
}

// Recover scans the configured data directory and restores every valid
// snapshot into the catalog — checksums verified, tree invariants
// re-validated, every tier, the tombstones and the next insert ID
// restored, no rebuilds — quarantining undecodable files instead of
// refusing to start. Version counters are restored from the store's
// counter file, so names whose snapshots were deleted (or never
// persisted) continue their version sequence. Safe to call while
// serving: restores merge under the same version guards as builds, so a
// re-POST racing recovery converges to the newest version. A server
// without DataDir recovers nothing and returns zero stats; a DataDir
// that could not be opened returns that error.
func (s *Server) Recover() (RecoveryStats, error) {
	if s.persist == nil {
		return RecoveryStats{}, s.persistErr
	}
	p := s.persist
	res, err := p.store.Scan(func(name string, size int64, data []byte) error {
		if !api.ValidDatasetName(name) {
			return fmt.Errorf("file name %q is not a servable dataset name", name)
		}
		info, ov, err := touch.DecodeOverlay(data)
		if err != nil {
			return err
		}
		if info.Name != name {
			return fmt.Errorf("file for %q holds a snapshot of %q", name, info.Name)
		}
		if info.Version < 1 {
			return fmt.Errorf("snapshot version %d is not a servable version", info.Version)
		}
		p.restored(name, info.Version)
		s.cat.restore(name, info.Version, ov, info.BuiltAt, size)
		p.log.Info("snapshot: restored dataset",
			"dataset", name, "version", info.Version, "objects", ov.Stats().Objects, "tiers", len(ov.Tiers()), "bytes", size)
		return nil
	}, func(format string, args ...any) { p.log.Warn(fmt.Sprintf(format, args...)) })
	if err != nil {
		return RecoveryStats{}, err
	}
	s.cat.restoreCounters(res.Versions)
	return RecoveryStats{Loaded: res.Loaded, Quarantined: res.Quarantined}, nil
}

// SnapshotErrors returns the cumulative persistence failure count (the
// snapshot_errors_total metric).
func (s *Server) SnapshotErrors() int64 {
	if s.persist == nil {
		return 0
	}
	return s.persist.errors.Load()
}
