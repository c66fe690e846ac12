package snapshot

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"touch/internal/core"
	"touch/internal/datagen"
)

func testRecord(t *testing.T, name string, version int64, n int, seed int64) *Record {
	t.Helper()
	ds := datagen.UniformSet(n, seed)
	return &Record{
		Name:    name,
		Version: version,
		BuiltAt: time.Unix(1700000000, 0).UTC(),
		Tiers:   []Tier{{Tree: core.Build(ds, core.Config{Partitions: 16}).Freeze()}},
	}
}

func mustMarshal(t *testing.T, rec *Record) []byte {
	t.Helper()
	data, err := rec.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// scanAll decodes every snapshot in the store into a map keyed by
// dataset name, using the same full-validation path the server does.
func scanAll(t *testing.T, s *Store) (map[string]*Record, ScanResult) {
	t.Helper()
	recs := map[string]*Record{}
	res, err := s.Scan(func(name string, size int64, data []byte) error {
		rec, err := Unmarshal(data)
		if err != nil {
			return err
		}
		if rec.Name != name {
			return fmt.Errorf("file %s holds record for %q", name, rec.Name)
		}
		if _, err := rec.Thaw(); err != nil {
			return err
		}
		recs[name] = rec
		return nil
	}, t.Logf)
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	return recs, res
}

func TestPutScanRoundtrip(t *testing.T) {
	s, err := NewStore(t.TempDir(), OSFS{})
	if err != nil {
		t.Fatal(err)
	}
	a := testRecord(t, "alpha", 3, 400, 1)
	b := testRecord(t, "beta", 9, 150, 2)
	for _, rec := range []*Record{a, b} {
		if err := s.Put(rec.Name, mustMarshal(t, rec)); err != nil {
			t.Fatalf("Put %s: %v", rec.Name, err)
		}
	}
	if err := s.SaveVersions(map[string]int64{"alpha": 3, "beta": 9, "ghost": 12}); err != nil {
		t.Fatalf("SaveVersions: %v", err)
	}

	recs, res := scanAll(t, s)
	if res.Loaded != 2 || res.Quarantined != 0 {
		t.Fatalf("scan loaded %d quarantined %d", res.Loaded, res.Quarantined)
	}
	if recs["alpha"].Version != 3 || recs["beta"].Version != 9 {
		t.Fatalf("versions %d/%d", recs["alpha"].Version, recs["beta"].Version)
	}
	// The counters file survives independently of snapshots: ghost has
	// no file but its counter must come back.
	if res.Versions["ghost"] != 12 || res.Versions["alpha"] != 3 {
		t.Fatalf("versions map %v", res.Versions)
	}
}

func TestPutReplacesAndDeleteRemoves(t *testing.T) {
	s, err := NewStore(t.TempDir(), OSFS{})
	if err != nil {
		t.Fatal(err)
	}
	v1 := testRecord(t, "ds", 1, 100, 1)
	v2 := testRecord(t, "ds", 2, 200, 2)
	if err := s.Put("ds", mustMarshal(t, v1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("ds", mustMarshal(t, v2)); err != nil {
		t.Fatal(err)
	}
	recs, _ := scanAll(t, s)
	if got := recs["ds"]; got.Version != 2 || got.Tiers[0].IDs.Len() != 200 {
		t.Fatalf("after replace: v%d with %d objects", got.Version, got.Tiers[0].IDs.Len())
	}

	if err := s.Delete("ds"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if err := s.Delete("ds"); err != nil {
		t.Fatalf("Delete of missing file: %v", err)
	}
	recs, res := scanAll(t, s)
	if len(recs) != 0 || res.Loaded != 0 {
		t.Fatalf("deleted snapshot still loads: %v", recs)
	}
}

func TestStoreRejectsHostileNames(t *testing.T) {
	s, err := NewStore(t.TempDir(), OSFS{})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"", "a/b", `a\b`, "../escape"} {
		if err := s.Put(name, []byte("x")); err == nil {
			t.Fatalf("Put accepted name %q", name)
		}
		if err := s.Delete(name); err == nil {
			t.Fatalf("Delete accepted name %q", name)
		}
	}
}

// TestPutOpOrdering pins the durability protocol: the data must be
// written and fsynced before the rename makes it visible, and the
// directory fsynced after.
func TestPutOpOrdering(t *testing.T) {
	ffs := &FaultFS{Inner: OSFS{}}
	s, err := NewStore(t.TempDir(), ffs)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("ds", mustMarshal(t, testRecord(t, "ds", 1, 50, 1))); err != nil {
		t.Fatal(err)
	}
	var seq []Op
	for _, line := range ffs.Ops() {
		seq = append(seq, Op(strings.Fields(line)[0]))
	}
	want := []Op{OpMkdirAll, OpCreate, OpWrite, OpSync, OpClose, OpRename, OpSyncDir}
	if len(seq) != len(want) {
		t.Fatalf("ops %v, want %v", seq, want)
	}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("op %d = %s, want %s (full: %v)", i, seq[i], want[i], seq)
		}
	}
}

// TestFaultMatrix injects a failure at every write-path step and
// asserts the invariant the format promises: after the failure, a scan
// of the directory serves either the previous good version or nothing —
// never a torn hybrid — and the surviving snapshot passes full
// validation.
func TestFaultMatrix(t *testing.T) {
	boom := errors.New("injected fault")
	for _, tc := range []struct {
		name string
		op   Op
		torn int
		// crash simulates process death at the failure point: cleanup
		// operations (remove) are suppressed, leaving debris on disk.
		crash bool
		// syncDirSurvives: a failed directory fsync happens after the
		// rename, so the new version is visible despite the Put error.
		wantVersion int64
	}{
		{name: "short-write", op: OpWrite, wantVersion: 1},
		{name: "torn-write", op: OpWrite, torn: 100, wantVersion: 1},
		{name: "torn-write-crash", op: OpWrite, torn: 1000, crash: true, wantVersion: 1},
		{name: "failed-sync", op: OpSync, wantVersion: 1},
		{name: "failed-close", op: OpClose, wantVersion: 1},
		{name: "crash-before-rename", op: OpRename, crash: true, wantVersion: 1},
		{name: "failed-dir-sync", op: OpSyncDir, wantVersion: 2},
		{name: "failed-create", op: OpCreate, wantVersion: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ffs := &FaultFS{Inner: OSFS{}, TornBytes: tc.torn}
			s, err := NewStore(t.TempDir(), ffs)
			if err != nil {
				t.Fatal(err)
			}
			v1 := testRecord(t, "ds", 1, 120, 1)
			if err := s.Put("ds", mustMarshal(t, v1)); err != nil {
				t.Fatalf("baseline Put: %v", err)
			}

			armed := true
			ffs.Fail = func(op Op, path string) error {
				if armed && op == tc.op && !strings.Contains(path, CorruptDir) {
					return boom
				}
				if armed && tc.crash && op == OpRemove {
					return boom // process died; nothing runs after the fault
				}
				return nil
			}
			v2 := testRecord(t, "ds", 2, 240, 2)
			err = s.Put("ds", mustMarshal(t, v2))
			if !errors.Is(err, boom) {
				t.Fatalf("Put with injected %s fault: %v", tc.op, err)
			}
			armed = false

			recs, res := scanAll(t, s)
			if res.Quarantined != 0 {
				t.Fatalf("%d files quarantined — write fault must not corrupt the published file", res.Quarantined)
			}
			got, ok := recs["ds"]
			if !ok {
				t.Fatal("previous good snapshot lost")
			}
			if got.Version != tc.wantVersion {
				t.Fatalf("recovered version %d, want %d", got.Version, tc.wantVersion)
			}
			wantObjects := map[int64]int{1: 120, 2: 240}[tc.wantVersion]
			if got.Tiers[0].IDs.Len() != wantObjects {
				t.Fatalf("recovered %d objects, want %d", got.Tiers[0].IDs.Len(), wantObjects)
			}
			// A second scan after the crash must find no temp debris left.
			if _, res2 := scanAll(t, s); res2.Loaded != 1 {
				t.Fatalf("second scan loaded %d", res2.Loaded)
			}
		})
	}
}

func TestScanQuarantinesCorruptFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(dir, OSFS{})
	if err != nil {
		t.Fatal(err)
	}
	good := testRecord(t, "good", 1, 100, 1)
	if err := s.Put("good", mustMarshal(t, good)); err != nil {
		t.Fatal(err)
	}

	// Post-rename corruption: flip bytes in a published snapshot.
	evil := mustMarshal(t, testRecord(t, "evil", 1, 100, 2))
	evil[len(evil)/2] ^= 0xFF
	if err := os.WriteFile(filepath.Join(dir, "evil.snap"), evil, 0o644); err != nil {
		t.Fatal(err)
	}
	// Truncated snapshot (torn by a filesystem that ignored fsync).
	if err := os.WriteFile(filepath.Join(dir, "torn.snap"), evil[:37], 0o644); err != nil {
		t.Fatal(err)
	}
	// A snapshot whose embedded name disagrees with its file name.
	if err := s.Put("renamed", mustMarshal(t, testRecord(t, "other", 1, 50, 3))); err != nil {
		t.Fatal(err)
	}
	// Corrupt versions.json.
	if err := os.WriteFile(filepath.Join(dir, versionsFile), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}

	recs, res := scanAll(t, s)
	if len(recs) != 1 || recs["good"] == nil {
		t.Fatalf("loaded %v", recs)
	}
	if res.Loaded != 1 || res.Quarantined != 4 {
		t.Fatalf("loaded %d, quarantined %d; want 1/4", res.Loaded, res.Quarantined)
	}
	if len(res.Versions) != 0 {
		t.Fatalf("corrupt versions.json produced %v", res.Versions)
	}
	for _, name := range []string{"evil.snap", "torn.snap", "renamed.snap", versionsFile} {
		if _, err := os.Stat(filepath.Join(dir, CorruptDir, name)); err != nil {
			t.Fatalf("%s not quarantined: %v", name, err)
		}
	}
	// Quarantined files are out of the way: a rescan is clean.
	if _, res2 := scanAll(t, s); res2.Quarantined != 0 || res2.Loaded != 1 {
		t.Fatalf("rescan loaded %d quarantined %d", res2.Loaded, res2.Quarantined)
	}
}

func TestScanRemovesStaleTempFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(dir, OSFS{})
	if err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(dir, "ds.snap.123.tmp")
	if err := os.WriteFile(stale, []byte("half a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, res := scanAll(t, s); res.Loaded != 0 || res.Quarantined != 0 {
		t.Fatalf("scan of temp debris: %+v", res)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale temp file still present: %v", err)
	}
}
