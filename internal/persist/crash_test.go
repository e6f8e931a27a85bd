package persist

// Crash-consistency harness: every test simulates a specific way a
// writer can die mid-commit — tmp file written but never renamed,
// rename reached but the file torn or truncated by the filesystem —
// and asserts the invariants recovery must uphold: bad state is
// skipped and cleaned, good entries keep loading, and Open never fails
// the boot.

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// entryFiles lists the committed entry files under the store.
func entryFiles(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	err := filepath.WalkDir(filepath.Join(dir, objectsDir), func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(d.Name(), entrySuffix) {
			out = append(out, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func tmpFiles(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.Contains(d.Name(), tmpInfix) {
			out = append(out, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// Kill-before-rename: a fully written tmp file is left behind (the
// rename — the commit point — was never reached). Recovery must remove
// the orphan and must NOT index its contents: an uncommitted entry is
// not an entry.
func TestKillBeforeRenameLeavesNoEntry(t *testing.T) {
	dir := t.TempDir()
	s1 := open(t, dir)
	d, sub := demand(0), subFor(demand(0))

	// Simulate the dead writer: valid bytes under a tmp name.
	data := EncodeEntry(&Entry{Key: cacheKey(d, "sig"), Sub: sub})
	shard := filepath.Join(dir, objectsDir, "ab")
	if err := os.MkdirAll(shard, 0o755); err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(shard, "deadbeef"+entrySuffix+tmpInfix+"123")
	if err := os.WriteFile(orphan, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_ = s1 // s1 predates the orphan; a fresh Open performs recovery

	s2 := open(t, dir)
	if got := tmpFiles(t, dir); len(got) != 0 {
		t.Fatalf("orphan tmp files survived recovery: %v", got)
	}
	if s2.Stats().Orphans == 0 {
		t.Fatal("orphan cleanup not counted")
	}
	if got := s2.Load(d, "sig"); got != nil {
		t.Fatalf("uncommitted entry was served: %+v", got)
	}
}

// Torn write: a committed entry file is truncated (as after a crash on
// a filesystem that committed the rename but not all data blocks).
// Recovery must drop exactly that entry, keep the good one, and boot.
func TestTruncatedEntrySkippedOnBoot(t *testing.T) {
	dir := t.TempDir()
	s1 := open(t, dir)
	dGood, dBad := demand(0), demand(1)
	if err := s1.Put(dGood, "sig", subFor(dGood)); err != nil {
		t.Fatal(err)
	}
	if err := s1.Put(dBad, "other-sig", subFor(dBad)); err != nil {
		t.Fatal(err)
	}
	// Truncate the second entry's file to half its size.
	badPath := s1.entryPath(cacheKey(dBad, "other-sig"))
	info, err := os.Stat(badPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(badPath, info.Size()/2); err != nil {
		t.Fatal(err)
	}

	s2 := open(t, dir)
	if got := s2.Load(dBad, "other-sig"); got != nil {
		t.Fatalf("truncated entry was served: %+v", got)
	}
	want := subFor(dGood)
	if got := s2.Load(dGood, "sig"); !reflect.DeepEqual(got, want) {
		t.Fatalf("good entry lost after recovery: %+v", got)
	}
	st := s2.Stats()
	if st.CorruptEntries != 1 {
		t.Fatalf("stats %+v, want 1 corrupt entry", st)
	}
	if s2.Len() != 1 {
		t.Fatalf("index has %d entries, want 1", s2.Len())
	}
	// The torn file must be gone from disk, not just unindexed.
	if _, err := os.Stat(badPath); !os.IsNotExist(err) {
		t.Fatalf("torn file still on disk: %v", err)
	}
}

// Zero-length entry file (created, never written, renamed by a buggy
// writer or crashed filesystem): skipped, cleaned, boot succeeds.
func TestEmptyEntryFileSkipped(t *testing.T) {
	dir := t.TempDir()
	s1 := open(t, dir)
	if err := s1.Put(demand(0), "sig", subFor(demand(0))); err != nil {
		t.Fatal(err)
	}
	empty := filepath.Join(dir, objectsDir, "00", strings.Repeat("0", 64)+entrySuffix)
	if err := os.MkdirAll(filepath.Dir(empty), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := open(t, dir)
	if s2.Len() != 1 {
		t.Fatalf("index has %d entries, want 1", s2.Len())
	}
	if _, err := os.Stat(empty); !os.IsNotExist(err) {
		t.Fatal("empty entry file not cleaned")
	}
}

// Orphaned tmp snapshot files are cleaned too, and a missing snapshot
// after the cleanup reads as a cold boot.
func TestOrphanSnapshotTmpCleaned(t *testing.T) {
	dir := t.TempDir()
	s1 := open(t, dir)
	if err := s1.SaveSnapshot("warm", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(dir, snapshotsDir, "warm"+snapSuffix+tmpInfix+"777")
	if err := os.WriteFile(orphan, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := open(t, dir)
	if got := tmpFiles(t, dir); len(got) != 0 {
		t.Fatalf("tmp files survived: %v", got)
	}
	// The committed snapshot is unaffected by the orphan's removal.
	if got, ok := s2.LoadSnapshot("warm"); !ok || string(got) != "payload" {
		t.Fatalf("snapshot lost after cleanup: %q, %t", got, ok)
	}
}

// A pile of simultaneous damage — orphan tmps, a truncated entry, a
// zero-byte entry, garbage files — must never fail the boot.
func TestRecoveryNeverFailsBoot(t *testing.T) {
	dir := t.TempDir()
	s1 := open(t, dir)
	for root := 0; root < 3; root++ {
		d := demand(root)
		if err := s1.Put(d, "sig", subFor(d)); err != nil {
			t.Fatal(err)
		}
	}
	files := entryFiles(t, dir)
	if len(files) != 3 {
		t.Fatalf("expected 3 entry files, got %d", len(files))
	}
	// Damage: truncate one, zero another, add garbage and orphans.
	if err := os.Truncate(files[0], 10); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(files[1], []byte("not a container at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, objectsDir, "zz.sub.tmp9"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("recovery failed the boot: %v", err)
	}
	if s2.Len() != 1 {
		t.Fatalf("index has %d entries, want the 1 undamaged one", s2.Len())
	}
	if st := s2.Stats(); st.CorruptEntries != 2 {
		t.Fatalf("stats %+v, want 2 corrupt entries", st)
	}
	// The store stays fully writable after heavy recovery.
	d := demand(3)
	if err := s2.Put(d, "sig", subFor(d)); err != nil {
		t.Fatal(err)
	}
	if got := s2.Load(d, "sig"); got == nil {
		t.Fatal("store unusable after recovery")
	}
}
