package persist

// Crash-consistency harness: every test simulates a specific way a
// writer can die mid-commit — tmp file written but never renamed,
// rename reached but the file torn or truncated by the filesystem —
// and asserts the invariants recovery must uphold: bad state is
// skipped and cleaned, good entries keep loading, and Open never fails
// the boot.

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// packFiles lists the committed pack files under the store.
func packFiles(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	err := filepath.WalkDir(filepath.Join(dir, objectsDir), func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(d.Name(), packSuffix) {
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

// Kill-before-rename: a fully written tmp pack is left behind (the
// rename — the commit point — was never reached). Recovery must remove
// the orphan and must NOT index its contents: an uncommitted entry is
// not an entry.
func TestKillBeforeRenameLeavesNoEntry(t *testing.T) {
	dir := t.TempDir()
	s1 := open(t, dir)
	d, sub := demand(0), subFor(demand(0))

	// Simulate the dead writer: a valid two-entry pack under a tmp name.
	data := EncodeEntry(&Entry{Key: cacheKey(d, "sig"), Sub: sub})
	data = append(data, EncodeEntry(&Entry{Key: cacheKey(demand(1), "sig"), Sub: subFor(demand(1))})...)
	orphan := filepath.Join(dir, objectsDir, "deadbeef"+packSuffix+tmpInfix+"123")
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

// Torn write: a committed pack is truncated inside one entry's span (as
// after a crash on a filesystem that committed the rename but not all
// data blocks). Recovery must drop exactly that pack — every key in it —
// keep the other pack, and boot.
func TestTruncatedEntrySkippedOnBoot(t *testing.T) {
	dir := t.TempDir()
	s1 := open(t, dir)
	dGood, dBad := demand(0), demand(1)
	if err := s1.Put(dGood, "sig", subFor(dGood)); err != nil {
		t.Fatal(err)
	}
	putBatch(t, s1, "other-sig", 2, 1, 3)
	// Truncate the pack halfway through dBad's span, the middle one.
	sp := spanOf(t, s1, dBad, "other-sig")
	badPath := sp.p.path
	if err := os.Truncate(badPath, sp.off+sp.n/2); err != nil {
		t.Fatal(err)
	}

	s2 := open(t, dir)
	for _, root := range []int{2, 1, 3} {
		if got := s2.Load(demand(root), "other-sig"); got != nil {
			t.Fatalf("entry %d of the truncated pack was served: %+v", root, got)
		}
	}
	want := subFor(dGood)
	if got := s2.Load(dGood, "sig"); !reflect.DeepEqual(got, want) {
		t.Fatalf("good entry lost after recovery: %+v", got)
	}
	st := s2.Stats()
	if st.CorruptEntries != 1 {
		t.Fatalf("stats %+v, want 1 corrupt pack", st)
	}
	if s2.Len() != 1 {
		t.Fatalf("index has %d entries, want 1", s2.Len())
	}
	// The torn file must be gone from disk, not just unindexed.
	if _, err := os.Stat(badPath); !os.IsNotExist(err) {
		t.Fatalf("torn file still on disk: %v", err)
	}
}

// Every truncation of a multi-entry pack: a cut inside a span drops the
// whole pack, a cut on a span boundary keeps exactly the entries before
// it (each still a whole, checksummed container), and nothing panics.
func TestPackTruncationSweep(t *testing.T) {
	s := open(t, t.TempDir())
	putBatch(t, s, "sig", 0, 1, 2)
	var ends []int64
	for _, root := range []int{0, 1, 2} {
		sp := spanOf(t, s, demand(root), "sig")
		ends = append(ends, sp.off+sp.n)
	}
	pristine, err := os.ReadFile(spanOf(t, s, demand(0), "sig").p.path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(pristine); cut++ {
		got, err := walkPack(pristine[:cut])
		whole := -1 // how many entries end exactly at the cut
		for i, end := range ends {
			if int64(cut) == end {
				whole = i + 1
			}
		}
		switch {
		case whole < 0 && err == nil:
			t.Fatalf("cut at %d inside a span: walkPack indexed %d entries", cut, len(got))
		case whole > 0 && (err != nil || len(got) != whole):
			t.Fatalf("cut at %d after %d entries: %d entries, err %v", cut, whole, len(got), err)
		}
		for i, e := range got {
			if want := cacheKey(demand(i), "sig"); e.key != want {
				t.Fatalf("cut at %d: entry %d has key %q, want %q", cut, i, e.key, want)
			}
		}
	}
}

// A key in two packs (a crash between a repack's rename and the old
// pack's removal leaves that) is served from the first pack in name
// order; a pack left with no key of its own is deleted at boot.
func TestScanKeepsFirstOfDuplicateKeys(t *testing.T) {
	dir := t.TempDir()
	open(t, dir)
	entry := func(root, epochs int) []byte {
		sub := subFor(demand(root))
		sub.Epochs = epochs
		return EncodeEntry(&Entry{Key: cacheKey(demand(root), "sig"), Sub: sub})
	}
	write := func(name string, entries ...[]byte) string {
		path := filepath.Join(dir, objectsDir, strings.Repeat(name, 32)+packSuffix)
		if err := os.WriteFile(path, bytes.Join(entries, nil), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	write("a", entry(0, 1))
	write("b", entry(0, 2), entry(1, 2))
	shadowed := write("c", entry(1, 3), entry(0, 3))

	s := open(t, dir)
	if got := s.Load(demand(0), "sig"); got == nil || got.Epochs != 1 {
		t.Fatalf("duplicate key served %+v, want the first pack's", got)
	}
	if got := s.Load(demand(1), "sig"); got == nil || got.Epochs != 2 {
		t.Fatalf("duplicate key served %+v, want the first pack's", got)
	}
	if st := s.Stats(); st.Entries != 2 || st.CorruptEntries != 0 {
		t.Fatalf("stats %+v", st)
	}
	if _, err := os.Stat(shadowed); !os.IsNotExist(err) {
		t.Fatal("a pack with no key of its own survived the boot")
	}
}

// Zero-length pack file (created, never written, renamed by a buggy
// writer or crashed filesystem): skipped, cleaned, boot succeeds.
func TestEmptyEntryFileSkipped(t *testing.T) {
	dir := t.TempDir()
	s1 := open(t, dir)
	putBatch(t, s1, "sig", 0, 1)
	empty := filepath.Join(dir, objectsDir, strings.Repeat("0", 32)+packSuffix)
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := open(t, dir)
	if s2.Len() != 2 {
		t.Fatalf("index has %d entries, want 2", s2.Len())
	}
	if _, err := os.Stat(empty); !os.IsNotExist(err) {
		t.Fatal("empty pack file not cleaned")
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

// A pile of simultaneous damage — orphan tmps, a pack truncated inside
// its second span, a pack overwritten with garbage, a zero-byte pack —
// must never fail the boot, and must cost only the damaged packs.
func TestRecoveryNeverFailsBoot(t *testing.T) {
	dir := t.TempDir()
	s1 := open(t, dir)
	putBatch(t, s1, "a", 0, 1)
	putBatch(t, s1, "b", 0, 1)
	putBatch(t, s1, "c", 0, 1)
	if files := packFiles(t, dir); len(files) != 3 {
		t.Fatalf("expected 3 pack files, got %d", len(files))
	}
	// Damage: truncate pack a 10 bytes into its second span, overwrite
	// pack b, add an empty pack, garbage and orphans.
	sp := spanOf(t, s1, demand(1), "a")
	if err := os.Truncate(sp.p.path, sp.off+10); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(spanOf(t, s1, demand(0), "b").p.path, []byte("not a container at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, objectsDir, strings.Repeat("e", 32)+packSuffix), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, objectsDir, "zz.pack.tmp9"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("recovery failed the boot: %v", err)
	}
	if s2.Len() != 2 {
		t.Fatalf("index has %d entries, want the 2 of the undamaged pack", s2.Len())
	}
	if st := s2.Stats(); st.CorruptEntries != 3 {
		t.Fatalf("stats %+v, want 3 corrupt packs", st)
	}
	if files := packFiles(t, dir); len(files) != 1 {
		t.Fatalf("%d pack files left, want the undamaged one", len(files))
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
