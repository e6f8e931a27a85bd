package persist

// Corruption-injection harness: flip bytes in committed entries, the
// manifest, and snapshots, then assert the store's contract — checksum
// mismatch drops the damaged file (counted), lookups degrade to misses
// (cold synthesis upstream), and nothing panics or serves bad data.

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"syccl/internal/solve"
)

// flipByte corrupts one byte of a file in place.
func flipByte(t *testing.T, path string, off int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if off < 0 {
		off += len(data)
	}
	data[off] ^= 0x5a
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// A bit flip anywhere in one entry's span of a multi-entry pack —
// header, payload, or checksum — must make Load drop the whole pack and
// report a miss: the file must be deleted and every key in it forgotten.
func TestEntryBitFlipDroppedAtLoad(t *testing.T) {
	// One representative offset per container region, relative to the
	// middle entry's span.
	offsets := map[string]int64{"header": 5, "payload": headerSize + 3, "checksum": -4}
	for name, off := range offsets {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s := open(t, dir)
			putBatch(t, s, "sig", 0, 1, 2)
			d := demand(1)
			sp := spanOf(t, s, d, "sig")
			if off < 0 {
				off += sp.n
			}
			flipByte(t, sp.p.path, int(sp.off+off))

			if got := s.Load(d, "sig"); got != nil {
				t.Fatalf("corrupted entry served: %+v", got)
			}
			if st := s.Stats(); st.CorruptEntries != 1 || st.Entries != 0 || st.Bytes != 0 {
				t.Fatalf("stats %+v, want 1 corrupt pack and nothing left", st)
			}
			if _, err := os.Stat(sp.p.path); !os.IsNotExist(err) {
				t.Fatal("corrupted pack left on disk")
			}
			if got := s.Load(demand(0), "sig"); got != nil {
				t.Fatalf("a sibling in the dropped pack was served: %+v", got)
			}
			// The slots are reusable: a fresh batch round-trips.
			putBatch(t, s, "sig", 0, 1, 2)
			if got := s.Load(d, "sig"); got == nil {
				t.Fatal("store unusable after corruption drop")
			}
		})
	}
}

// An entry with a valid checksum whose transfers address a GPU or piece
// the demand being looked up does not have — written by a buggy or
// foreign writer — must drop its pack, counted and deleted at Load, and
// never be served: the assembly that consumes it would index out of
// range.
func TestEntryOutOfRangeDroppedAtLoad(t *testing.T) {
	for name, forge := range map[string]func(*solve.Transfer){
		"piece":        func(tr *solve.Transfer) { tr.Piece = 1 },
		"src":          func(tr *solve.Transfer) { tr.Src = 4 },
		"dst":          func(tr *solve.Transfer) { tr.Dst = 77 },
		"negative src": func(tr *solve.Transfer) { tr.Src = -1 },
	} {
		t.Run(name, func(t *testing.T) {
			s := open(t, t.TempDir())
			ds, subs := batch(0, 1, 2)
			forge(&subs[1].Transfers[len(subs[1].Transfers)-1])
			if err := s.PutAll(ds, "sig", subs); err != nil {
				t.Fatal(err)
			}
			path := spanOf(t, s, ds[1], "sig").p.path
			if got := s.Load(ds[1], "sig"); got != nil {
				t.Fatalf("out-of-range entry served: %+v", got)
			}
			if st := s.Stats(); st.CorruptEntries != 1 || st.Entries != 0 {
				t.Fatalf("stats %+v, want 1 corrupt pack and none left", st)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatal("out-of-range entry left on disk")
			}
		})
	}
}

// Corruption discovered at boot (scan) is dropped the same way.
func TestEntryBitFlipDroppedAtBoot(t *testing.T) {
	dir := t.TempDir()
	s1 := open(t, dir)
	putBatch(t, s1, "sig", 0, 1, 2)
	sp := spanOf(t, s1, demand(2), "sig")
	flipByte(t, sp.p.path, int(sp.off)+headerSize+8)

	s2 := open(t, dir)
	if s2.Len() != 0 {
		t.Fatalf("corrupt pack indexed at boot (%d entries)", s2.Len())
	}
	if st := s2.Stats(); st.CorruptEntries != 1 {
		t.Fatalf("stats %+v", st)
	}
	if got := s2.Load(demand(0), "sig"); got != nil {
		t.Fatalf("entry of a corrupt pack served after reboot: %+v", got)
	}
}

// A corrupt span costs only its own pack: the other packs keep serving,
// at Load and after a reboot.
func TestCorruptSpanDropsOnlyItsPack(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	putBatch(t, s, "a", 0, 1)
	putBatch(t, s, "b", 2, 3)
	putBatch(t, s, "c", 0, 3)
	sp := spanOf(t, s, demand(3), "b")
	flipByte(t, sp.p.path, int(sp.off)+headerSize+1)
	if got := s.Load(demand(3), "b"); got != nil {
		t.Fatalf("corrupt entry served: %+v", got)
	}
	check := func(s *Store) {
		t.Helper()
		for _, k := range []struct {
			root int
			sig  string
		}{{0, "a"}, {1, "a"}, {0, "c"}, {3, "c"}} {
			if got := s.Load(demand(k.root), k.sig); !reflect.DeepEqual(got, subFor(demand(k.root))) {
				t.Fatalf("entry %d/%s of a healthy pack lost: %+v", k.root, k.sig, got)
			}
		}
		if got := s.Load(demand(2), "b"); got != nil {
			t.Fatalf("entry of the dropped pack served: %+v", got)
		}
		if s.Len() != 4 {
			t.Fatalf("index has %d entries, want 4", s.Len())
		}
	}
	check(s)
	if st := s.Stats(); st.CorruptEntries != 1 {
		t.Fatalf("stats %+v", st)
	}
	if files := packFiles(t, dir); len(files) != 2 {
		t.Fatalf("%d pack files, want 2", len(files))
	}
	check(open(t, dir))
}

// A corrupted entry costs only its pack: its lookup misses and drops the
// file, its healthy iso-class sibling in another pack keeps serving its
// own exact lookup, a third relabeling that was never stored misses (the
// store serves no class fallback), and a re-Put of the damaged demand
// serves again.
func TestIsoLookupSurvivesCorruptSibling(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	d0, d1 := demand(0), demand(1)
	if err := s.Put(d0, "sig", subFor(d0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(d1, "sig", subFor(d1)); err != nil {
		t.Fatal(err)
	}
	flipByte(t, spanOf(t, s, d0, "sig").p.path, headerSize+1)
	if got := s.Load(d0, "sig"); got != nil {
		t.Fatalf("corrupt entry served: %+v", got)
	}
	if got := s.Load(d1, "sig"); !reflect.DeepEqual(got, subFor(d1)) {
		t.Fatalf("healthy sibling lost after the corrupt drop: %+v", got)
	}
	if got := s.Load(demand(2), "sig"); got != nil {
		t.Fatalf("relabeled demand served from another demand's entry: %+v", got)
	}
	if err := s.Put(d0, "sig", subFor(d0)); err != nil {
		t.Fatal(err)
	}
	if got := s.Load(d0, "sig"); !reflect.DeepEqual(got, subFor(d0)) {
		t.Fatalf("re-Put entry did not serve: %+v", got)
	}
	if st := s.Stats(); st.CorruptEntries != 1 || st.HitExact != 2 || st.Misses != 2 || st.Entries != 2 {
		t.Fatalf("stats %+v", st)
	}
}

// A flipped manifest is a corpus-trust failure: the next Open discards
// everything and starts fresh (counted as corrupt manifest + reset).
func TestManifestBitFlipResetsCorpus(t *testing.T) {
	dir := t.TempDir()
	s1 := open(t, dir)
	if err := s1.Put(demand(0), "sig", subFor(demand(0))); err != nil {
		t.Fatal(err)
	}
	flipByte(t, filepath.Join(dir, manifestName), headerSize+2)

	s2 := open(t, dir)
	if s2.Len() != 0 {
		t.Fatalf("corpus survived a corrupt manifest (%d entries)", s2.Len())
	}
	st := s2.Stats()
	if st.CorruptManifest != 1 || st.Resets != 1 {
		t.Fatalf("stats %+v", st)
	}
	// Fresh manifest written; a third open keeps the new corpus.
	if err := s2.Put(demand(0), "sig", subFor(demand(0))); err != nil {
		t.Fatal(err)
	}
	s3 := open(t, dir)
	if s3.Len() != 1 {
		t.Fatalf("corpus lost after reset recovery (%d entries)", s3.Len())
	}
}

// A flipped snapshot must read as absent (cold boot), be deleted, and
// be counted — never returned as payload.
func TestSnapshotBitFlipDropped(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	if err := s.SaveSnapshot("warm", []byte("the warm boot image")); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, snapshotsDir, "warm"+snapSuffix)
	flipByte(t, path, headerSize+4)

	if got, ok := s.LoadSnapshot("warm"); ok {
		t.Fatalf("corrupt snapshot served: %q", got)
	}
	if st := s.Stats(); st.CorruptSnapshots != 1 {
		t.Fatalf("stats %+v", st)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt snapshot left on disk")
	}
}

// Exhaustive single-byte sweep over one entry's span of a multi-entry
// pack: no flip position may ever be served. (The codec-level sweep is
// in codec_test.go; this one goes through the full store path with file
// I/O and index bookkeeping.)
func TestEveryBytePositionDetectedThroughStore(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	putBatch(t, s, "sig", 0, 1, 2)
	d := demand(1)
	sp := spanOf(t, s, d, "sig")
	pristine, err := os.ReadFile(sp.p.path)
	if err != nil {
		t.Fatal(err)
	}
	for off := sp.off; off < sp.off+sp.n; off += 7 { // stride keeps the test fast
		mut := append([]byte(nil), pristine...)
		mut[off] ^= 0xff
		if err := os.WriteFile(sp.p.path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		if got := s.Load(d, "sig"); got != nil {
			t.Fatalf("flip at offset %d served: %+v", off, got)
		}
		// Restore for the next position (Load deleted the pack and
		// forgot its keys; re-seed the same batch, which rewrites the
		// same pack).
		putBatch(t, s, "sig", 0, 1, 2)
		if again := spanOf(t, s, d, "sig"); again.p.path != sp.p.path || again.off != sp.off {
			t.Fatalf("re-seeded pack moved: %s@%d, was %s@%d", again.p.path, again.off, sp.p.path, sp.off)
		}
	}
}
