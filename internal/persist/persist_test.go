package persist

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"syccl/internal/obs"
	"syccl/internal/solve"
)

// demand builds a small broadcast-shaped demand; root picks the source
// GPU, so different roots give distinct (relabeled, isomorphic) demands.
func demand(root int) *solve.Demand {
	dsts := []int{}
	for g := 0; g < 4; g++ {
		if g != root {
			dsts = append(dsts, g)
		}
	}
	return &solve.Demand{
		NumGPUs: 4, Alpha: 1e-6, Beta: 5e-12,
		Pieces: []solve.Piece{{ID: 0, Bytes: 1 << 16, Srcs: []int{root}, Dsts: dsts}},
	}
}

func subFor(d *solve.Demand) *solve.SubSchedule {
	root := d.Pieces[0].Srcs[0]
	sub := &solve.SubSchedule{Engine: "greedy", Epochs: 3, Tau: 1e-6}
	start := 0
	for _, dst := range d.Pieces[0].Dsts {
		sub.Transfers = append(sub.Transfers, solve.Transfer{
			Src: root, Dst: dst, Piece: 0, Start: start, Arrive: start + 1,
		})
		start++
	}
	return sub
}

// batch returns demand(r) and its sub-schedule for every r in roots.
func batch(roots ...int) ([]*solve.Demand, []*solve.SubSchedule) {
	var ds []*solve.Demand
	var subs []*solve.SubSchedule
	for _, r := range roots {
		ds = append(ds, demand(r))
		subs = append(subs, subFor(demand(r)))
	}
	return ds, subs
}

// putBatch stores batch(roots...) in one PutAll: one pack.
func putBatch(t *testing.T, s *Store, sig string, roots ...int) {
	t.Helper()
	ds, subs := batch(roots...)
	if err := s.PutAll(ds, sig, subs); err != nil {
		t.Fatal(err)
	}
}

// spanOf returns where s holds d's entry under sig.
func spanOf(t *testing.T, s *Store, d *solve.Demand, sig string) span {
	t.Helper()
	s.mu.Lock()
	sp, ok := s.exact[cacheKey(d, sig)]
	s.mu.Unlock()
	if !ok || sp.p == nil {
		t.Fatalf("no committed entry for %q", cacheKey(d, sig))
	}
	return sp
}

func open(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutLoadExact(t *testing.T) {
	s := open(t, t.TempDir())
	d, sub := demand(0), subFor(demand(0))
	if got := s.Load(d, "sig"); got != nil {
		t.Fatalf("empty store returned %+v", got)
	}
	if err := s.Put(d, "sig", sub); err != nil {
		t.Fatal(err)
	}
	got := s.Load(d, "sig")
	if !reflect.DeepEqual(got, sub) {
		t.Fatalf("loaded sub differs:\n in: %+v\nout: %+v", sub, got)
	}
	st := s.Stats()
	if st.HitExact != 1 || st.Misses != 1 || st.Stores != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// A different solve signature must not serve the stored entry: the
// signature is part of the content address.
func TestSignatureIsolation(t *testing.T) {
	s := open(t, t.TempDir())
	d := demand(0)
	if err := s.Put(d, "sigA", subFor(d)); err != nil {
		t.Fatal(err)
	}
	if got := s.Load(d, "sigB"); got != nil {
		t.Fatalf("signature mismatch served an entry: %+v", got)
	}
}

// First write wins: a duplicate Put must leave the original bytes in
// place so replays stay bit-identical.
func TestFirstWriteWins(t *testing.T) {
	s := open(t, t.TempDir())
	d := demand(0)
	orig := subFor(d)
	if err := s.Put(d, "sig", orig); err != nil {
		t.Fatal(err)
	}
	alt := subFor(d)
	alt.Engine = "other"
	alt.Epochs = 99
	if err := s.Put(d, "sig", alt); err != nil {
		t.Fatal(err)
	}
	if got := s.Load(d, "sig"); !reflect.DeepEqual(got, orig) {
		t.Fatalf("duplicate Put replaced the stored entry: %+v", got)
	}
	if st := s.Stats(); st.Duplicates != 1 || st.Stores != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// Reopening the directory rebuilds the index from disk: the entry must
// load in a brand-new Store with no shared memory.
func TestReopenRestoresIndex(t *testing.T) {
	dir := t.TempDir()
	s1 := open(t, dir)
	d, sub := demand(0), subFor(demand(0))
	if err := s1.Put(d, "sig", sub); err != nil {
		t.Fatal(err)
	}
	s2 := open(t, dir)
	if s2.Len() != 1 {
		t.Fatalf("reopened store has %d entries, want 1", s2.Len())
	}
	if got := s2.Load(d, "sig"); !reflect.DeepEqual(got, sub) {
		t.Fatalf("reopened store returned %+v", got)
	}
}

// A corpus written by an older format — here the manifest of a v1
// daemon's cache directory, the manifest a v2 build wrote, whose corpus
// may hold class members' mapped solutions under their own keys, the
// manifest a v3 build wrote, whose keys carry solve options that no
// longer exist, the manifest a v4 build wrote, whose over-gate entries
// may hold schedules solving no longer returns, the manifest a v5 build
// wrote, whose exact-engine entries may have run past the pivot budget,
// the manifest a v6 build wrote, whose MILP entries came from a search
// that re-solved its nodes warm, and the manifest a v7 build wrote, whose
// entries sit one per sharded file instead of in packs — is a
// compatibility break: Open discards its entries and snapshots, counts a
// reset (not a corrupt manifest: a foreign version is intact, just not
// ours), and the store serves on.
func TestV1CorpusResets(t *testing.T) {
	v1, err := os.ReadFile(filepath.Join("..", "serve", "testdata", "parent_cache", manifestName))
	if err != nil {
		t.Fatal(err)
	}
	// A v2 … v7 manifest is today's with the version field rewritten
	// and the checksum recomputed: the layout has not changed since v2.
	manifestOf := func(version uint16) []byte {
		m := append([]byte(nil), EncodeManifest()[:headerSize]...)
		binary.LittleEndian.PutUint16(m[4:6], version)
		sum := sha256.Sum256(m)
		return append(m, sum[:]...)
	}

	for name, manifest := range map[string][]byte{"v1": v1, "v2": manifestOf(2), "v3": manifestOf(3), "v4": manifestOf(4), "v5": manifestOf(5), "v6": manifestOf(6), "v7": manifestOf(7)} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s1 := open(t, dir)
			if err := s1.Put(demand(0), "sig", subFor(demand(0))); err != nil {
				t.Fatal(err)
			}
			if err := s1.SaveSnapshot("warm", []byte("image")); err != nil {
				t.Fatal(err)
			}
			if err := DecodeManifest(manifest); !errors.Is(err, ErrVersion) {
				t.Fatalf("%s manifest: err = %v, want ErrVersion", name, err)
			}
			if err := os.WriteFile(filepath.Join(dir, manifestName), manifest, 0o644); err != nil {
				t.Fatal(err)
			}

			s2 := open(t, dir)
			if st := s2.Stats(); st.Entries != 0 || st.Resets != 1 || st.CorruptManifest != 0 {
				t.Fatalf("%s corpus after Open: %+v", name, st)
			}
			if _, ok := s2.LoadSnapshot("warm"); ok {
				t.Fatalf("%s snapshot survived the reset", name)
			}
			if s2.Load(demand(0), "sig") != nil {
				t.Fatalf("%s corpus served an entry", name)
			}
			if err := s2.Put(demand(0), "sig", subFor(demand(0))); err != nil {
				t.Fatal(err)
			}
			if s3 := open(t, dir); s3.Len() != 1 {
				t.Fatalf("the fresh corpus did not survive a reopen: %d entries", s3.Len())
			}
		})
	}
}

// Entries present without any manifest are of unknown provenance and
// must be discarded.
func TestMissingManifestResetsExistingCorpus(t *testing.T) {
	dir := t.TempDir()
	s1 := open(t, dir)
	if err := s1.Put(demand(0), "sig", subFor(demand(0))); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, manifestName)); err != nil {
		t.Fatal(err)
	}
	s2 := open(t, dir)
	if s2.Len() != 0 {
		t.Fatalf("manifest-less corpus kept %d entries", s2.Len())
	}
}

// Snapshots round-trip through disk; a missing name reads as absent.
func TestSnapshotSaveLoad(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	if _, ok := s.LoadSnapshot("warm"); ok {
		t.Fatal("missing snapshot reported present")
	}
	payload := []byte(`{"entries":[{"id":"x"}]}`)
	if err := s.SaveSnapshot("warm", payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.LoadSnapshot("warm")
	if !ok || string(got) != string(payload) {
		t.Fatalf("snapshot load: %q, %t", got, ok)
	}
	// Overwrite is allowed for snapshots (unlike entries): latest wins.
	if err := s.SaveSnapshot("warm", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.LoadSnapshot("warm"); string(got) != "v2" {
		t.Fatalf("snapshot overwrite: %q", got)
	}
	// Survives reopen.
	s2 := open(t, dir)
	if got, ok := s2.LoadSnapshot("warm"); !ok || string(got) != "v2" {
		t.Fatalf("snapshot after reopen: %q, %t", got, ok)
	}
}

func TestSnapshotNameValidation(t *testing.T) {
	s := open(t, t.TempDir())
	for _, name := range []string{"", "a/b", `a\b`, "..", "x..y"} {
		if err := s.SaveSnapshot(name, []byte("p")); err == nil {
			t.Errorf("snapshot name %q accepted", name)
		}
		if _, ok := s.LoadSnapshot(name); ok {
			t.Errorf("snapshot name %q loadable", name)
		}
	}
}

// PutAll of k new and j already-stored items writes one pack file holding
// the k, raises Stores by k and Duplicates by j, and leaves the stored
// items' bytes as they were (first write wins).
func TestPutAllWritesOnePack(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	putBatch(t, s, "sig", 0, 1)
	before := s.Stats()
	old := spanOf(t, s, demand(0), "sig")

	ds := []*solve.Demand{demand(0), demand(2), demand(1), demand(3), demand(2)}
	subs := make([]*solve.SubSchedule, len(ds))
	for i, d := range ds {
		subs[i] = subFor(d)
		subs[i].Epochs = 40 + i // tells a duplicate's bytes from the stored ones
	}
	if err := s.PutAll(ds, "sig", subs); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Stores-before.Stores != 2 || st.Duplicates-before.Duplicates != 3 || st.Entries != 4 {
		t.Fatalf("stats %+v after %+v, want 2 stores and 3 duplicates", st, before)
	}
	if files := packFiles(t, dir); len(files) != 2 {
		t.Fatalf("%d pack files, want 2", len(files))
	}
	fresh := spanOf(t, s, demand(2), "sig")
	if fresh.p != spanOf(t, s, demand(3), "sig").p || fresh.p == old.p {
		t.Fatal("the batch's new entries are not in one new pack")
	}
	if info, err := os.Stat(fresh.p.path); err != nil || info.Size() != st.Bytes-before.Bytes {
		t.Fatalf("new pack: %v, %v; want %d bytes", info, err, st.Bytes-before.Bytes)
	}
	if got := s.Load(demand(0), "sig"); !reflect.DeepEqual(got, subFor(demand(0))) {
		t.Fatalf("duplicate replaced the stored entry: %+v", got)
	}
	if got := s.Load(demand(2), "sig"); got == nil || got.Epochs != 41 {
		t.Fatalf("first of a key twice in one batch not kept: %+v", got)
	}
	if err := s.PutAll(ds[:1], "sig", subs); err == nil {
		t.Fatal("PutAll accepted mismatched slices")
	}
}

// Concurrent, overlapping PutAll batches (run under -race in the CI
// shard) store each key once: every key is indexed, Stores counts each
// key once, and a reboot finds the same corpus.
func TestConcurrentPutAll(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	sigs := []string{"a", "b", "c"}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				sig := sigs[(w+i)%len(sigs)]
				ds, subs := batch([]int{0, 1, 2, 3}[(w+i)%4:]...)
				_ = s.PutAll(ds, sig, subs)
				_ = s.Load(ds[0], sig)
			}
		}()
	}
	wg.Wait()
	const keys = 12 // 4 roots x 3 signatures
	if st := s.Stats(); s.Len() != keys || st.Stores != keys || st.StoreErrors != 0 {
		t.Fatalf("store has %d entries, stats %+v; want %d each stored once", s.Len(), st, keys)
	}
	s2 := open(t, dir)
	if s2.Len() != keys {
		t.Fatalf("reboot found %d entries, want %d", s2.Len(), keys)
	}
	for _, sig := range sigs {
		for r := 0; r < 4; r++ {
			if got := s2.Load(demand(r), sig); !reflect.DeepEqual(got, subFor(demand(r))) {
				t.Fatalf("entry %d/%s after reboot: %+v", r, sig, got)
			}
		}
	}
}

// InvalidateMatching deletes packs left with no live entry and copies the
// survivors of partly invalidated packs into one new pack: across a
// reboot the survivors serve and the victims stay gone.
func TestInvalidateKeepsSurvivorsAcrossReboot(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	putBatch(t, s, "a", 0, 1, 2, 3)
	putBatch(t, s, "b", 0, 1)
	putBatch(t, s, "c", 2, 3)
	untouched := spanOf(t, s, demand(2), "c").p.path
	before := s.Stats()

	if got := s.InvalidateMatching([]string{cacheKey(demand(1), "a"), cacheKey(demand(3), "a"), cacheKey(demand(0), "b"), cacheKey(demand(1), "b")}); got != 4 {
		t.Fatalf("invalidated %d entries, want 4", got)
	}
	files := packFiles(t, dir)
	if len(files) != 2 {
		t.Fatalf("%d pack files after invalidation, want the untouched one and one new", len(files))
	}
	check := func(s *Store) {
		t.Helper()
		for _, k := range []struct {
			root int
			sig  string
			live bool
		}{{0, "a", true}, {1, "a", false}, {2, "a", true}, {3, "a", false}, {0, "b", false}, {1, "b", false}, {2, "c", true}, {3, "c", true}} {
			got := s.Load(demand(k.root), k.sig)
			if k.live && !reflect.DeepEqual(got, subFor(demand(k.root))) {
				t.Fatalf("survivor %d/%s lost: %+v", k.root, k.sig, got)
			}
			if !k.live && got != nil {
				t.Fatalf("invalidated entry %d/%s served: %+v", k.root, k.sig, got)
			}
		}
		if s.Len() != 4 {
			t.Fatalf("index has %d entries, want 4", s.Len())
		}
	}
	check(s)
	if st := s.Stats(); st.Bytes*2 != before.Bytes || st.CorruptEntries != 0 {
		t.Fatalf("stats %+v after %+v: want half the bytes, nothing corrupt", st, before)
	}
	if spanOf(t, s, demand(2), "c").p.path != untouched {
		t.Fatal("a pack with no victim was rewritten")
	}
	s2 := open(t, dir)
	check(s2)
	if st := s2.Stats(); st.CorruptEntries != 0 {
		t.Fatalf("reboot after invalidation: %+v", st)
	}
	if got := s2.InvalidateMatching([]string{cacheKey(demand(0), "a"), cacheKey(demand(2), "a")}); got != 2 {
		t.Fatalf("second invalidation removed %d, want 2", got)
	}
	if files := packFiles(t, dir); len(files) != 1 || files[0] != untouched {
		t.Fatalf("pack files %v, want only %s", files, untouched)
	}
}

// Invalidations racing batches and lookups (run under -race in the CI
// shard) leave a consistent store: nothing counts as corrupt, every
// indexed entry loads, and a reboot finds exactly the indexed entries.
func TestConcurrentInvalidate(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	sigs := []string{"a", "b", "c"}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				sig := sigs[(w+i)%len(sigs)]
				ds, subs := batch(0, 1, 2, 3)
				_ = s.PutAll(ds, sig, subs)
				_ = s.Load(demand((w+i)%4), sig)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 15; i++ {
			s.InvalidateMatching([]string{cacheKey(demand(i%4), sigs[i%len(sigs)])})
		}
	}()
	wg.Wait()
	if st := s.Stats(); st.CorruptEntries != 0 || st.StoreErrors != 0 {
		t.Fatalf("stats %+v", st)
	}
	live := 0
	for _, sig := range sigs {
		for r := 0; r < 4; r++ {
			s.mu.Lock()
			_, ok := s.exact[cacheKey(demand(r), sig)]
			s.mu.Unlock()
			if !ok {
				continue
			}
			live++
			if got := s.Load(demand(r), sig); !reflect.DeepEqual(got, subFor(demand(r))) {
				t.Fatalf("indexed entry %d/%s: %+v", r, sig, got)
			}
		}
	}
	if s2 := open(t, dir); s2.Len() != live || s.Len() != live {
		t.Fatalf("reboot found %d entries, the store indexes %d of %d loadable", s2.Len(), s.Len(), live)
	}
}

// A pack that cannot be written (objects/ replaced by a regular file,
// which a mode change cannot simulate for a root user) fails the batch:
// StoreErrors counts it, none of its keys is indexed, and once the
// directory is back the same batch is written in full.
func TestPackWriteFailureReleasesKeys(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	objects := filepath.Join(dir, objectsDir)
	if err := os.Remove(objects); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(objects, []byte("in the way"), 0o644); err != nil {
		t.Fatal(err)
	}
	ds, subs := batch(0, 1)
	if err := s.PutAll(ds, "sig", subs); err == nil {
		t.Fatal("PutAll over a broken objects directory reported success")
	}
	if st := s.Stats(); st.StoreErrors != 1 || st.Stores != 0 || st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("stats after the failed batch %+v", st)
	}
	if got := s.Load(ds[0], "sig"); got != nil {
		t.Fatalf("failed batch served: %+v", got)
	}
	if err := os.Remove(objects); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(objects, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := s.PutAll(ds, "sig", subs); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Stores != 2 || st.Duplicates != 0 {
		t.Fatalf("stats after the retried batch %+v", st)
	}
	if s2 := open(t, dir); s2.Len() != 2 {
		t.Fatalf("retried batch not on disk: %d entries after reboot", s2.Len())
	}
}

// Concurrent Put/Load on overlapping keys must be race-free (run under
// -race in the CI shard) and end with exactly one entry per key.
func TestConcurrentPutLoad(t *testing.T) {
	s := open(t, t.TempDir())
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				root := i % 4
				d := demand(root)
				_ = s.Put(d, "sig", subFor(d))
				_ = s.Load(d, "sig")
			}
		}()
	}
	wg.Wait()
	if s.Len() != 4 {
		t.Fatalf("store has %d entries, want 4", s.Len())
	}
}

// BindMetrics seeds the labeled counters with pre-bind history so the
// exposition agrees with Stats, and keeps counting after.
func TestBindMetricsSeedsHistory(t *testing.T) {
	s := open(t, t.TempDir())
	d := demand(0)
	_ = s.Load(d, "sig") // miss before bind
	if err := s.Put(d, "sig", subFor(d)); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	s.BindMetrics(reg)
	_ = s.Load(d, "sig") // exact hit after bind

	var sb strings.Builder
	if err := reg.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		`syccl_persist_loads_total{result="miss"} 1`,
		`syccl_persist_loads_total{result="hit_exact"} 1`,
		`syccl_persist_stores_total{result="written"} 1`,
		`syccl_persist_entries 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q in:\n%s", want, text)
		}
	}
}
