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
// longer exist, and the manifest a v4 build wrote, whose over-gate
// entries may hold schedules solving no longer returns — is a
// compatibility break: Open discards its entries and snapshots, counts a
// reset (not a corrupt manifest: a foreign version is intact, just not
// ours), and the store serves on.
func TestV1CorpusResets(t *testing.T) {
	v1, err := os.ReadFile(filepath.Join("..", "serve", "testdata", "parent_cache", manifestName))
	if err != nil {
		t.Fatal(err)
	}
	// A v2, v3 or v4 manifest is today's with the version field rewritten
	// and the checksum recomputed: the layout has not changed since v2.
	manifestOf := func(version uint16) []byte {
		m := append([]byte(nil), EncodeManifest()[:headerSize]...)
		binary.LittleEndian.PutUint16(m[4:6], version)
		sum := sha256.Sum256(m)
		return append(m, sum[:]...)
	}

	for name, manifest := range map[string][]byte{"v1": v1, "v2": manifestOf(2), "v3": manifestOf(3), "v4": manifestOf(4)} {
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
