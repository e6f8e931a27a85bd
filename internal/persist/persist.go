package persist

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"syccl/internal/isomorph"
	"syccl/internal/obs"
	"syccl/internal/solve"
)

const (
	manifestName = "MANIFEST"
	objectsDir   = "objects"
	snapshotsDir = "snapshots"
	entrySuffix  = ".sub"
	snapSuffix   = ".snap"
	tmpInfix     = ".tmp"
)

// Options configures Open.
type Options struct {
	// Dir is the store directory; created (with parents) if absent.
	// Opening a store whose manifest carries another FormatVersion
	// discards the corpus and starts fresh: stale entries are
	// re-synthesized, never silently replayed.
	Dir string
}

// Stats is a snapshot of a store's lifetime counters (since Open).
type Stats struct {
	// Loads counts Load calls; HitExact + Misses = Loads.
	Loads    int64 `json:"loads"`
	HitExact int64 `json:"hit_exact"`
	Misses   int64 `json:"misses"`
	// Stores counts Put calls that wrote a new entry; Duplicates counts
	// first-write-wins drops; StoreErrors counts failed writes.
	Stores      int64 `json:"stores"`
	Duplicates  int64 `json:"duplicates"`
	StoreErrors int64 `json:"store_errors"`
	// CorruptEntries / CorruptSnapshots count checksum-failed files
	// dropped (at Open or on access), CorruptEntries also entries whose
	// transfers do not fit the demand they were looked up for;
	// CorruptManifest counts manifest validation failures; Resets counts
	// whole-corpus discards (manifest missing/corrupt/incompatible).
	CorruptEntries   int64 `json:"corrupt_entries"`
	CorruptSnapshots int64 `json:"corrupt_snapshots"`
	CorruptManifest  int64 `json:"corrupt_manifest"`
	Resets           int64 `json:"resets"`
	// Orphans counts abandoned tmp files removed during recovery.
	Orphans int64 `json:"orphans"`
	// Entries / Bytes describe the current corpus.
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
}

// Store is a disk-backed, content-addressed cache of solved
// sub-schedules plus a small named-snapshot area. It is safe for
// concurrent use; every entry file is immutable once renamed into
// place, so readers never observe partial writes.
type Store struct {
	dir string

	mu    sync.Mutex
	exact map[string]string // cache key (isomorph.CacheKey) -> entry file path
	bytes int64

	loads, hitExact, misses          atomic.Int64
	stores, duplicates, storeErrors  atomic.Int64
	corruptEntries, corruptSnaps     atomic.Int64
	corruptManifest, resets, orphans atomic.Int64

	met atomic.Pointer[storeMetrics]
}

// storeMetrics holds the labeled children, resolved once at BindMetrics.
type storeMetrics struct {
	loadExact, loadMiss              *obs.Counter
	storeWritten, storeDup, storeErr *obs.Counter
	corruptEntry, corruptManifest    *obs.Counter
	corruptSnapshot                  *obs.Counter
	snapSaved, snapRestored          *obs.Counter
	snapMissing, snapError           *obs.Counter
	entries, bytes                   *obs.Gauge
}

// Open opens (or initializes) the store at opts.Dir and rebuilds the
// in-memory key index by scanning the corpus. Recovery is deliberately
// forgiving: orphaned tmp files from a killed writer are removed,
// truncated/torn/bit-flipped entries are dropped (and deleted) with a
// counter bump, and none of that fails the boot. Open errors only when
// the directory itself is unusable (cannot create or write).
func Open(opts Options) (*Store, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("persist: Options.Dir is required")
	}
	s := &Store{
		dir:   opts.Dir,
		exact: make(map[string]string),
	}
	for _, d := range []string{s.dir, filepath.Join(s.dir, objectsDir), filepath.Join(s.dir, snapshotsDir)} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("persist: %w", err)
		}
	}
	s.cleanOrphans()
	if err := s.checkManifest(); err != nil {
		return nil, err
	}
	s.scan()
	return s, nil
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// Len returns the number of indexed entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.exact)
}

// Stats snapshots the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	entries, bytes := len(s.exact), s.bytes
	s.mu.Unlock()
	return Stats{
		Loads:            s.loads.Load(),
		HitExact:         s.hitExact.Load(),
		Misses:           s.misses.Load(),
		Stores:           s.stores.Load(),
		Duplicates:       s.duplicates.Load(),
		StoreErrors:      s.storeErrors.Load(),
		CorruptEntries:   s.corruptEntries.Load(),
		CorruptSnapshots: s.corruptSnaps.Load(),
		CorruptManifest:  s.corruptManifest.Load(),
		Resets:           s.resets.Load(),
		Orphans:          s.orphans.Load(),
		Entries:          entries,
		Bytes:            bytes,
	}
}

// BindMetrics registers the syccl_persist_* families on reg and seeds
// the counters with everything that already happened (Open-time
// recovery runs before the serving layer owns a registry). Nil-safe and
// idempotent enough for one daemon: bind once, before traffic.
func (s *Store) BindMetrics(reg *obs.Registry) {
	loads := reg.Counter("syccl_persist_loads_total",
		"Disk-tier sub-schedule lookups by result.", "result")
	stores := reg.Counter("syccl_persist_stores_total",
		"Disk-tier entry writes by result.", "result")
	corrupt := reg.Counter("syccl_persist_corrupt_total",
		"Checksum-failed or incompatible files dropped, by kind.", "kind")
	snaps := reg.Counter("syccl_persist_snapshots_total",
		"Named snapshot operations by result.", "result")
	m := &storeMetrics{
		loadExact:       loads.With("hit_exact"),
		loadMiss:        loads.With("miss"),
		storeWritten:    stores.With("written"),
		storeDup:        stores.With("duplicate"),
		storeErr:        stores.With("error"),
		corruptEntry:    corrupt.With("entry"),
		corruptManifest: corrupt.With("manifest"),
		corruptSnapshot: corrupt.With("snapshot"),
		snapSaved:       snaps.With("saved"),
		snapRestored:    snaps.With("restored"),
		snapMissing:     snaps.With("missing"),
		snapError:       snaps.With("error"),
		entries:         reg.Gauge("syccl_persist_entries", "Entries in the on-disk corpus.").With(),
		bytes:           reg.Gauge("syccl_persist_bytes", "Bytes of entry files in the on-disk corpus.").With(),
	}
	// Seed with pre-bind history so the exposition agrees with Stats().
	st := s.Stats()
	m.loadExact.Add(float64(st.HitExact))
	m.loadMiss.Add(float64(st.Misses))
	m.storeWritten.Add(float64(st.Stores))
	m.storeDup.Add(float64(st.Duplicates))
	m.storeErr.Add(float64(st.StoreErrors))
	m.corruptEntry.Add(float64(st.CorruptEntries))
	m.corruptManifest.Add(float64(st.CorruptManifest))
	m.corruptSnapshot.Add(float64(st.CorruptSnapshots))
	m.entries.Set(float64(st.Entries))
	m.bytes.Set(float64(st.Bytes))
	s.met.Store(m)
}

// Load returns the sub-schedule stored for exactly this demand and solve
// signature, verbatim, or nil. An entry that fails its checksum, or
// whose transfers address a GPU or piece the demand does not have, is
// dropped from disk and the lookup misses — corruption degrades to a
// cold synthesis, never to a bad schedule or a crash.
func (s *Store) Load(d *solve.Demand, sig string) *solve.SubSchedule {
	s.loads.Add(1)
	key := isomorph.CacheKey(d, sig)
	s.mu.Lock()
	path := s.exact[key]
	s.mu.Unlock()

	if path != "" {
		if sub := s.readEntry(path, key, d); sub != nil {
			s.hitExact.Add(1)
			if m := s.met.Load(); m != nil {
				m.loadExact.Inc()
			}
			return sub
		}
	}
	s.misses.Add(1)
	if m := s.met.Load(); m != nil {
		m.loadMiss.Inc()
	}
	return nil
}

// Put writes the solved sub-schedule to disk under its content address.
// First write wins: a key already present is left untouched so replays
// stay bit-identical under concurrent duplicate stores. Callers must
// only Put fully validated results — the engine never stores partial or
// cancelled-flight solutions, and this package cannot tell the
// difference.
func (s *Store) Put(d *solve.Demand, sig string, sub *solve.SubSchedule) error {
	exact := isomorph.CacheKey(d, sig)
	path := s.entryPath(exact)

	s.mu.Lock()
	if _, ok := s.exact[exact]; ok {
		s.mu.Unlock()
		s.duplicates.Add(1)
		if m := s.met.Load(); m != nil {
			m.storeDup.Inc()
		}
		return nil
	}
	// Reserve the key before the write so a concurrent duplicate Put
	// becomes a no-op instead of a double write; rolled back on error.
	s.exact[exact] = path
	s.mu.Unlock()

	data := EncodeEntry(&Entry{Key: exact, Sub: sub})
	if err := atomicWrite(path, data); err != nil {
		s.mu.Lock()
		delete(s.exact, exact)
		s.mu.Unlock()
		s.storeErrors.Add(1)
		if m := s.met.Load(); m != nil {
			m.storeErr.Inc()
		}
		return fmt.Errorf("persist: store entry: %w", err)
	}
	s.mu.Lock()
	s.bytes += int64(len(data))
	s.updateGaugesLocked()
	s.mu.Unlock()
	s.stores.Add(1)
	if m := s.met.Load(); m != nil {
		m.storeWritten.Inc()
	}
	return nil
}

// InvalidateMatching removes every stored entry whose cache key starts
// with one of the prefixes, deleting the backing files, and returns the
// number of entries removed. It implements the engine's
// selective invalidation for fault-reactive replanning: entries whose
// demand shape no longer exists on a degraded fabric are dropped from
// the disk tier so a later warm boot does not resurrect them. Removal is
// never a correctness requirement — the store is content-addressed — so
// a file that fails to delete only costs disk space, not validity.
func (s *Store) InvalidateMatching(prefixes []string) int {
	if len(prefixes) == 0 {
		return 0
	}
	match := func(k string) bool {
		for _, p := range prefixes {
			if strings.HasPrefix(k, p) {
				return true
			}
		}
		return false
	}

	s.mu.Lock()
	var victims []string
	for k, p := range s.exact {
		if match(k) {
			delete(s.exact, k)
			victims = append(victims, p)
		}
	}
	for _, p := range victims {
		if fi, err := os.Stat(p); err == nil {
			s.bytes -= fi.Size()
		}
	}
	if s.bytes < 0 {
		s.bytes = 0
	}
	s.updateGaugesLocked()
	s.mu.Unlock()

	for _, p := range victims {
		_ = os.Remove(p)
	}
	return len(victims)
}

// SaveSnapshot atomically writes a named opaque snapshot (checksummed
// like every other file in the store).
func (s *Store) SaveSnapshot(name string, payload []byte) error {
	if err := validSnapName(name); err != nil {
		return err
	}
	path := filepath.Join(s.dir, snapshotsDir, name+snapSuffix)
	if err := atomicWrite(path, EncodeSnapshot(payload)); err != nil {
		if m := s.met.Load(); m != nil {
			m.snapError.Inc()
		}
		return fmt.Errorf("persist: save snapshot %q: %w", name, err)
	}
	if m := s.met.Load(); m != nil {
		m.snapSaved.Inc()
	}
	return nil
}

// LoadSnapshot returns the named snapshot's payload. A missing snapshot
// is (nil, false); a corrupt one is dropped from disk, counted, and
// reported as missing — a damaged warm-boot image must read as a cold
// boot, never as an error that blocks serving.
func (s *Store) LoadSnapshot(name string) ([]byte, bool) {
	if validSnapName(name) != nil {
		return nil, false
	}
	path := filepath.Join(s.dir, snapshotsDir, name+snapSuffix)
	data, err := os.ReadFile(path)
	if err != nil {
		if m := s.met.Load(); m != nil {
			m.snapMissing.Inc()
		}
		return nil, false
	}
	payload, err := DecodeSnapshot(data)
	if err != nil {
		s.corruptSnaps.Add(1)
		if m := s.met.Load(); m != nil {
			m.corruptSnapshot.Inc()
		}
		_ = os.Remove(path)
		return nil, false
	}
	if m := s.met.Load(); m != nil {
		m.snapRestored.Inc()
	}
	return payload, true
}

// --- recovery & scanning ---

// cleanOrphans removes tmp files abandoned by a writer that was killed
// between create and rename. Their contents are unreachable by design
// (the rename is the commit point), so removal can never lose a
// committed entry.
func (s *Store) cleanOrphans() {
	_ = filepath.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if strings.Contains(d.Name(), tmpInfix) {
			if os.Remove(path) == nil {
				s.orphans.Add(1)
			}
		}
		return nil
	})
}

// checkManifest enforces the compatibility rule: a valid manifest of
// this FormatVersion keeps the corpus; anything else — missing, corrupt,
// another version — discards every entry and snapshot and writes a fresh
// manifest. Returns an error only if the fresh manifest cannot be
// written.
func (s *Store) checkManifest() error {
	path := filepath.Join(s.dir, manifestName)
	data, err := os.ReadFile(path)
	if err == nil {
		derr := DecodeManifest(data)
		if derr == nil {
			return nil
		}
		if !errors.Is(derr, ErrVersion) {
			s.corruptManifest.Add(1)
		}
		s.reset()
	} else if hasEntries(filepath.Join(s.dir, objectsDir)) {
		// Entries without a manifest are of unknown provenance (e.g. the
		// manifest write itself was lost): treat as incompatible.
		s.reset()
	}
	if err := atomicWrite(path, EncodeManifest()); err != nil {
		return fmt.Errorf("persist: write manifest: %w", err)
	}
	return nil
}

// reset discards the whole corpus (entries and snapshots).
func (s *Store) reset() {
	s.resets.Add(1)
	_ = os.RemoveAll(filepath.Join(s.dir, objectsDir))
	_ = os.RemoveAll(filepath.Join(s.dir, snapshotsDir))
	_ = os.MkdirAll(filepath.Join(s.dir, objectsDir), 0o755)
	_ = os.MkdirAll(filepath.Join(s.dir, snapshotsDir), 0o755)
}

// scan rebuilds the key index from the corpus, dropping every file that
// fails validation.
func (s *Store) scan() {
	root := filepath.Join(s.dir, objectsDir)
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(d.Name(), entrySuffix) {
			return nil
		}
		data, rerr := os.ReadFile(path)
		if rerr != nil {
			return nil
		}
		e, derr := DecodeEntry(data)
		if derr != nil {
			s.dropCorrupt(path)
			return nil
		}
		s.mu.Lock()
		if _, dup := s.exact[e.Key]; !dup {
			s.exact[e.Key] = path
			s.bytes += int64(len(data))
		}
		s.mu.Unlock()
		return nil
	})
}

// readEntry loads the entry file at path for the lookup of key on d and
// returns its solution, or nil: an entry of another key misses, and one
// that fails to decode or does not fit d is dropped from disk and from
// the index.
func (s *Store) readEntry(path, key string, d *solve.Demand) *solve.SubSchedule {
	data, err := os.ReadFile(path)
	if err != nil {
		s.forgetPath(path)
		return nil
	}
	e, derr := DecodeEntry(data)
	if derr == nil && e.Key != key {
		return nil
	}
	if derr != nil || !fits(e.Sub, d) {
		s.dropCorrupt(path)
		s.forgetPath(path)
		return nil
	}
	return e.Sub
}

// fits reports whether every transfer of sub addresses a GPU and a piece
// of d. The checksum proves only that the bytes are the ones written; an
// index out of range would panic the assembly that consumes the entry.
func fits(sub *solve.SubSchedule, d *solve.Demand) bool {
	for _, t := range sub.Transfers {
		if t.Src < 0 || t.Src >= d.NumGPUs || t.Dst < 0 || t.Dst >= d.NumGPUs || t.Piece < 0 || t.Piece >= len(d.Pieces) {
			return false
		}
	}
	return true
}

func (s *Store) dropCorrupt(path string) {
	s.corruptEntries.Add(1)
	if m := s.met.Load(); m != nil {
		m.corruptEntry.Inc()
	}
	_ = os.Remove(path)
}

// forgetPath removes a dead file from the in-memory index.
func (s *Store) forgetPath(path string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, p := range s.exact {
		if p == path {
			delete(s.exact, k)
			break
		}
	}
	s.updateGaugesLocked()
}

func (s *Store) updateGaugesLocked() {
	if m := s.met.Load(); m != nil {
		m.entries.Set(float64(len(s.exact)))
		m.bytes.Set(float64(s.bytes))
	}
}

func (s *Store) entryPath(exactKey string) string {
	sum := sha256.Sum256([]byte(exactKey))
	name := hex.EncodeToString(sum[:])
	return filepath.Join(s.dir, objectsDir, name[:2], name+entrySuffix)
}

func hasEntries(root string) bool {
	found := false
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(d.Name(), entrySuffix) {
			found = true
			return filepath.SkipAll
		}
		return nil
	})
	return found
}

func validSnapName(name string) error {
	if name == "" || strings.ContainsAny(name, "/\\") || strings.Contains(name, "..") {
		return fmt.Errorf("persist: invalid snapshot name %q", name)
	}
	return nil
}

// atomicWrite commits data to path via a same-directory tmp file and
// rename, fsyncing the file so a crash straddling the rename leaves
// either the old state or the complete new file — never a torn one that
// recovery has to distrust (it distrusts it anyway: checksums).
func atomicWrite(path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(dir, filepath.Base(path)+tmpInfix+"*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}
