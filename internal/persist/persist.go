package persist

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
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
	packSuffix   = ".pack"
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
	// Stores counts entries written; Duplicates counts entries dropped
	// because their key was already stored (first write wins);
	// StoreErrors counts batches whose pack could not be written.
	Stores      int64 `json:"stores"`
	Duplicates  int64 `json:"duplicates"`
	StoreErrors int64 `json:"store_errors"`
	// CorruptEntries counts packs dropped (at Open or on access) because
	// an entry span failed its checksum or framing, or held transfers
	// that do not fit the demand it was looked up for; CorruptSnapshots
	// counts checksum-failed snapshots dropped;
	// CorruptManifest counts manifest validation failures; Resets counts
	// whole-corpus discards (manifest missing/corrupt/incompatible).
	CorruptEntries   int64 `json:"corrupt_entries"`
	CorruptSnapshots int64 `json:"corrupt_snapshots"`
	CorruptManifest  int64 `json:"corrupt_manifest"`
	Resets           int64 `json:"resets"`
	// Orphans counts abandoned tmp files removed during recovery.
	Orphans int64 `json:"orphans"`
	// Entries / Bytes describe the current corpus: indexed keys and the
	// bytes of their entry containers.
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
}

// Store is a disk-backed, content-addressed cache of solved
// sub-schedules plus a small named-snapshot area. It is safe for
// concurrent use; every pack file is immutable once renamed into place,
// so readers never observe partial writes.
type Store struct {
	dir string

	// commit is held shared by each PutAll from reserving its keys to
	// indexing its pack, and exclusively by InvalidateMatching, so an
	// invalidation never meets a batch in flight.
	commit sync.RWMutex

	mu    sync.Mutex
	exact map[string]span // cache key (isomorph.CacheKey) -> its entry container
	bytes int64

	loads, hitExact, misses          atomic.Int64
	stores, duplicates, storeErrors  atomic.Int64
	corruptEntries, corruptSnaps     atomic.Int64
	corruptManifest, resets, orphans atomic.Int64

	met atomic.Pointer[storeMetrics]
}

// pack is one committed pack file and the keys indexed into it.
type pack struct {
	path string
	keys []string // the keys indexed into this pack when it was committed or scanned
	live int      // how many of keys the index still maps here
}

// span locates one entry container in a pack. A zero span (nil pack)
// reserves a key whose batch is still being written.
type span struct {
	p      *pack
	off, n int64
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
		exact: make(map[string]span),
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
// signature, verbatim, or nil. It reads and verifies only the entry's
// span of its pack. A span that fails its checksum, or whose transfers
// address a GPU or piece the demand does not have, drops its pack from
// disk and the lookup misses — corruption degrades to a cold synthesis,
// never to a bad schedule or a crash.
func (s *Store) Load(d *solve.Demand, sig string) *solve.SubSchedule {
	s.loads.Add(1)
	key := isomorph.CacheKey(d, sig)
	s.mu.Lock()
	sp := s.exact[key]
	s.mu.Unlock()

	if sp.p != nil {
		if sub := s.readEntry(key, sp, d); sub != nil {
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

// Put stores one solved sub-schedule: a batch of one (see PutAll).
func (s *Store) Put(d *solve.Demand, sig string, sub *solve.SubSchedule) error {
	return s.PutAll([]*solve.Demand{d}, sig, []*solve.SubSchedule{sub})
}

// PutAll writes the solved sub-schedules subs[i] of ds[i], all under one
// solve signature, as one pack: their containers are encoded into one
// buffer and committed with one tmp + fsync + rename. First write wins:
// a key already present (or twice in the batch) is left untouched, so
// replays stay bit-identical under concurrent duplicate stores. If the
// pack cannot be written, none of the batch's keys is stored, and a
// later PutAll may write them. Callers must only store fully validated
// results — the engine never stores partial or cancelled-flight
// solutions, and this package cannot tell the difference.
func (s *Store) PutAll(ds []*solve.Demand, sig string, subs []*solve.SubSchedule) error {
	if len(ds) != len(subs) {
		return fmt.Errorf("persist: %d demands for %d sub-schedules", len(ds), len(subs))
	}
	keys := make([]string, len(ds))
	for i, d := range ds {
		keys[i] = isomorph.CacheKey(d, sig)
	}

	s.commit.RLock()
	defer s.commit.RUnlock()
	// Reserve the keys before the write so a concurrent duplicate store
	// becomes a no-op instead of a double write; released on error.
	fresh := make([]Entry, 0, len(ds))
	size := 0
	s.mu.Lock()
	for i, k := range keys {
		if _, ok := s.exact[k]; ok {
			continue
		}
		s.exact[k] = span{}
		fresh = append(fresh, Entry{Key: k, Sub: subs[i]})
		size += entrySize(&fresh[len(fresh)-1])
	}
	s.mu.Unlock()
	if dups := len(ds) - len(fresh); dups > 0 {
		s.duplicates.Add(int64(dups))
		if m := s.met.Load(); m != nil {
			m.storeDup.Add(float64(dups))
		}
	}
	if len(fresh) == 0 {
		return nil
	}

	buf := make([]byte, 0, size)
	offs := make([]int64, len(fresh)+1)
	name := sha256.New()
	for i := range fresh {
		buf = appendEntry(buf, &fresh[i])
		offs[i+1] = int64(len(buf))
		name.Write(buf[len(buf)-checksumSize:])
	}
	path := filepath.Join(s.dir, objectsDir, hex.EncodeToString(name.Sum(nil)[:16])+packSuffix)
	err := atomicWrite(path, buf)

	s.mu.Lock()
	if err != nil {
		for _, e := range fresh {
			delete(s.exact, e.Key)
		}
		s.mu.Unlock()
		s.storeErrors.Add(1)
		if m := s.met.Load(); m != nil {
			m.storeErr.Inc()
		}
		return fmt.Errorf("persist: store pack: %w", err)
	}
	p := &pack{path: path, keys: make([]string, len(fresh)), live: len(fresh)}
	for i, e := range fresh {
		p.keys[i] = e.Key
		s.exact[e.Key] = span{p: p, off: offs[i], n: offs[i+1] - offs[i]}
	}
	s.bytes += int64(len(buf))
	s.updateGaugesLocked()
	s.mu.Unlock()
	s.stores.Add(int64(len(fresh)))
	if m := s.met.Load(); m != nil {
		m.storeWritten.Add(float64(len(fresh)))
	}
	return nil
}

// InvalidateMatching removes every stored entry whose cache key starts
// with one of the prefixes and returns the number of entries removed.
// It implements the engine's selective invalidation for fault-reactive
// replanning: entries whose demand shape no longer exists on a degraded
// fabric are dropped from the disk tier so a later warm boot does not
// resurrect them. A pack left with no live entry is deleted; the
// survivors of partly invalidated packs are copied into one new pack
// (one fsync per call) before their old packs are deleted, so no
// invalidated entry stays on disk once the call returns. Removal is
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

	s.commit.Lock()
	defer s.commit.Unlock()
	s.mu.Lock()
	removed := 0
	touched := map[*pack]bool{}
	for k, sp := range s.exact {
		if match(k) {
			delete(s.exact, k)
			s.bytes -= sp.n
			sp.p.live--
			touched[sp.p] = true
			removed++
		}
	}
	var partly []*pack
	for p := range touched {
		if p.live > 0 {
			partly = append(partly, p)
		}
	}
	s.updateGaugesLocked()
	s.mu.Unlock()

	if len(partly) > 0 {
		sort.Slice(partly, func(i, j int) bool { return partly[i].path < partly[j].path })
		s.repack(partly)
	}
	for p := range touched {
		_ = os.Remove(p.path)
	}
	return removed
}

// repack copies the live entries of the given packs into one new pack
// and points the index at it. A pack whose surviving spans do not read
// back whole is dropped (counted corrupt), and if the new pack cannot be
// written every survivor is forgotten: the old packs are deleted either
// way, so an invalidated entry never outlives the call.
func (s *Store) repack(packs []*pack) {
	type moved struct {
		key  string
		from span
	}
	var survivors []moved
	var buf []byte
	name := sha256.New()
	for _, p := range packs {
		data, err := os.ReadFile(p.path)
		if err != nil {
			s.forgetPack(p)
			continue
		}
		s.mu.Lock()
		var mine []moved
		for _, k := range p.keys {
			if sp, ok := s.exact[k]; ok && sp.p == p {
				mine = append(mine, moved{k, sp})
			}
		}
		s.mu.Unlock()
		whole := true
		for _, m := range mine {
			if m.from.off+m.from.n > int64(len(data)) {
				whole = false
				break
			}
			if e, err := DecodeEntry(data[m.from.off : m.from.off+m.from.n]); err != nil || e.Key != m.key {
				whole = false
				break
			}
		}
		if !whole {
			s.dropPack(p)
			continue
		}
		for _, m := range mine {
			buf = append(buf, data[m.from.off:m.from.off+m.from.n]...)
			name.Write(buf[len(buf)-checksumSize:])
			survivors = append(survivors, m)
		}
	}
	if len(survivors) == 0 {
		return
	}
	path := filepath.Join(s.dir, objectsDir, hex.EncodeToString(name.Sum(nil)[:16])+packSuffix)
	if err := atomicWrite(path, buf); err != nil {
		s.storeErrors.Add(1)
		if m := s.met.Load(); m != nil {
			m.storeErr.Inc()
		}
		for _, p := range packs {
			s.forgetPack(p)
		}
		return
	}
	np := &pack{path: path}
	s.mu.Lock()
	off := int64(0)
	for _, m := range survivors {
		if s.exact[m.key] == m.from {
			s.exact[m.key] = span{p: np, off: off, n: m.from.n}
			np.keys = append(np.keys, m.key)
			m.from.p.live--
		}
		off += m.from.n
	}
	np.live = len(np.keys)
	s.mu.Unlock()
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

// scan rebuilds the key index from the packs, in name order, dropping
// every pack that fails walkPack. A key already indexed from an earlier
// pack keeps its first span; a pack left with no key of its own is
// deleted.
func (s *Store) scan() {
	root := filepath.Join(s.dir, objectsDir)
	files, _ := os.ReadDir(root)
	for _, f := range files {
		if f.IsDir() || !strings.HasSuffix(f.Name(), packSuffix) {
			continue
		}
		path := filepath.Join(root, f.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		spans, err := walkPack(data)
		if err != nil {
			s.corruptEntries.Add(1)
			_ = os.Remove(path)
			continue
		}
		p := &pack{path: path}
		for _, e := range spans {
			if _, dup := s.exact[e.key]; !dup {
				s.exact[e.key] = span{p: p, off: e.off, n: e.n}
				p.keys = append(p.keys, e.key)
				s.bytes += e.n
			}
		}
		if p.live = len(p.keys); p.live == 0 {
			_ = os.Remove(path)
		}
	}
}

// packedEntry is one entry container walkPack found in a pack.
type packedEntry struct {
	key    string
	off, n int64
}

// walkPack splits a pack into its entry containers, container by
// container, and returns each one's key and span. It never panics on
// arbitrary bytes, and it errors — so the whole pack is dropped — when
// the pack is empty, or when any span is cut short or fails DecodeEntry.
func walkPack(data []byte) ([]packedEntry, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("%w: empty pack", ErrCorrupt)
	}
	var out []packedEntry
	for off := 0; off < len(data); {
		n, err := containerLen(data[off:])
		if err != nil {
			return nil, err
		}
		e, err := DecodeEntry(data[off : off+n])
		if err != nil {
			return nil, err
		}
		out = append(out, packedEntry{key: e.Key, off: int64(off), n: int64(n)})
		off += n
	}
	return out, nil
}

// readEntry reads the span sp for the lookup of key on d and returns its
// solution, or nil. A pack that is gone is forgotten; a span of another
// key misses; a span that does not read back whole, fails to decode or
// does not fit d drops its pack.
func (s *Store) readEntry(key string, sp span, d *solve.Demand) *solve.SubSchedule {
	f, err := os.Open(sp.p.path)
	if err != nil {
		s.forgetPack(sp.p)
		return nil
	}
	data := make([]byte, sp.n)
	_, err = f.ReadAt(data, sp.off)
	f.Close()
	if err != nil {
		s.dropPack(sp.p)
		return nil
	}
	e, derr := DecodeEntry(data)
	if derr == nil && e.Key != key {
		return nil
	}
	if derr != nil || !fits(e.Sub, d) {
		s.dropPack(sp.p)
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

// dropPack deletes a damaged pack and forgets its keys, counting it once
// however many lookups find the damage.
func (s *Store) dropPack(p *pack) {
	if s.forgetPack(p) {
		s.corruptEntries.Add(1)
		if m := s.met.Load(); m != nil {
			m.corruptEntry.Inc()
		}
	}
	_ = os.Remove(p.path)
}

// forgetPack removes every key the index still maps into p and reports
// whether there was one.
func (s *Store) forgetPack(p *pack) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if p.live == 0 {
		return false
	}
	for _, k := range p.keys {
		if sp, ok := s.exact[k]; ok && sp.p == p {
			delete(s.exact, k)
			s.bytes -= sp.n
		}
	}
	p.live = 0
	s.updateGaugesLocked()
	return true
}

func (s *Store) updateGaugesLocked() {
	if m := s.met.Load(); m != nil {
		m.entries.Set(float64(len(s.exact)))
		m.bytes.Set(float64(s.bytes))
	}
}

// hasEntries reports whether the objects directory holds anything.
func hasEntries(root string) bool {
	files, err := os.ReadDir(root)
	return err == nil && len(files) > 0
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
