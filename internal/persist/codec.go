// Package persist is the disk tier behind the engine's sub-schedule
// cache: a content-addressed, checksummed store of solved sub-schedules
// keyed by the same exact key as the engine's in-memory LRU
// (isomorph.CacheKey: the demand's ExactKey plus the solve-option
// signature), so a schedule synthesized by one process is replayed
// bit-identically by every later one. A lookup serves exactly the demand
// that was stored, never a relabeled isomorphic one.
//
// On-disk layout under the store directory:
//
//	MANIFEST                    — empty container carrying the format
//	                              version; another version discards the
//	                              corpus (compatibility rule, see Open)
//	objects/<2-hex>/<sha256>.sub — one solved sub-schedule per file,
//	                              sharded by the first byte of the
//	                              content address
//	snapshots/<name>.snap       — opaque named snapshots (the serving
//	                              layer stores its schedule-store image
//	                              here for warm boot)
//
// Every file is a self-describing container: magic, format version,
// kind, payload, and a trailing SHA-256 over everything before it.
// Writers are crash-safe — content goes to a same-directory *.tmp file
// first and is renamed into place — and readers are adversarial: a
// truncated, torn, or bit-flipped file fails its checksum and is
// dropped (and deleted) rather than served, and recovery at Open never
// fails the boot on a bad entry.
package persist

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"syccl/internal/solve"
)

// FormatVersion is the on-disk container version, and the only version
// a corpus has: bump it whenever what an entry means changes — its
// layout, or the key or solver behind it. Decoders reject any other
// version with ErrVersion; Open treats a manifest version mismatch as an
// incompatible corpus and resets it (entries are cheap to re-synthesize,
// wrong entries are not cheap to debug). Version 2 keys entries by the
// defaulted solve options (solve.Options.Fingerprint) and stores only
// the key and the solution. Version 3 has the same layout, but every
// entry is the solver's output for exactly the demand it is keyed by: a
// v2 corpus may hold an isomorphism-class member's solution mapped from
// its representative, which a cold run would not produce. Version 4 has
// the same layout under a shorter key: solve.Options lost its epoch
// override, MILP size knob and flow-bound switch, so no v3 key can be
// looked up again. Version 5 has the v4 layout and keys, but EngineAuto
// now solves instances over the exact engine's size gate with plain
// greedy: a v4 entry for such a demand may hold a schedule from the
// deleted LP-rounding backend that solving no longer returns.
const FormatVersion = 5

// Container kinds. Each file kind decodes only as itself, so a snapshot
// can never be mistaken for a solve entry.
const (
	kindEntry    = 1
	kindManifest = 2
	kindSnapshot = 3
)

var (
	// ErrCorrupt reports a container that failed structural or checksum
	// validation: truncated, torn, bit-flipped, or not ours at all.
	ErrCorrupt = errors.New("persist: corrupt container")
	// ErrVersion reports a structurally intact container written by an
	// incompatible format version.
	ErrVersion = errors.New("persist: incompatible format version")
)

const (
	containerMagic  = "SYP1"
	headerSize      = 4 + 2 + 1 + 1 + 8 // magic, version, kind, pad, payload len
	checksumSize    = sha256.Size
	maxPayloadBytes = 1 << 30
)

// encodeContainer frames payload as a checksummed container.
func encodeContainer(kind byte, payload []byte) []byte {
	buf := make([]byte, 0, headerSize+len(payload)+checksumSize)
	buf = append(buf, containerMagic...)
	buf = binary.LittleEndian.AppendUint16(buf, FormatVersion)
	buf = append(buf, kind, 0)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	sum := sha256.Sum256(buf)
	return append(buf, sum[:]...)
}

// decodeContainer validates framing and checksum and returns the payload.
// The checksum is verified before the version so that a bit flip in the
// version field reads as corruption, not as a foreign format.
func decodeContainer(data []byte, wantKind byte) ([]byte, error) {
	if len(data) < headerSize+checksumSize {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the minimal container", ErrCorrupt, len(data))
	}
	if string(data[:4]) != containerMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	body, stored := data[:len(data)-checksumSize], data[len(data)-checksumSize:]
	sum := sha256.Sum256(body)
	if !bytes.Equal(sum[:], stored) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint16(data[4:6]); v != FormatVersion {
		return nil, fmt.Errorf("%w: got v%d, want v%d", ErrVersion, v, FormatVersion)
	}
	if data[6] != wantKind {
		return nil, fmt.Errorf("%w: kind %d, want %d", ErrCorrupt, data[6], wantKind)
	}
	if data[7] != 0 {
		return nil, fmt.Errorf("%w: nonzero pad byte", ErrCorrupt)
	}
	plen := binary.LittleEndian.Uint64(data[8:16])
	if plen > maxPayloadBytes || plen != uint64(len(body)-headerSize) {
		return nil, fmt.Errorf("%w: payload length %d does not match container", ErrCorrupt, plen)
	}
	return body[headerSize:], nil
}

// Entry is one persisted solved sub-demand: its cache key
// (isomorph.CacheKey) and the solution.
type Entry struct {
	Key string
	Sub *solve.SubSchedule
}

// EncodeEntry serializes an entry into a container. The encoding is
// canonical: DecodeEntry(EncodeEntry(e)) reproduces e exactly, and
// EncodeEntry(DecodeEntry(b)) reproduces b byte for byte (FuzzPersistDecode
// holds the codec to that round-trip).
func EncodeEntry(e *Entry) []byte {
	var w wbuf
	w.str(e.Key)
	s := e.Sub
	w.str(s.Engine)
	w.i64(int64(s.Epochs))
	w.f64(s.Tau)
	w.u32(uint32(len(s.Transfers)))
	for _, t := range s.Transfers {
		w.i64(int64(t.Src))
		w.i64(int64(t.Dst))
		w.i64(int64(t.Piece))
		w.i64(int64(t.Start))
		w.i64(int64(t.Arrive))
	}
	return encodeContainer(kindEntry, w.b)
}

// DecodeEntry parses a container produced by EncodeEntry. It never
// panics on arbitrary input; malformed bytes return ErrCorrupt (or
// ErrVersion for a foreign format version).
func DecodeEntry(data []byte) (*Entry, error) {
	payload, err := decodeContainer(data, kindEntry)
	if err != nil {
		return nil, err
	}
	r := &rbuf{b: payload}
	e := &Entry{Key: r.str()}
	s := &solve.SubSchedule{Engine: r.str(), Epochs: int(r.i64()), Tau: r.f64()}
	// A count may never promise more elements than the remaining payload
	// could possibly hold, so a corrupted length can neither over-allocate
	// nor run the reader past the end.
	ntransfers := r.count(5 * 8)
	for i := 0; i < ntransfers && r.err == nil; i++ {
		s.Transfers = append(s.Transfers, solve.Transfer{
			Src: int(r.i64()), Dst: int(r.i64()), Piece: int(r.i64()),
			Start: int(r.i64()), Arrive: int(r.i64()),
		})
	}
	e.Sub = s
	if r.err != nil {
		return nil, fmt.Errorf("%w: entry payload: %v", ErrCorrupt, r.err)
	}
	if r.off != len(r.b) {
		return nil, fmt.Errorf("%w: %d trailing payload bytes", ErrCorrupt, len(r.b)-r.off)
	}
	return e, nil
}

// EncodeManifest serializes the corpus manifest: an empty container
// whose header carries the format version.
func EncodeManifest() []byte {
	return encodeContainer(kindManifest, nil)
}

// DecodeManifest validates a manifest container; a manifest of another
// format version is ErrVersion.
func DecodeManifest(data []byte) error {
	payload, err := decodeContainer(data, kindManifest)
	if err != nil {
		return err
	}
	if len(payload) != 0 {
		return fmt.Errorf("%w: %d trailing payload bytes", ErrCorrupt, len(payload))
	}
	return nil
}

// EncodeSnapshot frames an opaque snapshot payload.
func EncodeSnapshot(payload []byte) []byte {
	return encodeContainer(kindSnapshot, payload)
}

// DecodeSnapshot validates and unwraps a snapshot container.
func DecodeSnapshot(data []byte) ([]byte, error) {
	return decodeContainer(data, kindSnapshot)
}

// --- primitive little-endian writer/reader ---

type wbuf struct{ b []byte }

func (w *wbuf) u32(v uint32)  { w.b = binary.LittleEndian.AppendUint32(w.b, v) }
func (w *wbuf) i64(v int64)   { w.b = binary.LittleEndian.AppendUint64(w.b, uint64(v)) }
func (w *wbuf) f64(v float64) { w.b = binary.LittleEndian.AppendUint64(w.b, math.Float64bits(v)) }
func (w *wbuf) str(s string) {
	w.u32(uint32(len(s)))
	w.b = append(w.b, s...)
}

// rbuf is a bounds-checked reader: the first overrun latches err and all
// subsequent reads return zero values, so decoders stay panic-free on
// arbitrary input.
type rbuf struct {
	b   []byte
	off int
	err error
}

func (r *rbuf) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || len(r.b)-r.off < n {
		r.err = fmt.Errorf("need %d bytes, have %d", n, len(r.b)-r.off)
		return nil
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out
}

func (r *rbuf) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *rbuf) i64() int64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(b))
}

func (r *rbuf) f64() float64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

func (r *rbuf) str() string {
	n := r.u32()
	b := r.take(int(n))
	if b == nil {
		return ""
	}
	return string(b)
}

// count reads an element count and validates it against the bytes still
// available, given the minimal encoded size of one element.
func (r *rbuf) count(minElemBytes int) int {
	n := int(r.u32())
	if r.err != nil {
		return 0
	}
	if n < 0 || n*minElemBytes > len(r.b)-r.off {
		r.err = fmt.Errorf("count %d exceeds remaining payload", n)
		return 0
	}
	return n
}
