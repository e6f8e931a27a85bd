package persist

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"testing"

	"syccl/internal/solve"
)

func sampleEntry() *Entry {
	sub := &solve.SubSchedule{
		Engine: "exact", Epochs: 5, Tau: 2.5e-6,
		Transfers: []solve.Transfer{
			{Src: 0, Dst: 1, Piece: 0, Start: 0, Arrive: 2},
			{Src: 1, Dst: 2, Piece: 0, Start: 2, Arrive: 4},
			{Src: 3, Dst: 0, Piece: 1, Start: 0, Arrive: 1},
		},
	}
	return &Entry{Key: "exact-key|sig", Sub: sub}
}

// The entry codec must round-trip in both directions: decode(encode(e))
// reproduces the entry, and encode(decode(b)) reproduces the bytes.
func TestEntryRoundTrip(t *testing.T) {
	e := sampleEntry()
	data := EncodeEntry(e)
	got, err := DecodeEntry(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(e, got) {
		t.Fatalf("round-trip mismatch:\n in: %+v\nout: %+v", e, got)
	}
	if !bytes.Equal(EncodeEntry(got), data) {
		t.Fatal("re-encoding a decoded entry changed the bytes (encoding not canonical)")
	}
}

// Special float bit patterns must survive the trip exactly.
func TestEntryFloatBitPatterns(t *testing.T) {
	for _, tau := range []float64{
		math.Float64frombits(0x7ff8000000000001), // a NaN payload
		math.SmallestNonzeroFloat64,
		math.MaxFloat64,
	} {
		e := sampleEntry()
		e.Sub.Tau = tau
		got, err := DecodeEntry(EncodeEntry(e))
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got.Sub.Tau) != math.Float64bits(tau) {
			t.Fatalf("float bits %x not preserved: got %x", math.Float64bits(tau), math.Float64bits(got.Sub.Tau))
		}
	}
}

func TestManifestRoundTrip(t *testing.T) {
	if err := DecodeManifest(EncodeManifest()); err != nil {
		t.Fatalf("manifest round-trip: %v", err)
	}
	// A payload is not part of the format: a manifest carrying one is
	// corrupt (checksum recomputed so only the payload differs).
	if err := DecodeManifest(encodeContainer(kindManifest, []byte("syccl-solve-v1"))); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("manifest with a payload: err = %v, want ErrCorrupt", err)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	payload := []byte(`{"entries":[]}`)
	got, err := DecodeSnapshot(EncodeSnapshot(payload))
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("snapshot round-trip: %q, %v", got, err)
	}
}

// Every strict prefix of a valid container must fail to decode: a torn
// write can never read as a shorter-but-valid entry.
func TestEntryTruncationAlwaysDetected(t *testing.T) {
	data := EncodeEntry(sampleEntry())
	for n := 0; n < len(data); n++ {
		if _, err := DecodeEntry(data[:n]); err == nil {
			t.Fatalf("truncation to %d/%d bytes decoded successfully", n, len(data))
		}
	}
}

// Every single-byte flip must fail the checksum (or, for flips inside
// the version field that survive checksum — impossible, the checksum
// covers it — ErrVersion). No flip may decode cleanly.
func TestEntryBitFlipAlwaysDetected(t *testing.T) {
	data := EncodeEntry(sampleEntry())
	for i := 0; i < len(data); i++ {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x41
		if _, err := DecodeEntry(mut); err == nil {
			t.Fatalf("byte flip at offset %d decoded successfully", i)
		}
	}
}

// Trailing garbage after a valid container must be rejected.
func TestTrailingBytesRejected(t *testing.T) {
	data := append(EncodeEntry(sampleEntry()), 0x00)
	if _, err := DecodeEntry(data); err == nil {
		t.Fatal("container with trailing byte decoded successfully")
	}
}

// A container written by a different format version must surface as
// ErrVersion (checksum recomputed so only the version differs).
func TestVersionMismatchIsErrVersion(t *testing.T) {
	data := EncodeEntry(sampleEntry())
	mut := append([]byte(nil), data[:len(data)-checksumSize]...)
	binary.LittleEndian.PutUint16(mut[4:6], FormatVersion+1)
	sum := sha256.Sum256(mut)
	mut = append(mut, sum[:]...)
	_, err := DecodeEntry(mut)
	if !errors.Is(err, ErrVersion) {
		t.Fatalf("err = %v, want ErrVersion", err)
	}
}

// Kind confusion: a manifest must not decode as an entry or snapshot.
func TestKindConfusionRejected(t *testing.T) {
	man := EncodeManifest()
	if _, err := DecodeEntry(man); err == nil {
		t.Fatal("manifest decoded as entry")
	}
	if _, err := DecodeSnapshot(man); err == nil {
		t.Fatal("manifest decoded as snapshot")
	}
}

// A hostile element count larger than the payload could hold must be
// rejected without attempting the allocation.
func TestHostileCountRejected(t *testing.T) {
	var w wbuf
	w.str("k")
	w.str("greedy")
	w.i64(2)
	w.f64(1)
	w.u32(0xffffffff) // transfers "count"
	data := encodeContainer(kindEntry, w.b)
	if _, err := DecodeEntry(data); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}
