package persist

import (
	"bytes"
	"testing"
)

// FuzzPersistDecode hammers the container codec with arbitrary bytes.
// Contract under fuzzing:
//
//   - no input may panic any decoder (the store reads files an operator
//     or a crash may have mangled arbitrarily);
//   - an input that decodes successfully must re-encode to the exact
//     same bytes (the encoding is canonical, which is what makes the
//     files content-addressable);
//   - a successful decode must survive a second round-trip.
//
// Wired into scripts/ci.sh's fuzz smoke alongside the existing targets.
func FuzzPersistDecode(f *testing.F) {
	// Seed corpus: one valid container of each kind, shaved and mangled
	// variants, and plain garbage.
	entry := EncodeEntry(sampleEntry())
	manifest := EncodeManifest()
	snapshot := EncodeSnapshot([]byte(`{"entries":[]}`))
	f.Add(entry)
	f.Add(manifest)
	f.Add(snapshot)
	f.Add(entry[:len(entry)/2])
	f.Add(entry[:headerSize])
	f.Add([]byte{})
	f.Add([]byte("SYP1"))
	f.Add([]byte("SYP1\x01\x00\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00"))
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	mut := append([]byte(nil), entry...)
	mut[len(mut)-1] ^= 1
	f.Add(mut)

	f.Fuzz(func(t *testing.T, data []byte) {
		if e, err := DecodeEntry(data); err == nil {
			re := EncodeEntry(e)
			if !bytes.Equal(re, data) {
				t.Fatalf("entry re-encode differs from accepted input")
			}
			if _, err := DecodeEntry(re); err != nil {
				t.Fatalf("entry second decode failed: %v", err)
			}
		}
		if DecodeManifest(data) == nil && !bytes.Equal(EncodeManifest(), data) {
			t.Fatalf("manifest re-encode differs from accepted input")
		}
		if p, err := DecodeSnapshot(data); err == nil {
			if !bytes.Equal(EncodeSnapshot(p), data) {
				t.Fatalf("snapshot re-encode differs from accepted input")
			}
		}
	})
}

// FuzzPackScan feeds arbitrary bytes to the pack walker Open's scan runs
// on every pack. Contract under fuzzing:
//
//   - no input may panic the walker;
//   - it indexes only spans DecodeEntry accepts, under their own keys;
//   - an accepted pack is its spans back to back, start to end; a
//     rejected one indexes nothing (the scan drops the whole pack).
//
// Wired into scripts/ci.sh's fuzz smoke.
func FuzzPackScan(f *testing.F) {
	one := EncodeEntry(sampleEntry())
	other := sampleEntry()
	other.Key = "another-key|sig"
	other.Sub.Transfers = other.Sub.Transfers[:1]
	pack := append(append([]byte(nil), one...), EncodeEntry(other)...)
	f.Add(pack)
	f.Add(one)
	f.Add(pack[:len(one)+headerSize])
	f.Add(pack[:len(pack)-1])
	f.Add(append(append([]byte(nil), pack...), "trailing"...))
	f.Add(append(append([]byte(nil), one...), EncodeSnapshot([]byte("x"))...))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		spans, err := walkPack(data)
		if err != nil {
			if spans != nil {
				t.Fatalf("rejected pack indexed %d spans", len(spans))
			}
			return
		}
		next := int64(0)
		for _, sp := range spans {
			if sp.off != next || sp.n <= 0 || sp.off+sp.n > int64(len(data)) {
				t.Fatalf("span %+v does not follow the previous one (next %d, %d bytes)", sp, next, len(data))
			}
			e, err := DecodeEntry(data[sp.off : sp.off+sp.n])
			if err != nil || e.Key != sp.key {
				t.Fatalf("indexed span %+v: decode %v", sp, err)
			}
			next = sp.off + sp.n
		}
		if next != int64(len(data)) || len(spans) == 0 {
			t.Fatalf("accepted pack of %d bytes covers %d in %d spans", len(data), next, len(spans))
		}
	})
}
