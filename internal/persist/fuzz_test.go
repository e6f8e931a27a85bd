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
