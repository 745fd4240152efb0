package release

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/query"
)

// fullDomainQuery selects everything: the cheapest query guaranteed valid
// against any schema with m SA values.
func fullDomainQuery(m int) query.Query { return query.Query{SALo: 0, SAHi: m - 1} }

// FuzzSnapshotRoundTrip hammers the codec with arbitrary bytes. The
// invariants under fuzz:
//
//  1. DecodeSnapshot never panics, whatever the input (truncated,
//     bit-flipped, adversarial section lengths, hostile JSON);
//  2. every rejection is typed — it wraps ErrCorruptSnapshot or
//     ErrSnapshotVersion, so recovery can always classify it;
//  3. anything that decodes re-encodes canonically: encode(decode(x))
//     decodes again, and a second encode is byte-identical (the fixpoint
//     the golden files and the durable store rely on);
//  4. a decoded snapshot is estimator-safe: the full-domain query runs
//     without panicking.
//
// The corpus seeds with the golden fixtures (current format under
// testdata/, frozen version-2 files under testdata/v2/, the frozen
// pre-canonical-order perturb file under testdata/v3/) plus targeted
// damage, so the mutator starts from deep inside the format instead of
// random noise. The binary-section seeds are resealed with a valid CRC —
// the mutator is unlikely to discover the checksum on its own, and the
// interesting code is behind it.
func FuzzSnapshotRoundTrip(f *testing.F) {
	for _, dir := range []string{"testdata", filepath.Join("testdata", "v2"), filepath.Join("testdata", "v3")} {
		entries, err := os.ReadDir(dir)
		if err != nil {
			f.Fatal(err)
		}
		for _, e := range entries {
			if filepath.Ext(e.Name()) != ".snap" {
				continue
			}
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
			// Seed structured damage: truncations at section boundaries and a
			// flipped payload byte, the shapes a torn or bit-rotted file takes.
			f.Add(data[:len(data)/2])
			f.Add(data[:len(data)-4])
			flipped := append([]byte(nil), data...)
			flipped[len(flipped)/2] ^= 0x10
			f.Add(flipped)
			bigLen := append([]byte(nil), data...)
			binary.BigEndian.PutUint32(bigLen[len(snapshotMagic)+4:], 0x7fffffff)
			f.Add(bigLen)
			// Version-3 files: damage inside the binary columnar section,
			// resealed so the decoder reaches it past the CRC gate.
			if v, secs := splitSections(f, data); v >= 3 && len(secs) == 4 && len(secs[3]) > 17 {
				for _, mut := range []func([]byte) []byte{
					func(b []byte) []byte { binary.LittleEndian.PutUint32(b[1:], 0x7ffffff0); return b }, // hostile count
					func(b []byte) []byte { binary.LittleEndian.PutUint32(b[1:], 0xffffffff); return b }, // count overflows int32
					func(b []byte) []byte { binary.LittleEndian.PutUint32(b[13:], 3); return b },         // column length mismatch
					func(b []byte) []byte { b[0] |= 0x40; return b },                                     // unknown flag bit
					func(b []byte) []byte { return b[:len(b)-5] },                                        // truncated mid column
					func(b []byte) []byte { return append(b, 0xfe) },                                     // splice leftover
				} {
					mutated := mut(append([]byte(nil), secs[3]...))
					copied := [][]byte{secs[0], secs[1], secs[2], mutated}
					f.Add(joinSections(v, copied))
				}
			}
		}
	}
	f.Add([]byte(snapshotMagic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		snap, spec, err := DecodeSnapshot(data)
		if err != nil {
			if !errors.Is(err, ErrCorruptSnapshot) && !errors.Is(err, ErrSnapshotVersion) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		// Accepted input: re-encode must reach a canonical fixpoint.
		enc1, err := EncodeSnapshot(snap, spec)
		if err != nil {
			t.Fatalf("decoded snapshot does not re-encode: %v", err)
		}
		snap2, spec2, err := DecodeSnapshot(enc1)
		if err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
		enc2, err := EncodeSnapshot(snap2, spec2)
		if err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("re-encode is not a fixpoint: %d vs %d bytes", len(enc1), len(enc2))
		}
		// Estimator safety: the broadest valid query must answer, not panic.
		m := len(snap.Schema.SA.Values)
		if _, err := snap.Estimate(fullDomainQuery(m)); err != nil {
			t.Fatalf("full-domain query errored on a decoded snapshot: %v", err)
		}
	})
}
