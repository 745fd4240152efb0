package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

var (
	errTestCorrupt = errors.New("corrupt frame")
	errTestVersion = errors.New("unsupported version")
)

// testFrame builds a Frame whose sections function reports count(v)
// sections, or errTestVersion when that is 0.
func testFrame(magic string, maxSection int64, count func(v uint32) int) Frame {
	return Frame{
		Magic:      magic,
		MaxSection: maxSection,
		Corrupt:    errTestCorrupt,
		Sections: func(v uint32) (int, error) {
			if n := count(v); n > 0 {
				return n, nil
			}
			return 0, errTestVersion
		},
	}
}

// testFrames mirrors the three formats built on Frame, with their real
// limits: RPROSNAP (versions 1 and 2 carry three sections, 3 carries
// four), RPROEVAL and RPROREPL (version 1, two sections).
var testFrames = []Frame{
	testFrame("RPROSNAP", 1<<31, func(v uint32) int {
		switch v {
		case 1, 2:
			return 3
		case 3:
			return 4
		}
		return 0
	}),
	testFrame("RPROEVAL", 1<<28, func(v uint32) int {
		if v == 1 {
			return 2
		}
		return 0
	}),
	testFrame("RPROREPL", 1<<31, func(v uint32) int {
		if v == 1 {
			return 2
		}
		return 0
	}),
}

// TestFrameChecks pins the decoder's order and its hostile-length check:
// a future version is reported as such before the checksum is looked at,
// and a section length at MaxSection is refused even when the checksum
// is valid, as the encoder refuses to write one.
func TestFrameChecks(t *testing.T) {
	f := testFrame("TESTFRAM", 16, func(v uint32) int {
		if v == 1 {
			return 1
		}
		return 0
	})
	data, err := f.Encode(1, []byte("fifteen bytes.."))
	if err != nil {
		t.Fatal(err)
	}
	if v, sections, err := f.Decode(data); err != nil || v != 1 || string(sections[0]) != "fifteen bytes.." {
		t.Fatalf("decode: %d %q %v", v, sections, err)
	}

	future := bytes.Clone(data)
	binary.BigEndian.PutUint32(future[len(f.Magic):], 2)
	if _, _, err := f.Decode(future); !errors.Is(err, errTestVersion) {
		t.Fatalf("future version: %v", err)
	}

	// A sealed frame whose one section is exactly MaxSection long: only
	// the cap refuses it.
	hostile := binary.BigEndian.AppendUint32([]byte(f.Magic), 1)
	hostile = binary.BigEndian.AppendUint32(hostile, 16)
	hostile = append(hostile, make([]byte, 16)...)
	hostile = binary.BigEndian.AppendUint32(hostile, crc32.ChecksumIEEE(hostile))
	if _, _, err := f.Decode(hostile); !errors.Is(err, errTestCorrupt) {
		t.Fatalf("section at the cap: %v", err)
	}
	if _, err := f.Encode(1, make([]byte, 16)); err == nil {
		t.Fatal("encoded a section the decoder would refuse")
	}
}

// FuzzDecodeFrame, seeded with the golden snapshot, sidecar and
// replication envelope: arbitrary input either fails with the format's
// sentinel or version error, or decodes to sections that re-encode to
// the identical bytes. Panics and unclassified errors are bugs.
func FuzzDecodeFrame(f *testing.F) {
	for _, golden := range []string{
		"../release/testdata/burel.snap",
		"../eval/testdata/sidecar_v1.golden",
		"../cluster/testdata/envelope_v1.golden",
	} {
		data, err := os.ReadFile(filepath.FromSlash(golden))
		if err != nil {
			f.Fatal(err)
		}
		decoded := 0
		for _, fr := range testFrames {
			if _, _, err := fr.Decode(data); err == nil {
				decoded++
			}
		}
		if decoded != 1 {
			f.Fatalf("%s decodes under %d frames, want 1", golden, decoded)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, fr := range testFrames {
			v, sections, err := fr.Decode(data)
			if err != nil {
				if !errors.Is(err, errTestCorrupt) && !errors.Is(err, errTestVersion) {
					t.Fatalf("%s: unclassified error %v", fr.Magic, err)
				}
				continue
			}
			out, err := fr.Encode(v, sections...)
			if err != nil {
				t.Fatalf("%s: re-encode of a clean decode: %v", fr.Magic, err)
			}
			if !bytes.Equal(out, data) {
				t.Fatalf("%s: re-encode differs from the decoded bytes", fr.Magic)
			}
		}
	})
}
