package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Frame describes one checksummed binary container format:
//
//	offset 0   magic (len(Magic) bytes)
//	           format version, uint32 big-endian
//	           sections, each uint32 big-endian length + bytes
//	trailer    CRC-32 (IEEE) of every preceding byte, uint32 big-endian
//
// What the sections hold, and how many a version carries, is the
// format's own business; Frame only checks the envelope around them.
type Frame struct {
	Magic string
	// MaxSection caps one section's length, so a corrupt or hostile
	// length cannot make a decoder attempt a huge allocation, and an
	// encoder never writes what its decoder would refuse.
	MaxSection int64
	// Corrupt is the format's sentinel error: every structural decode
	// failure wraps it.
	Corrupt error
	// Sections returns how many sections a frame of the given version
	// holds, or the error for a version this build does not read. It is
	// consulted before the checksum, so a frame from a future format is
	// reported as such even though its layout is unknown.
	Sections func(version uint32) (int, error)
}

// Encode frames sections under version.
func (f Frame) Encode(version uint32, sections ...[]byte) ([]byte, error) {
	n := len(f.Magic) + 4 + 4
	for i, s := range sections {
		if int64(len(s)) >= f.MaxSection {
			return nil, fmt.Errorf("section %d is %d bytes, beyond the format's %d limit", i+1, len(s), f.MaxSection)
		}
		n += 4 + len(s)
	}
	out := make([]byte, 0, n)
	out = append(out, f.Magic...)
	out = binary.BigEndian.AppendUint32(out, version)
	for _, s := range sections {
		out = binary.BigEndian.AppendUint32(out, uint32(len(s)))
		out = append(out, s...)
	}
	return binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(out)), nil
}

// Decode checks data's magic, version, checksum and section lengths and
// returns the version and the sections, which alias data. Malformed
// input of any shape yields an error wrapping Corrupt (or Sections'
// error); it never panics.
func (f Frame) Decode(data []byte) (uint32, [][]byte, error) {
	// Anything shorter than magic, version and trailer cannot even be
	// sliced safely, let alone checked.
	if len(data) < len(f.Magic)+4+4 {
		return 0, nil, f.corrupt("%d bytes is shorter than the fixed header and checksum trailer", len(data))
	}
	if string(data[:len(f.Magic)]) != f.Magic {
		return 0, nil, f.corrupt("bad magic %q", data[:len(f.Magic)])
	}
	version := binary.BigEndian.Uint32(data[len(f.Magic):])
	count, err := f.Sections(version)
	if err != nil {
		return 0, nil, err
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if got, want := crc32.ChecksumIEEE(body), binary.BigEndian.Uint32(trailer); got != want {
		return 0, nil, f.corrupt("checksum mismatch: computed %08x, recorded %08x", got, want)
	}
	rest := body[len(f.Magic)+4:]
	sections := make([][]byte, count)
	for i := range sections {
		if len(rest) < 4 {
			return 0, nil, f.corrupt("truncated before section %d length", i+1)
		}
		n := binary.BigEndian.Uint32(rest)
		rest = rest[4:]
		// Compare in int64: a hostile length near 2^31 must not overflow
		// int on 32-bit platforms and sneak past the bounds check.
		if int64(n) >= f.MaxSection || int64(n) > int64(len(rest)) {
			return 0, nil, f.corrupt("section %d claims %d bytes, %d remain", i+1, n, len(rest))
		}
		sections[i], rest = rest[:n], rest[n:]
	}
	if len(rest) != 0 {
		return 0, nil, f.corrupt("%d trailing bytes after the last section", len(rest))
	}
	return version, sections, nil
}

func (f Frame) corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", f.Corrupt, fmt.Sprintf(format, args...))
}
