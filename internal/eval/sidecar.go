package eval

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"repro/internal/durable"
)

// Sidecar wire format (version 1). A sidecar file is the durable form of
// one finished evaluation, written next to the release's RPROSNAP
// snapshot as <release-id>.eval. It is a durable.Frame with magic
// "RPROEVAL" and two sections:
//
//	section 1  meta JSON    (job identity, times, params)
//	section 2  verdict JSON (the api.EvalVerdict)
//
// The verdict section's bytes are deterministic for given release
// content and params (fixed struct shapes, no timestamps); the meta
// section carries the job's wall-clock identity and is not. Decoding
// rejects corrupt or truncated input with an error wrapping
// ErrCorruptSidecar — never a panic — and a corrupt sidecar demotes only
// the evaluation to failed: the release it describes stays servable.
const (
	sidecarMagic = "RPROEVAL"
	// SidecarFormatVersion is the current wire format version.
	SidecarFormatVersion = 1
)

// ErrCorruptSidecar reports input that is not a well-formed sidecar of
// the supported version: bad magic or version, truncation, checksum
// mismatch, or malformed JSON.
var ErrCorruptSidecar = errors.New("corrupt evaluation sidecar")

// SidecarMeta is section 1: the job's identity and timing, everything an
// Evaluation needs beyond the verdict itself.
type SidecarMeta struct {
	ReleaseID   string    `json:"release_id"`
	SubmittedAt time.Time `json:"submitted_at"`
	FinishedAt  time.Time `json:"finished_at"`
	EvalMillis  int64     `json:"eval_ms"`
	Params      Params    `json:"params"`
}

var sidecarFrame = durable.Frame{
	Magic:      sidecarMagic,
	MaxSection: 1 << 28,
	Corrupt:    ErrCorruptSidecar,
	Sections: func(v uint32) (int, error) {
		if v != SidecarFormatVersion {
			return 0, corruptSidecar("format version %d (this build reads %d)", v, SidecarFormatVersion)
		}
		return 2, nil
	},
}

func corruptSidecar(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorruptSidecar, fmt.Sprintf(format, args...))
}

// EncodeSidecar serializes a finished evaluation into the current wire
// format.
func EncodeSidecar(meta SidecarMeta, v *Verdict) ([]byte, error) {
	if v == nil {
		return nil, fmt.Errorf("eval: encode of nil verdict")
	}
	metaJSON, err := json.Marshal(meta)
	if err != nil {
		return nil, err
	}
	verdictJSON, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	out, err := sidecarFrame.Encode(SidecarFormatVersion, metaJSON, verdictJSON)
	if err != nil {
		return nil, fmt.Errorf("eval: encoding sidecar: %w", err)
	}
	return out, nil
}

// DecodeSidecar parses and validates a sidecar. Malformed input of any
// shape yields an error wrapping ErrCorruptSidecar; it never panics.
func DecodeSidecar(data []byte) (SidecarMeta, *Verdict, error) {
	var meta SidecarMeta
	_, sections, err := sidecarFrame.Decode(data)
	if err != nil {
		return meta, nil, err
	}
	if err := json.Unmarshal(sections[0], &meta); err != nil {
		return SidecarMeta{}, nil, corruptSidecar("meta: %v", err)
	}
	verdict := new(Verdict)
	if err := json.Unmarshal(sections[1], verdict); err != nil {
		return SidecarMeta{}, nil, corruptSidecar("verdict: %v", err)
	}
	return meta, verdict, nil
}
