package cluster

import (
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/durable"
)

// Snapshot-replication wire envelope (version 1): the body of
// POST /v1/internal/snapshot and the response of
// GET /v1/internal/snapshot/{id}. It frames a release's RPROSNAP
// snapshot bytes with the identity the receiving store must install them
// under, so replication is a verbatim byte copy — the gateway relays the
// envelope it fetched without re-encoding, and every replica decodes the
// exact bytes the owner persisted. It is a durable.Frame with magic
// "RPROREPL" and two sections:
//
//	section 1  header JSON {id, node}
//	section 2  snapshot bytes (opaque here; RPROSNAP with its own
//	           checksum, validated by release.DecodeSnapshot at the
//	           receiver)
//
// Like the snapshot format, the encoding is byte-deterministic for given
// inputs; a golden test pins it and any change is a conscious version
// bump.
var envelopeFrame = durable.Frame{
	Magic:      "RPROREPL",
	MaxSection: 1 << 31,
	Corrupt:    ErrBadEnvelope,
	Sections: func(v uint32) (int, error) {
		if v != EnvelopeVersion {
			return 0, fmt.Errorf("%w: %d (this build reads %d)", ErrEnvelopeVersion, v, EnvelopeVersion)
		}
		return 2, nil
	},
}

// EnvelopeVersion is the current replication envelope version.
const EnvelopeVersion = 1

// Typed envelope errors, mirroring the snapshot codec's.
var (
	// ErrBadEnvelope reports input that is not a well-formed envelope of
	// the supported version.
	ErrBadEnvelope = errors.New("cluster: bad replication envelope")
	// ErrEnvelopeVersion reports an envelope from a future format.
	ErrEnvelopeVersion = errors.New("cluster: unsupported replication envelope version")
)

// envHeader is section 1: where the payload must land (ID) and where it
// was fetched from (Node, informational).
type envHeader struct {
	ID   string `json:"id"`
	Node string `json:"node,omitempty"`
}

func badEnvelope(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadEnvelope, fmt.Sprintf(format, args...))
}

// EncodeEnvelope frames snapshot bytes for replication: the receiving
// store installs them under id; node names the member serving the bytes.
func EncodeEnvelope(id, node string, snapshot []byte) ([]byte, error) {
	if id == "" {
		return nil, fmt.Errorf("cluster: envelope without release ID")
	}
	if len(snapshot) == 0 {
		return nil, fmt.Errorf("cluster: envelope without snapshot bytes")
	}
	header, err := json.Marshal(envHeader{ID: id, Node: node})
	if err != nil {
		return nil, err
	}
	out, err := envelopeFrame.Encode(EnvelopeVersion, header, snapshot)
	if err != nil {
		return nil, fmt.Errorf("cluster: encoding envelope: %w", err)
	}
	return out, nil
}

// DecodeEnvelope parses and checksums a version-1 envelope, returning the
// target release ID, the serving node, and the framed snapshot bytes
// (not copied; they alias data). Malformed input errors with
// ErrBadEnvelope (or ErrEnvelopeVersion) and never panics.
func DecodeEnvelope(data []byte) (id, node string, snapshot []byte, err error) {
	_, sections, err := envelopeFrame.Decode(data)
	if err != nil {
		return "", "", nil, err
	}
	var header envHeader
	if err := json.Unmarshal(sections[0], &header); err != nil {
		return "", "", nil, badEnvelope("header: %v", err)
	}
	if header.ID == "" {
		return "", "", nil, badEnvelope("header names no release ID")
	}
	if len(sections[1]) == 0 {
		return "", "", nil, badEnvelope("empty snapshot section")
	}
	return header.ID, header.Node, sections[1], nil
}
