package release

import (
	"encoding/json"

	"repro/internal/durable"
)

// ManifestName is the append-only release-lifecycle log inside a store's
// data directory. Each line is one JSON manifestRecord; the file is only
// ever appended to, and every append is fsynced before the corresponding
// in-memory state transition becomes visible, so the manifest is always
// at least as new as what the store has promised callers.
//
// Recovery folds the log per release ID, last event winning:
//
//	submitted              → the build was accepted but never finished:
//	                         the process crashed mid-build; re-fail it.
//	ready                  → load the referenced snapshot file and
//	                         re-register it (corrupt files re-fail the
//	                         release with the decode error instead).
//	failed                 → restore the terminal failure as recorded.
//	rejected               → the submission was logged but then refused
//	                         before activation (queue full, store
//	                         closing): Submit returned an error and the
//	                         release was never visible, so replay drops
//	                         the ID entirely.
//
// A torn final line (crash mid-append) was never acknowledged and is
// truncated away on open (durable.OpenLog); the release it described is
// governed by the previous state of its ID.
const ManifestName = "manifest.log"

// Manifest lifecycle events.
const (
	eventSubmitted = "submitted"
	eventReady     = "ready"
	eventFailed    = "failed"
	eventRejected  = "rejected"
)

// manifestRecord is one line of the manifest. Spec and Rows accompany
// submitted events; File and Meta accompany ready events (Meta is the
// full release metadata, so recovery restores timestamps, EC counts, and
// build durations exactly); Error accompanies failed events.
type manifestRecord struct {
	durable.Entry
	Version uint64          `json:"version"`
	Spec    json.RawMessage `json:"spec,omitempty"`
	Rows    int             `json:"rows,omitempty"`
	File    string          `json:"file,omitempty"`
	Meta    json.RawMessage `json:"meta,omitempty"`
	Error   string          `json:"error,omitempty"`
}
