package release

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/durable"
)

// RecoveryStats summarizes what Open reconstructed from a data
// directory.
type RecoveryStats struct {
	// Ready counts releases whose snapshot was loaded from disk and
	// re-registered queryable — served again with zero re-anonymization.
	Ready int
	// Failed counts releases restored in their recorded terminal failed
	// state.
	Failed int
	// Interrupted counts releases that were mid-build when the process
	// died (a submitted record with no terminal record); they are
	// re-registered as failed, never left hung.
	Interrupted int
	// Corrupt counts ready records whose snapshot file was missing,
	// truncated, or failed its checksum; they are re-registered as failed
	// with the decode error and skipped from serving.
	Corrupt int
	// SkippedLines counts malformed manifest lines dropped during replay
	// (e.g. a torn tail from a crash mid-append).
	SkippedLines int
}

// Open starts a durable store over dir (created if absent): the manifest
// is replayed so every release the store ever promised is restored —
// ready ones queryable straight from their snapshot files, failed and
// crash-interrupted ones in a terminal failed state — and all subsequent
// builds persist their snapshot before flipping to ready. Corrupt
// snapshot files are skipped from serving with a logged reason and
// surface as failed releases. workers is as in NewStore.
func Open(dir string, workers int) (*Store, error) {
	return OpenNode(dir, workers, "")
}

// OpenNode is Open with a cluster node identity (see NewStoreNode):
// recovered releases keep the IDs recorded in the manifest — including
// replicas installed under another node's prefix — and newly minted IDs
// carry this node's prefix, so a node restarted against its own data
// directory rejoins the cluster without colliding with its peers.
func OpenNode(dir string, workers int, node string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("release: creating data dir: %w", err)
	}
	unlock, err := lockDataDir(dir)
	if err != nil {
		return nil, err
	}
	man, records, skipped, err := durable.OpenLog[manifestRecord](filepath.Join(dir, ManifestName))
	if err != nil {
		unlock()
		return nil, err
	}
	s, err := NewStoreNode(workers, node)
	if err != nil {
		man.Close()
		unlock()
		return nil, err
	}
	s.dir = dir
	s.man = man
	s.unlock = unlock
	s.recovered.SkippedLines = skipped
	if skipped > 0 {
		slog.Warn("skipped malformed manifest lines", "component", "release", "dir", dir, "skipped", skipped)
	}
	// Snapshots no ready record names (a crash between a snapshot's
	// rename and its ready append, or mid-write) are swept; referenced
	// but corrupt ones stay for forensics — their release is addressable
	// (failed) and names them in its error.
	durable.Sweep(dir, ".snap", s.replay(records))
	return s, nil
}

// replay folds the manifest into store records and returns the snapshot
// files its ready records name. It runs before the store is shared, so
// it can write state without the usual locking discipline.
func (s *Store) replay(records []manifestRecord) map[string]bool {
	// Last event per release wins; submitted records are kept alongside so
	// an interrupted build can be reconstructed with its spec and times.
	type state struct {
		submitted *manifestRecord
		last      *manifestRecord
	}
	byID := make(map[string]*state)
	var order []string
	live := make(map[string]bool)
	for i := range records {
		rec := &records[i]
		st := byID[rec.ID]
		if st == nil {
			st = &state{}
			byID[rec.ID] = st
			order = append(order, rec.ID)
		}
		switch rec.Event {
		case eventSubmitted:
			st.submitted = rec
		case eventReady:
			live[rec.File] = true
		}
		st.last = rec
		if rec.Version > s.version {
			s.version = rec.Version
		}
	}
	sort.Slice(order, func(i, j int) bool {
		return byID[order[i]].last.Version < byID[order[j]].last.Version
	})
	for _, id := range order {
		st := byID[id]
		switch st.last.Event {
		case eventRejected:
			// Submit returned an error for this ID; it was never visible.
		case eventReady:
			s.recoverReady(st.submitted, st.last)
		case eventFailed:
			s.installRecovered(recoveredMeta(st.submitted, st.last), nil)
			s.recovered.Failed++
		case eventSubmitted:
			rec := st.last
			meta := recoveredMeta(rec, nil)
			meta.Status = StatusFailed
			meta.Error = "build interrupted by restart: the process died mid-build"
			s.installRecovered(meta, nil)
			s.recovered.Interrupted++
			slog.Warn("release was mid-build at crash time; re-failed", "component", "release", "dir", s.dir, "release_id", rec.ID)
		}
	}
	return live
}

// recoverReady loads one ready record's snapshot file; decode failures
// demote the release to failed with the reason, logged. submitted (may
// be nil for registered snapshots) backfills metadata when the ready
// record's Meta no longer unmarshals.
func (s *Store) recoverReady(submitted, rec *manifestRecord) {
	meta := recoveredMeta(submitted, rec)
	fail := func(err error) {
		meta.Status = StatusFailed
		meta.Persisted = false // the recorded Meta says true; the disk disagrees
		meta.Error = fmt.Sprintf("snapshot unrecoverable: %v", err)
		s.installRecovered(meta, nil)
		s.recovered.Corrupt++
		slog.Warn("skipping unrecoverable release", "component", "release", "dir", s.dir, "release_id", rec.ID, "err", err)
	}
	data, err := durable.ReadFile(s.dir, rec.File)
	if err != nil {
		fail(err)
		return
	}
	decodeStart := time.Now()
	snap, spec, err := DecodeSnapshot(data)
	s.stages.Observe("store.snapshot_decode", time.Since(decodeStart))
	if err != nil {
		fail(err)
		return
	}
	if meta.Spec.Method == "" && spec.Method != "" {
		meta.Spec = spec
	}
	// When the ready record's Meta failed to unmarshal (e.g. a spec from
	// a method this binary no longer registers), the fallback metadata
	// lacks the build-derived fields; the snapshot itself can supply
	// them. No-ops when the recorded Meta decoded intact.
	if meta.Rows == 0 {
		meta.Rows = snap.Rows
	}
	if meta.NumECs == 0 {
		meta.NumECs = snap.NumECs()
	}
	if meta.AIL == 0 {
		meta.AIL = snap.AIL
	}
	if meta.ReadyAt.IsZero() {
		meta.ReadyAt = rec.Time
	}
	meta.Status = StatusReady
	meta.Persisted = true
	s.installRecovered(meta, snap)
	s.recovered.Ready++
}

// recoveredMeta rebuilds a release's metadata from its manifest records:
// the full Meta JSON of a ready record when present, otherwise the
// submitted/failed fields.
func recoveredMeta(submitted, last *manifestRecord) Meta {
	if last != nil && len(last.Meta) > 0 {
		var meta Meta
		if err := json.Unmarshal(last.Meta, &meta); err == nil && meta.ID == last.ID {
			return meta
		}
	}
	rec := last
	if submitted != nil {
		rec = submitted
	}
	meta := Meta{ID: rec.ID, Version: rec.Version, Rows: rec.Rows, CreatedAt: rec.Time}
	if len(rec.Spec) > 0 {
		// A spec that no longer decodes (e.g. a method unregistered since)
		// costs only the metadata echo, not the recovery.
		_ = json.Unmarshal(rec.Spec, &meta.Spec)
	}
	if last != nil && last.Event == eventFailed {
		meta.Status = StatusFailed
		meta.Error = last.Error
	}
	return meta
}

// installRecovered places a recovered release into the catalog. Only
// called from replay, before the store is shared.
func (s *Store) installRecovered(meta Meta, snap *Snapshot) {
	s.byID[meta.ID] = &record{meta: meta, snap: snap}
}

// snapshotFileName is the on-disk name of a release's snapshot.
func snapshotFileName(id string) string { return id + ".snap" }

// persistSnapshot encodes and atomically installs a release's snapshot
// file (durable.WriteFile).
func (s *Store) persistSnapshot(id string, snap *Snapshot, spec Spec) (string, error) {
	encodeStart := time.Now()
	data, err := EncodeSnapshot(snap, spec)
	s.stages.Observe("store.snapshot_encode", time.Since(encodeStart))
	if err != nil {
		return "", err
	}
	writeStart := time.Now()
	defer func() { s.stages.Observe("store.snapshot_write", time.Since(writeStart)) }()
	name := snapshotFileName(id)
	if err := durable.WriteFile(s.dir, name, data); err != nil {
		return "", err
	}
	return name, nil
}

// Durable reports whether the store persists releases to disk.
func (s *Store) Durable() bool { return s.man != nil }

// Dir returns the data directory of a durable store ("" otherwise).
func (s *Store) Dir() string { return s.dir }

// Recovery returns what Open reconstructed; zero for memory-only stores
// and for durable stores opened on a fresh directory.
func (s *Store) Recovery() RecoveryStats { return s.recovered }

// DiskSize walks the data directory and returns the total bytes it
// holds (snapshots plus manifest); 0 for memory-only stores.
func (s *Store) DiskSize() int64 {
	if s.dir == "" {
		return 0
	}
	var total int64
	_ = filepath.WalkDir(s.dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if info, err := d.Info(); err == nil {
			total += info.Size()
		}
		return nil
	})
	return total
}

// appendSubmitted records an accepted submission. Called under s.mu, so
// the manifest line is durable before Submit returns the release ID.
func (s *Store) appendSubmitted(meta Meta) error {
	specJSON, err := json.Marshal(meta.Spec)
	if err != nil {
		return err
	}
	return s.man.Append(&manifestRecord{
		Entry:   durable.Entry{Event: eventSubmitted, ID: meta.ID},
		Version: meta.Version,
		Spec:    specJSON,
		Rows:    meta.Rows,
	})
}

// finishDurable persists a completed build: the snapshot file first,
// then the fsynced manifest record, and only then may the caller flip
// the in-memory status to ready. A persistence failure converts the
// build into a terminal failure — on a durable store, ready means
// on disk.
func (s *Store) finishDurable(meta *Meta, snap *Snapshot) error {
	name, err := s.persistSnapshot(meta.ID, snap, meta.Spec)
	if err != nil {
		return fmt.Errorf("persisting snapshot: %w", err)
	}
	meta.Persisted = true
	metaJSON, err := json.Marshal(*meta)
	if err != nil {
		return fmt.Errorf("persisting snapshot: %w", err)
	}
	if err := s.man.Append(&manifestRecord{
		Entry:   durable.Entry{Event: eventReady, ID: meta.ID},
		Version: meta.Version,
		File:    name,
		Meta:    metaJSON,
	}); err != nil {
		// Without its ready record the file is unreachable by recovery;
		// reclaim it rather than leaving an orphan in the data dir.
		os.Remove(filepath.Join(s.dir, name))
		meta.Persisted = false
		return fmt.Errorf("persisting snapshot: %w", err)
	}
	return nil
}

// appendTerminal best-effort records a terminal outcome (failed, or
// rejected-before-activation); the in-memory state is authoritative for
// the current process either way.
func (s *Store) appendTerminal(event string, meta Meta) {
	if err := s.man.Append(&manifestRecord{
		Entry:   durable.Entry{Event: event, ID: meta.ID},
		Version: meta.Version,
		Error:   meta.Error,
	}); err != nil && !errors.Is(err, durable.ErrClosed) {
		slog.Error("recording terminal event", "component", "release", "event", event, "release_id", meta.ID, "err", err)
	}
}
