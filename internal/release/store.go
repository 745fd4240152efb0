package release

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"regexp"
	"sort"
	"sync"
	"time"

	"repro/internal/durable"
	"repro/internal/microdata"
	"repro/internal/obs"
)

// Sentinel errors the HTTP layer maps to status codes.
var (
	// ErrNotFound reports an unknown release ID.
	ErrNotFound = errors.New("release not found")
	// ErrNotReady reports a release that exists but is not queryable yet
	// (pending, building, or failed).
	ErrNotReady = errors.New("release not ready")
	// ErrQueueFull reports that the build queue is saturated; the
	// submission was not accepted and the caller should retry later.
	ErrQueueFull = errors.New("build queue full")
	// ErrClosed reports a submission to a store that has shut down.
	ErrClosed = errors.New("store is closed")
)

// Store is a versioned catalog of releases. Submissions are queued to a
// fixed pool of worker goroutines; once a build completes the release's
// snapshot is immutable and served lock-free to any number of concurrent
// readers. Every accepted submission gets a monotonically increasing
// version and an ID derived from it, so releases are totally ordered and
// addressable. A store from NewStore is memory-only; one from Open
// persists every release to a data directory and recovers them on the
// next Open.
type Store struct {
	mu      sync.RWMutex
	byID    map[string]*record
	version uint64
	closed  bool

	// node is this store's cluster identity; when non-empty, every minted
	// release ID carries it as a prefix ("n2" mints "n2-r-000007"), so two
	// nodes' catalogs can merge under one gateway without ID collisions.
	// Set once at construction, read-only after.
	node string

	// dir and man are set only on durable stores (Open): every accepted
	// submission is logged to the manifest before Submit returns, builds
	// write their snapshot file before flipping to ready, and recovery
	// replays the manifest into the catalog. recovered is written once
	// during Open and read-only after.
	dir       string
	man       *durable.Log
	unlock    func() // releases the data dir lock; nil on memory stores
	recovered RecoveryStats
	// ioWG tracks durable I/O started outside the worker pool (Submit's
	// manifest logging, Register's snapshot persist). Entries are added
	// only under mu with closed observed false, and Close waits for it
	// before retiring the manifest and the dir lock — so no snapshot
	// write, removal, or manifest append can land after Close returns.
	ioWG sync.WaitGroup

	// root is canceled by Close; every build context descends from it,
	// so shutdown aborts in-flight anonymization instead of waiting for
	// it to run to completion.
	root   context.Context
	cancel context.CancelFunc

	jobs chan *record
	wg   sync.WaitGroup

	// stages records the store's durable-I/O and build latencies
	// (store.build, store.snapshot_encode, store.snapshot_write,
	// store.snapshot_decode) for the /metrics endpoint.
	stages *obs.LabeledHistograms
}

// record is the store's mutable view of one release. meta is guarded by
// the store mutex; snap is written once by the building worker before the
// status flips to ready and never after. ctx governs the build: it is
// canceled when the submitter's context is canceled or the store closes,
// and done releases its resources once the build is terminal.
type record struct {
	meta  Meta
	snap  *Snapshot
	table *microdata.Table
	ctx   context.Context
	done  func()
}

// DefaultWorkers is the build concurrency used when NewStore is given
// workers ≤ 0.
const DefaultWorkers = 4

// NewStore starts a store with the given build concurrency.
func NewStore(workers int) *Store {
	s, err := NewStoreNode(workers, "")
	if err != nil {
		panic(err) // unreachable: the empty node ID is always valid
	}
	return s
}

// NewStoreNode is NewStore with a cluster node identity: every release ID
// the store mints is prefixed with node ("n2" → "n2-r-000007"), making
// IDs globally unique across a static cluster of distinctly named nodes.
// An empty node keeps the single-node ID format. Node IDs are restricted
// to a filename- and URL-safe alphabet because release IDs embed them in
// snapshot file names and request paths.
func NewStoreNode(workers int, node string) (*Store, error) {
	if err := ValidateNodeID(node); err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = DefaultWorkers
	}
	root, cancel := context.WithCancel(context.Background())
	s := &Store{
		byID:   make(map[string]*record),
		node:   node,
		root:   root,
		cancel: cancel,
		jobs:   make(chan *record, 64),
		stages: obs.NewLabeledHistograms(),
	}
	s.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go s.worker()
	}
	return s, nil
}

// Node returns the store's cluster node identity ("" on single-node
// stores).
func (s *Store) Node() string { return s.node }

// Stages exposes the store's per-stage latency histograms for the
// /metrics renderer.
func (s *Store) Stages() *obs.LabeledHistograms { return s.stages }

// mintID derives a release ID from the just-incremented version counter,
// carrying the node prefix on cluster stores. Callers hold s.mu.
func (s *Store) mintID() string {
	if s.node == "" {
		return fmt.Sprintf("r-%06d", s.version)
	}
	return fmt.Sprintf("%s-r-%06d", s.node, s.version)
}

// idPattern admits release IDs (and, transitively, node IDs) that are
// safe as snapshot file names and URL path segments: alphanumeric first
// byte, then alphanumerics, dots, underscores, and dashes.
var idPattern = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]*$`)

// ValidateNodeID rejects node identities that could not be embedded in
// release IDs. The empty string (single-node operation) is valid.
func ValidateNodeID(node string) error {
	if node == "" {
		return nil
	}
	if len(node) > 32 {
		return fmt.Errorf("release: node ID %q is longer than 32 bytes", node)
	}
	if !idPattern.MatchString(node) {
		return fmt.Errorf("release: node ID %q must match %s", node, idPattern)
	}
	return nil
}

// ValidateReleaseID rejects IDs a store cannot install: empty, oversized,
// or containing bytes unsafe for file names and URLs. Applied to
// caller-supplied IDs (RegisterAs); minted IDs satisfy it by
// construction.
func ValidateReleaseID(id string) error {
	if id == "" {
		return fmt.Errorf("release: empty release ID")
	}
	if len(id) > 128 {
		return fmt.Errorf("release: release ID of %d bytes is longer than 128", len(id))
	}
	if !idPattern.MatchString(id) {
		return fmt.Errorf("release: release ID %q must match %s", id, idPattern)
	}
	return nil
}

// Close stops accepting submissions, cancels in-flight and queued builds,
// and waits for the workers to drain. Canceled builds end failed with the
// context error; queries against ready releases remain valid after Close.
// On a durable store, Close additionally waits for every in-flight
// snapshot write to be flushed and fsyncs the manifest before returning:
// when Close returns, the data directory reflects every state transition
// the store ever reported.
func (s *Store) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.cancel()
	close(s.jobs)
	// Workers finish their terminal transitions — including snapshot file
	// fsync+rename and the matching manifest append — before exiting, so
	// the manifest can only be retired after the pool has drained; ioWG
	// extends the same guarantee to Submit/Register I/O that runs off the
	// pool.
	s.wg.Wait()
	s.ioWG.Wait()
	if s.man != nil {
		if err := s.man.Close(); err != nil {
			slog.Error("closing manifest", "component", "release", "dir", s.dir, "err", err)
		}
	}
	if s.unlock != nil {
		s.unlock()
	}
}

// Submit validates the job, registers a pending release, and queues its
// build, returning the assigned metadata. The table is not copied; callers
// must not mutate it after submission. Canceling ctx aborts the build (a
// terminal failed state); it does not un-register the release. Callers
// that just want fire-and-forget semantics pass context.Background().
func (s *Store) Submit(ctx context.Context, t *microdata.Table, spec Spec) (Meta, error) {
	if t == nil || t.Len() == 0 {
		return Meta{}, fmt.Errorf("release: empty table")
	}
	if err := spec.Normalize(); err != nil {
		return Meta{}, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return Meta{}, fmt.Errorf("release: %w", ErrClosed)
	}
	// Cheap saturation check before any durable I/O; the send below is
	// the authoritative one.
	if len(s.jobs) == cap(s.jobs) {
		s.mu.Unlock()
		return Meta{}, fmt.Errorf("%w (%d queued)", ErrQueueFull, cap(s.jobs))
	}
	s.version++
	// The build context dies with the submitter's ctx OR the store: the
	// AfterFunc relays root cancellation into the per-build context.
	bctx, bcancel := context.WithCancel(ctx)
	stop := context.AfterFunc(s.root, bcancel)
	rec := &record{
		meta: Meta{
			ID:        s.mintID(),
			Version:   s.version,
			Spec:      spec,
			Status:    StatusPending,
			Rows:      t.Len(),
			CreatedAt: time.Now().UTC(),
		},
		table: t,
		ctx:   bctx,
		done: func() {
			stop()
			bcancel()
		},
	}
	// Registered under mu with closed false: Close will wait for this
	// submission's manifest I/O (including a rejection record) before
	// retiring the manifest, so neither can hit a closed log.
	if s.man != nil {
		s.ioWG.Add(1)
		defer s.ioWG.Done()
	}
	s.mu.Unlock()

	// Log the acceptance before the release becomes visible, off-lock: a
	// crash after Submit returns must leave a manifest record so recovery
	// re-fails the interrupted build instead of forgetting the promised
	// ID, but the fsync must not stall readers holding the catalog lock.
	// Nothing is installed yet, so a failed append only burns the version.
	if s.man != nil {
		if err := s.appendSubmitted(rec.meta); err != nil {
			rec.done()
			// Unreachable while ioWG holds the manifest open, but a
			// closed-manifest race maps to the store's own sentinel.
			if errors.Is(err, durable.ErrClosed) {
				return Meta{}, fmt.Errorf("release: %w", ErrClosed)
			}
			return Meta{}, fmt.Errorf("release: recording submission: %w", err)
		}
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		rec.done()
		s.rejectLogged(rec.meta, ErrClosed.Error())
		return Meta{}, fmt.Errorf("release: %w", ErrClosed)
	}
	// Enqueue while holding the mutex. Close sets the closed flag under
	// this lock before it closes the channel, and the closed check above
	// ran under the same lock, so no send can follow the close; the
	// default arm keeps the send non-blocking. A full queue rejects the
	// submission — building inline would both escape the pool's
	// concurrency bound and turn the async contract blocking.
	select {
	case s.jobs <- rec:
	default:
		s.mu.Unlock()
		rec.done()
		s.rejectLogged(rec.meta, ErrQueueFull.Error())
		return Meta{}, fmt.Errorf("%w (%d queued)", ErrQueueFull, cap(s.jobs))
	}
	s.byID[rec.meta.ID] = rec
	meta := rec.meta
	s.mu.Unlock()
	return meta, nil
}

// rejectLogged closes out a submission whose manifest record was already
// written but which was refused before activation (store closed or queue
// full in the re-check window): a best-effort rejected record makes
// replay drop the ID entirely — Submit returned an error, so the release
// must not materialize after a restart either.
func (s *Store) rejectLogged(meta Meta, reason string) {
	if s.man == nil {
		return
	}
	meta.Error = reason
	s.appendTerminal(eventRejected, meta)
}

// Register installs an externally built snapshot as an immediately ready
// release, bypassing the build queue: the restore path for snapshots
// materialized out of process, and the way benchmarks and tests plant
// synthetic releases of arbitrary size. The snapshot is retained (not
// copied) and must not be mutated after registration. The spec is
// recorded as metadata only; it is not validated against the snapshot.
func (s *Store) Register(snap *Snapshot, spec Spec) (Meta, error) {
	meta, _, err := s.register("", snap, spec)
	return meta, err
}

// RegisterAs installs an externally built snapshot under a caller-chosen
// ID — the landing path for cluster snapshot replication, where the ID
// was minted by the release's owner node and must be preserved so every
// replica serves the release under the same address. Created reports
// whether the call installed the snapshot; when the ID already exists in
// a terminal state the existing metadata is returned with created false
// and the snapshot is dropped (replication retries are idempotent), and
// an ID mid-install by a concurrent caller errors with ErrNotReady
// (retriable — the competing install's outcome is not yet known).
// Otherwise the semantics match Register.
func (s *Store) RegisterAs(id string, snap *Snapshot, spec Spec) (meta Meta, created bool, err error) {
	if err := ValidateReleaseID(id); err != nil {
		return Meta{}, false, err
	}
	return s.register(id, snap, spec)
}

// checkRegistrable rejects snapshots whose payload is inconsistent with
// their kind: such a payload would not fail at registration but as a nil
// dereference on a query worker goroutine, taking down the whole process.
func checkRegistrable(snap *Snapshot) error {
	if snap == nil || snap.Schema == nil {
		return fmt.Errorf("release: nil snapshot")
	}
	switch snap.Kind {
	case KindGeneralized:
		if snap.Index == nil {
			return fmt.Errorf("release: generalized snapshot without index")
		}
	case KindAnatomy:
		if snap.Baseline == nil && snap.LDiverse == nil {
			return fmt.Errorf("release: anatomy snapshot without publication")
		}
	case KindPerturbed:
		if snap.Tuples == nil || snap.Scheme == nil {
			return fmt.Errorf("release: perturbed snapshot without tuples or scheme")
		}
	default:
		return fmt.Errorf("release: unknown kind %q", snap.Kind)
	}
	return nil
}

// register installs a pre-built snapshot, minting an ID when id is empty
// and reusing the caller's otherwise. A caller-supplied ID that already
// exists returns the existing metadata (created false) without touching
// the catalog.
func (s *Store) register(id string, snap *Snapshot, spec Spec) (Meta, bool, error) {
	if err := checkRegistrable(snap); err != nil {
		return Meta{}, false, err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return Meta{}, false, fmt.Errorf("release: %w", ErrClosed)
	}
	if id != "" {
		if rec, ok := s.byID[id]; ok {
			meta := rec.meta
			s.mu.Unlock()
			// A terminal record is an idempotent success. A pending one is
			// a competing install (or an in-flight build) whose outcome is
			// unknown — reporting success would let a replicating gateway
			// count a copy that may never land; ErrNotReady tells it to
			// retry instead.
			if meta.Status == StatusPending || meta.Status == StatusBuilding {
				return Meta{}, false, fmt.Errorf("%w: %s is mid-install", ErrNotReady, id)
			}
			return meta, false, nil
		}
	}
	s.version++
	now := time.Now().UTC()
	if id == "" {
		id = s.mintID()
	}
	rec := &record{
		meta: Meta{
			ID:        id,
			Version:   s.version,
			Spec:      spec,
			Status:    StatusReady,
			Rows:      snap.Rows,
			NumECs:    snap.NumECs(),
			AIL:       snap.AIL,
			CreatedAt: now,
			ReadyAt:   now,
		},
		snap: snap,
	}
	if s.man == nil {
		s.byID[rec.meta.ID] = rec
		meta := rec.meta
		s.mu.Unlock()
		return meta, true, nil
	}
	// Durable store: the registered snapshot is persisted like a built one
	// (the pre-built-corpus shipping path), off-lock so the encode and
	// fsync do not stall readers. The ID is reserved in the catalog as a
	// pending record first, so a concurrent RegisterAs of the same ID (two
	// gateways replicating at once) observes it and backs off instead of
	// writing the file twice; a persist failure removes the reservation.
	// The ioWG entry (added under mu with closed false) makes Close wait
	// for this write, so it cannot land in a directory another process has
	// taken over.
	reservation := &record{meta: rec.meta}
	reservation.meta.Status = StatusPending
	reservation.meta.ReadyAt = time.Time{}
	s.byID[rec.meta.ID] = reservation
	s.ioWG.Add(1)
	defer s.ioWG.Done()
	s.mu.Unlock()
	err := s.finishDurable(&rec.meta, snap)
	s.mu.Lock()
	if err != nil {
		if s.byID[rec.meta.ID] == reservation {
			delete(s.byID, rec.meta.ID)
		}
		s.mu.Unlock()
		return Meta{}, false, fmt.Errorf("release: %w", err)
	}
	// Deliberately no closed re-check here, unlike Submit: if Close raced
	// in, the ready record is already durable (finishDurable completes
	// before Close can retire the manifest, thanks to ioWG), so the next
	// Open will serve this release — installing it and returning success
	// is the truthful outcome, and queries against ready releases stay
	// valid after Close.
	s.byID[rec.meta.ID] = rec
	meta := rec.meta
	s.mu.Unlock()
	return meta, true, nil
}

func (s *Store) worker() {
	defer s.wg.Done()
	for rec := range s.jobs {
		s.runBuild(rec)
	}
}

// runBuild transitions one record pending → building → ready/failed.
func (s *Store) runBuild(rec *record) {
	defer rec.done()
	s.mu.Lock()
	if rec.meta.Status != StatusPending {
		s.mu.Unlock()
		return
	}
	rec.meta.Status = StatusBuilding
	spec := rec.meta.Spec
	t := rec.table
	s.mu.Unlock()

	start := time.Now()
	snap, err := build(rec.ctx, t, spec)
	elapsed := time.Since(start)
	s.stages.Observe("store.build", elapsed)

	// The finished metadata is staged off-lock: on a durable store the
	// snapshot file and its manifest record must be on disk before the
	// status flip makes the release queryable, and that I/O must not
	// stall readers holding the catalog lock. rec.meta is safe to copy
	// here — only this worker mutates it while the status is building.
	s.mu.Lock()
	meta := rec.meta
	s.mu.Unlock()
	meta.BuildMillis = elapsed.Milliseconds()
	if err == nil {
		meta.Status = StatusReady
		meta.ReadyAt = time.Now().UTC()
		meta.NumECs = snap.NumECs()
		meta.AIL = snap.AIL
		if s.man != nil {
			err = s.finishDurable(&meta, snap)
		}
	}
	if err != nil {
		meta.Status = StatusFailed
		meta.Persisted = false
		meta.ReadyAt = time.Time{}
		meta.Error = err.Error()
		snap = nil
		if s.man != nil {
			s.appendTerminal(eventFailed, meta)
		}
	}

	s.mu.Lock()
	rec.meta = meta
	rec.snap = snap
	rec.table = nil // the snapshot owns what it needs; free the rest
	s.mu.Unlock()
}

// Get returns a release's metadata snapshot.
func (s *Store) Get(id string) (Meta, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	rec, ok := s.byID[id]
	if !ok {
		return Meta{}, false
	}
	return rec.meta, true
}

// Snapshot returns the queryable payload of a ready release. The error
// wraps ErrNotFound for unknown IDs and ErrNotReady for releases that are
// pending, building, or failed.
func (s *Store) Snapshot(id string) (*Snapshot, error) {
	s.mu.RLock()
	rec, ok := s.byID[id]
	if !ok {
		s.mu.RUnlock()
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	status := rec.meta.Status
	snap := rec.snap
	s.mu.RUnlock()
	if status != StatusReady {
		return nil, fmt.Errorf("%w: release %s is %s", ErrNotReady, id, status)
	}
	return snap, nil
}

// List returns metadata for every release, newest version first.
func (s *Store) List() []Meta {
	s.mu.RLock()
	out := make([]Meta, 0, len(s.byID))
	for _, rec := range s.byID {
		out = append(out, rec.meta)
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Version > out[j].Version })
	return out
}

// WaitReady blocks until the release leaves the pending/building states or
// the timeout elapses, returning the final metadata. Intended for tests
// and CLIs; servers should poll Get instead.
func (s *Store) WaitReady(id string, timeout time.Duration) (Meta, error) {
	deadline := time.Now().Add(timeout)
	for {
		m, ok := s.Get(id)
		if !ok {
			return Meta{}, fmt.Errorf("release: no release %q", id)
		}
		if m.Status == StatusReady || m.Status == StatusFailed {
			return m, nil
		}
		if time.Now().After(deadline) {
			return m, fmt.Errorf("release: %s still %s after %v", id, m.Status, timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
