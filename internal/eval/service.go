package eval

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/durable"
	"repro/internal/microdata"
	"repro/internal/obs"
	"repro/internal/release"
)

// Status is an evaluation job's lifecycle state.
type Status string

const (
	StatusPending Status = "pending"
	StatusRunning Status = "running"
	StatusDone    Status = "done"
	StatusFailed  Status = "failed"
)

// Sentinel errors Submit returns.
var (
	// ErrClosed reports a submission against a closed service.
	ErrClosed = errors.New("eval: service is closed")
	// ErrQueueFull reports a saturated job queue; retry later.
	ErrQueueFull = errors.New("eval: job queue is full")
	// ErrRunning reports that the release already has an evaluation in
	// flight; wait for it instead of racing it.
	ErrRunning = errors.New("eval: an evaluation for this release is already in flight")
)

// Meta is the externally visible state of one release's evaluation.
// Copies are safe to hand out; the service never mutates a Meta it has
// returned.
type Meta struct {
	ReleaseID string
	Status    Status
	// Error carries the failure message when Status is failed.
	Error       string
	SubmittedAt time.Time
	FinishedAt  time.Time
	// EvalMillis is the finished job's wall-clock duration.
	EvalMillis int64
	// Persisted reports the verdict sidecar is durably on disk.
	Persisted bool
	Params    Params
	// Verdict is set once Status is done.
	Verdict *Verdict
}

// RecoveryStats summarizes what NewService reconstructed from the data
// directory.
type RecoveryStats struct {
	// Done counts evaluations restored verdict-and-all from their sidecar.
	Done int
	// Failed counts evaluations restored in their recorded failed state.
	Failed int
	// Interrupted counts evaluations that were in flight at crash time; they
	// are re-failed, never left hung.
	Interrupted int
	// Corrupt counts done records whose sidecar was missing, truncated, or
	// failed its checksum: the evaluation is re-failed with the decode
	// error, the release itself stays servable.
	Corrupt int
	// SkippedLines counts malformed eval-log lines dropped during replay.
	SkippedLines int
}

// Service runs evaluation jobs asynchronously against a release store,
// mirroring the store's own build pattern: a bounded worker pool,
// context-threaded cancellation rooted in Close, a manifest-logged
// lifecycle on durable stores, and crash-interrupted jobs re-failed on
// the next start. At most one evaluation per release is in flight;
// finished ones may be re-submitted (latest wins).
type Service struct {
	store *release.Store

	mu     sync.Mutex
	byID   map[string]*job
	closed bool

	man       *durable.Log // nil when the store is memory-only
	dir       string
	recovered RecoveryStats

	root   context.Context
	cancel context.CancelFunc
	jobs   chan *job
	wg     sync.WaitGroup

	stages *obs.LabeledHistograms
}

// job is the service's mutable view of one evaluation. meta is guarded
// by the service mutex; the input refs are dropped once the job is
// terminal so a queued table does not outlive its use.
type job struct {
	meta  Meta
	table *microdata.Table
	snap  *release.Snapshot
	spec  release.Spec
	ctx   context.Context
	done  func()
}

// DefaultWorkers is the evaluation concurrency used when NewService is
// given workers ≤ 0. Evaluations are heavy (attacks are superlinear in
// groups); one at a time is the safe default next to a serving store.
const DefaultWorkers = 1

// NewService starts the evaluation service over a store. On a durable
// store it replays the eval log in the store's data directory: finished
// verdicts are restored from their sidecars with zero re-evaluation,
// in-flight jobs are re-failed, and corrupt sidecars demote only the
// evaluation — never the release. Call Close to stop the workers.
func NewService(store *release.Store, workers int) (*Service, error) {
	if store == nil {
		return nil, fmt.Errorf("eval: nil store")
	}
	if workers <= 0 {
		workers = DefaultWorkers
	}
	root, cancel := context.WithCancel(context.Background())
	s := &Service{
		store:  store,
		byID:   make(map[string]*job),
		dir:    store.Dir(),
		root:   root,
		cancel: cancel,
		jobs:   make(chan *job, 16),
		stages: obs.NewLabeledHistograms(),
	}
	if store.Durable() {
		man, records, skipped, err := durable.OpenLog[evalManifestRecord](filepath.Join(s.dir, EvalLogName))
		if err != nil {
			cancel()
			return nil, err
		}
		s.man = man
		s.recovered.SkippedLines = skipped
		if skipped > 0 {
			slog.Warn("skipped malformed eval-log lines", "component", "eval", "dir", s.dir, "skipped", skipped)
		}
		// Sidecars no done record names (a crash between rename and log
		// append, or mid-write) are swept; referenced but corrupt ones
		// stay for forensics, like corrupt snapshots.
		durable.Sweep(s.dir, ".eval", s.replay(records))
	}
	s.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go s.worker()
	}
	return s, nil
}

// Stages returns the service's stage-latency histograms (eval.run,
// eval.sidecar_write, eval.sidecar_decode) for /metrics.
func (s *Service) Stages() *obs.LabeledHistograms { return s.stages }

// Recovery returns what NewService reconstructed; zero on memory-only
// stores and fresh directories.
func (s *Service) Recovery() RecoveryStats { return s.recovered }

// Close stops the workers, cancelling any in-flight evaluation, and
// retires the eval log. Queued jobs are failed.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	close(s.jobs)
	s.mu.Unlock()
	s.cancel()
	s.wg.Wait()
	if s.man != nil {
		if err := s.man.Close(); err != nil {
			slog.Error("closing eval log", "component", "eval", "err", err)
		}
	}
}

// Submit queues one evaluation of release id against the re-uploaded
// original microdata tab. The release must be ready; the caller resolves
// that first (the server's snapshot resolution already maps not-found /
// not-ready / failed). Returns the job's pending Meta.
func (s *Service) Submit(ctx context.Context, id string, tab *microdata.Table, p Params) (Meta, error) {
	rmeta, ok := s.store.Get(id)
	if !ok {
		return Meta{}, fmt.Errorf("%w: %q", release.ErrNotFound, id)
	}
	if rmeta.Status != release.StatusReady {
		return Meta{}, fmt.Errorf("%w: release %s is %s", release.ErrNotReady, id, rmeta.Status)
	}
	snap, err := s.store.Snapshot(id)
	if err != nil {
		return Meta{}, err
	}
	if tab == nil {
		return Meta{}, fmt.Errorf("eval: nil table")
	}
	// Normalize now so validation errors surface at submit time and the
	// logged params are the effective ones.
	d := len(snap.Schema.QI)
	if err := p.normalize(d); err != nil {
		return Meta{}, err
	}

	// The job context dies with the submitter's ctx OR the service: the
	// AfterFunc relays root cancellation into it.
	if ctx == nil {
		ctx = context.Background()
	}
	jctx, cancel := context.WithCancel(ctx)
	stop := context.AfterFunc(s.root, cancel)
	done := func() {
		stop()
		cancel()
	}
	rec := &job{
		meta: Meta{
			ReleaseID:   id,
			Status:      StatusPending,
			SubmittedAt: time.Now().UTC(),
			Params:      p,
		},
		table: tab,
		snap:  snap,
		spec:  rmeta.Spec,
		ctx:   jctx,
		done:  done,
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		done()
		return Meta{}, ErrClosed
	}
	if prev, exists := s.byID[id]; exists &&
		(prev.meta.Status == StatusPending || prev.meta.Status == StatusRunning) {
		done()
		return Meta{}, fmt.Errorf("%w: %s", ErrRunning, id)
	}
	if s.man != nil {
		if err := s.appendSubmitted(rec.meta); err != nil {
			done()
			return Meta{}, fmt.Errorf("eval: logging submission: %w", err)
		}
	}
	select {
	case s.jobs <- rec:
	default:
		// The submitted record is already durable; pair it with a terminal
		// one so replay never sees this refusal as an interrupted job.
		rec.meta.Status = StatusFailed
		rec.meta.Error = ErrQueueFull.Error()
		s.appendTerminal(rec.meta)
		done()
		return Meta{}, ErrQueueFull
	}
	s.byID[id] = rec
	return rec.meta, nil
}

// Get returns a release's evaluation state.
func (s *Service) Get(id string) (Meta, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.byID[id]
	if !ok {
		return Meta{}, false
	}
	return rec.meta, true
}

// List returns every evaluation's state, for /metrics gauges.
func (s *Service) List() []Meta {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Meta, 0, len(s.byID))
	for _, rec := range s.byID {
		out = append(out, rec.meta)
	}
	return out
}

func (s *Service) worker() {
	defer s.wg.Done()
	for rec := range s.jobs {
		s.runJob(rec)
	}
}

func (s *Service) runJob(rec *job) {
	defer rec.done()
	s.mu.Lock()
	if rec.meta.Status != StatusPending { // failed while queued (queue-full race)
		s.mu.Unlock()
		return
	}
	rec.meta.Status = StatusRunning
	s.mu.Unlock()

	start := time.Now()
	verdict, err := Evaluate(rec.ctx, rec.table, rec.snap, rec.spec, rec.meta.Params)
	elapsed := time.Since(start)
	s.stages.Observe("eval.run", elapsed)

	finished := time.Now().UTC()
	meta := rec.meta
	meta.FinishedAt = finished
	meta.EvalMillis = elapsed.Milliseconds()
	if err == nil && s.man != nil {
		if perr := s.persistVerdict(meta, verdict); perr != nil {
			err = perr
		} else {
			meta.Persisted = true
		}
	}
	if err != nil {
		meta.Status = StatusFailed
		meta.Error = err.Error()
		if s.man != nil {
			s.appendTerminal(meta)
		}
	} else {
		meta.Status = StatusDone
		meta.Verdict = verdict
	}

	s.mu.Lock()
	rec.meta = meta
	rec.table, rec.snap = nil, nil // the inputs are done informing anything
	s.mu.Unlock()
}

// sidecarFileName is the on-disk name of a release's verdict sidecar,
// a sibling of its <id>.snap snapshot.
func sidecarFileName(id string) string { return id + ".eval" }

// persistVerdict installs the sidecar atomically (durable.WriteFile) and
// then logs the done record; only after both may the in-memory status
// flip to done — on a durable store, done means on disk, exactly like
// the release store's ready.
func (s *Service) persistVerdict(meta Meta, v *Verdict) error {
	data, err := EncodeSidecar(SidecarMeta{
		ReleaseID:   meta.ReleaseID,
		SubmittedAt: meta.SubmittedAt,
		FinishedAt:  meta.FinishedAt,
		EvalMillis:  meta.EvalMillis,
		Params:      meta.Params,
	}, v)
	if err != nil {
		return fmt.Errorf("eval: encoding sidecar: %w", err)
	}
	writeStart := time.Now()
	defer func() { s.stages.Observe("eval.sidecar_write", time.Since(writeStart)) }()
	name := sidecarFileName(meta.ReleaseID)
	if err := durable.WriteFile(s.dir, name, data); err != nil {
		return fmt.Errorf("eval: writing sidecar: %w", err)
	}
	if err := s.man.Append(&evalManifestRecord{Entry: durable.Entry{Event: evalEventDone, ID: meta.ReleaseID}, File: name}); err != nil {
		// Without its done record the sidecar is unreachable by recovery;
		// reclaim it rather than leaving an orphan.
		os.Remove(filepath.Join(s.dir, name))
		return fmt.Errorf("eval: logging verdict: %w", err)
	}
	return nil
}

// replay folds the eval log into the catalog and returns the sidecars
// still named: for each release the store still holds, the file of its
// last done record. Runs before the service is shared, so it writes
// state without locking.
func (s *Service) replay(records []evalManifestRecord) map[string]bool {
	type state struct{ submitted, done, last *evalManifestRecord }
	byID := make(map[string]*state)
	var order []string
	for i := range records {
		rec := &records[i]
		st := byID[rec.ID]
		if st == nil {
			st = &state{}
			byID[rec.ID] = st
			order = append(order, rec.ID)
		}
		switch rec.Event {
		case evalEventSubmitted:
			st.submitted = rec
		case evalEventDone:
			st.done = rec
		}
		st.last = rec
	}
	keep := make(map[string]bool)
	for _, id := range order {
		st := byID[id]
		if _, ok := s.store.Get(id); !ok {
			// The release itself is gone from the store's catalog; an
			// evaluation of nothing serves nobody.
			continue
		}
		if st.done != nil {
			keep[st.done.File] = true
		}
		meta := Meta{ReleaseID: id, Status: StatusFailed}
		if st.submitted != nil {
			meta.SubmittedAt = st.submitted.Time
			if len(st.submitted.Params) > 0 {
				_ = json.Unmarshal(st.submitted.Params, &meta.Params)
			}
		}
		switch st.last.Event {
		case evalEventDone:
			s.recoverDone(st.last, meta)
			continue
		case evalEventFailed:
			meta.Error = st.last.Error
			meta.FinishedAt = st.last.Time
			s.recovered.Failed++
		case evalEventSubmitted:
			meta.Error = "evaluation interrupted by restart: the process died mid-job"
			s.recovered.Interrupted++
			slog.Warn("evaluation was in flight at crash time; re-failed", "component", "eval", "dir", s.dir, "release_id", id)
		}
		s.byID[id] = &job{meta: meta}
	}
	return keep
}

// recoverDone loads one done record's sidecar; decode failures demote the
// evaluation to failed with the reason — the release stays servable.
func (s *Service) recoverDone(rec *evalManifestRecord, meta Meta) {
	fail := func(err error) {
		meta.Status = StatusFailed
		meta.Persisted = false
		meta.Error = fmt.Sprintf("verdict sidecar unrecoverable: %v", err)
		meta.FinishedAt = rec.Time
		s.byID[meta.ReleaseID] = &job{meta: meta}
		s.recovered.Corrupt++
		slog.Warn("skipping unrecoverable evaluation", "component", "eval", "dir", s.dir, "release_id", meta.ReleaseID, "err", err)
	}
	data, err := durable.ReadFile(s.dir, rec.File)
	if err != nil {
		fail(err)
		return
	}
	decodeStart := time.Now()
	sm, verdict, err := DecodeSidecar(data)
	s.stages.Observe("eval.sidecar_decode", time.Since(decodeStart))
	if err != nil {
		fail(err)
		return
	}
	if sm.ReleaseID != meta.ReleaseID {
		fail(fmt.Errorf("sidecar names release %q", sm.ReleaseID))
		return
	}
	meta.Status = StatusDone
	meta.SubmittedAt = sm.SubmittedAt
	meta.FinishedAt = sm.FinishedAt
	meta.EvalMillis = sm.EvalMillis
	meta.Params = sm.Params
	meta.Persisted = true
	meta.Verdict = verdict
	s.byID[meta.ReleaseID] = &job{meta: meta}
	s.recovered.Done++
}

func (s *Service) appendSubmitted(meta Meta) error {
	params, err := json.Marshal(meta.Params)
	if err != nil {
		return err
	}
	return s.man.Append(&evalManifestRecord{Entry: durable.Entry{Event: evalEventSubmitted, ID: meta.ReleaseID}, Params: params})
}

// appendTerminal best-effort records a failure; the in-memory state is
// authoritative for the current process either way.
func (s *Service) appendTerminal(meta Meta) {
	if err := s.man.Append(&evalManifestRecord{Entry: durable.Entry{Event: evalEventFailed, ID: meta.ReleaseID}, Error: meta.Error}); err != nil && !errors.Is(err, durable.ErrClosed) {
		slog.Error("recording terminal eval event", "component", "eval", "release_id", meta.ReleaseID, "err", err)
	}
}

// --- eval log ---------------------------------------------------------

// EvalLogName is the append-only evaluation-lifecycle log inside a
// durable store's data directory, a sibling of the release manifest and
// kept the same way (durable.Log): every line is one JSON record, every
// append is fsynced before the matching in-memory transition becomes
// visible, and a torn final line is truncated away on open.
const EvalLogName = "eval.log"

// Eval log lifecycle events.
const (
	evalEventSubmitted = "submitted"
	evalEventDone      = "done"
	evalEventFailed    = "failed"
)

// evalManifestRecord is one line of the eval log. Params accompanies
// submitted events; File accompanies done events; Error failed ones.
type evalManifestRecord struct {
	durable.Entry
	Params json.RawMessage `json:"params,omitempty"`
	File   string          `json:"file,omitempty"`
	Error  string          `json:"error,omitempty"`
}
