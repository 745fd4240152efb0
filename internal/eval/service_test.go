package eval

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/anon"
	"repro/internal/census"
	"repro/internal/microdata"
	"repro/internal/release"
)

// buildRelease plants one ready burel release in a store and returns its
// ID and the original table.
func buildRelease(t *testing.T, store *release.Store) (string, *microdata.Table) {
	t.Helper()
	tab := census.Generate(census.Options{N: 800, Seed: 17}).Project(3)
	spec := release.Spec{Method: anon.MethodBUREL, Params: anon.NewBURELParams(anon.BURELBeta(4), anon.BURELSeed(7)), QI: 3}
	meta, err := store.Submit(context.Background(), tab, spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.WaitReady(meta.ID, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	return meta.ID, tab
}

// waitTerminal polls the service until the job is done or failed.
func waitTerminal(t *testing.T, s *Service, id string) Meta {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		m, ok := s.Get(id)
		if !ok {
			t.Fatalf("evaluation of %s vanished", id)
		}
		if m.Status == StatusDone || m.Status == StatusFailed {
			return m
		}
		if time.Now().After(deadline) {
			t.Fatalf("evaluation of %s still %s", id, m.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServiceRecoversInterruptedAndTornLog: an eval log holding a
// submitted record with no terminal one (a crash mid-job) recovers as a
// failed evaluation, a torn final line is truncated away, and a finished
// verdict recovers done from its sidecar.
func TestServiceRecoversInterruptedAndTornLog(t *testing.T) {
	dir := t.TempDir()
	store, err := release.Open(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	id, tab := buildRelease(t, store)

	svc, err := NewService(store, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Submit(context.Background(), id, tab, Params{Queries: 20}); err != nil {
		t.Fatal(err)
	}
	done := waitTerminal(t, svc, id)
	if done.Status != StatusDone || !done.Persisted {
		t.Fatalf("job ended %s (persisted %v, error %q)", done.Status, done.Persisted, done.Error)
	}
	svc.Close()

	// Simulate a crash mid-job: a fresh submitted record with no terminal
	// event, then a torn half-written line.
	f, err := os.OpenFile(filepath.Join(dir, EvalLogName), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":99,"time":"2026-08-01T00:00:00Z","event":"submitted","id":"` + id + `"}` + "\n" + `{"seq":100,"ev`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	svc2, err := NewService(store, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	rec := svc2.Recovery()
	if rec.Interrupted != 1 || rec.SkippedLines != 1 || rec.Done != 0 {
		t.Fatalf("recovery stats: %+v", rec)
	}
	m, ok := svc2.Get(id)
	if !ok || m.Status != StatusFailed || !strings.Contains(m.Error, "interrupted by restart") {
		t.Fatalf("interrupted job recovered as %+v", m)
	}

	// Re-running the evaluation replaces the interrupted state, and a
	// third incarnation recovers the fresh verdict from its sidecar.
	if _, err := svc2.Submit(context.Background(), id, tab, Params{Queries: 20}); err != nil {
		t.Fatal(err)
	}
	redo := waitTerminal(t, svc2, id)
	if redo.Status != StatusDone {
		t.Fatalf("re-run ended %s: %s", redo.Status, redo.Error)
	}
	svc2.Close()

	svc3, err := NewService(store, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer svc3.Close()
	if rec := svc3.Recovery(); rec.Done != 1 {
		t.Fatalf("recovery stats after re-run: %+v", rec)
	}
	got, ok := svc3.Get(id)
	if !ok || got.Status != StatusDone || got.Verdict == nil {
		t.Fatalf("recovered evaluation: %+v", got)
	}
	if got.EvalMillis != redo.EvalMillis || !got.SubmittedAt.Equal(redo.SubmittedAt) {
		t.Fatalf("recovered timing differs: %+v vs %+v", got, redo)
	}
}

// TestServiceSweepsOrphanSidecars: sidecar files no done record
// references (crash between rename and log append, stale temp files) are
// removed at startup; the release snapshot itself is untouched.
func TestServiceSweepsOrphanSidecars(t *testing.T) {
	dir := t.TempDir()
	store, err := release.Open(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	id, _ := buildRelease(t, store)

	orphan := filepath.Join(dir, id+".eval")
	tmp := filepath.Join(dir, id+".eval.tmp")
	for _, p := range []string{orphan, tmp} {
		if err := os.WriteFile(p, []byte("leftover"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	svc, err := NewService(store, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	for _, p := range []string{orphan, tmp} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("%s survived the orphan sweep", filepath.Base(p))
		}
	}
	if _, err := os.Stat(filepath.Join(dir, id+".snap")); err != nil {
		t.Errorf("snapshot touched by sweep: %v", err)
	}
	if _, ok := svc.Get(id); ok {
		t.Error("orphan sidecar resurrected an evaluation")
	}
}

// TestServiceRecoversFrozenDataDir pins the on-disk formats across code
// changes: testdata/datadir holds a manifest.log, eval.log, snapshot and
// sidecar written by an earlier build. They must recover as written — one
// ready release, one done evaluation, no skipped lines — and new appends
// to both logs must land after the recorded bytes, each on a line of its
// own.
func TestServiceRecoversFrozenDataDir(t *testing.T) {
	src := filepath.Join("testdata", "datadir")
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	store, err := release.Open(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if rec := store.Recovery(); rec.Ready != 1 || rec.SkippedLines != 0 {
		t.Fatalf("release recovery stats: %+v", rec)
	}
	svc, err := NewService(store, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if rec := svc.Recovery(); rec.Done != 1 || rec.SkippedLines != 0 {
		t.Fatalf("eval recovery stats: %+v", rec)
	}
	if m, ok := svc.Get("r-000001"); !ok || m.Status != StatusDone || m.Verdict == nil {
		t.Fatalf("frozen evaluation recovered as %+v", m)
	}

	id, tab := buildRelease(t, store)
	if _, err := svc.Submit(context.Background(), id, tab, Params{Queries: 20}); err != nil {
		t.Fatal(err)
	}
	if m := waitTerminal(t, svc, id); m.Status != StatusDone {
		t.Fatalf("new evaluation ended %s: %s", m.Status, m.Error)
	}
	svc.Close()
	store.Close()
	for _, name := range []string{release.ManifestName, EvalLogName} {
		before, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		after, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(after, before) {
			t.Fatalf("%s: recorded lines rewritten", name)
		}
		added := strings.Split(strings.TrimSuffix(string(after[len(before):]), "\n"), "\n")
		if len(added) != 2 {
			t.Fatalf("%s: %d lines appended, want submitted + terminal", name, len(added))
		}
		for _, line := range added {
			if !json.Valid([]byte(line)) {
				t.Fatalf("%s: appended line %q is not one JSON record", name, line)
			}
		}
	}
}

// TestSubmitterCancelFailsQueuedEvaluation: a job's context derives from
// the submitter's ctx, so cancelling it fails an evaluation still queued
// behind another with context.Canceled, while the job ahead of it, under
// its own context, finishes.
func TestSubmitterCancelFailsQueuedEvaluation(t *testing.T) {
	store := release.NewStore(1)
	defer store.Close()
	busyID, busyTab := buildRelease(t, store)
	id, tab := buildRelease(t, store)

	svc, err := NewService(store, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if _, err := svc.Submit(context.Background(), busyID, busyTab, Params{Queries: 400}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	if _, err := svc.Submit(ctx, id, tab, Params{Queries: 20}); err != nil {
		t.Fatal(err)
	}
	cancel()
	if m := waitTerminal(t, svc, id); m.Status != StatusFailed || !strings.Contains(m.Error, context.Canceled.Error()) {
		t.Fatalf("cancelled evaluation ended %s (%q), want failed with %v", m.Status, m.Error, context.Canceled)
	}
	if m := waitTerminal(t, svc, busyID); m.Status != StatusDone {
		t.Fatalf("uncancelled evaluation ended %s: %s", m.Status, m.Error)
	}
}

// TestQueueFullLeavesNoRecord: a Submit refused because the job queue is
// full writes nothing to the eval log, so after a restart the release's
// evaluation still reads the verdict it had before the refusal.
func TestQueueFullLeavesNoRecord(t *testing.T) {
	dir := t.TempDir()
	store, err := release.Open(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	id, tab := buildRelease(t, store)
	otherID, otherTab := buildRelease(t, store)
	otherSnap, err := store.Snapshot(otherID)
	if err != nil {
		t.Fatal(err)
	}

	svc, err := NewService(store, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := svc.Submit(ctx, id, tab, Params{Queries: 20}); err != nil {
		t.Fatal(err)
	}
	if m := waitTerminal(t, svc, id); m.Status != StatusDone {
		t.Fatalf("first evaluation ended %s: %s", m.Status, m.Error)
	}

	// Hold the one worker inside a job of the other release, then fill
	// the queue behind it.
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	hold := make(chan struct{})
	newJob := func(done func()) *job {
		return &job{meta: Meta{ReleaseID: otherID, Status: StatusPending}, table: otherTab, snap: otherSnap, ctx: cancelled, done: done}
	}
	taken := make(chan struct{})
	svc.jobs <- newJob(func() { close(taken); <-hold })
	<-taken
	for len(svc.jobs) < cap(svc.jobs) {
		svc.jobs <- newJob(func() {})
	}
	if _, err := svc.Submit(ctx, id, tab, Params{Queries: 20}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submit to a full queue: %v, want %v", err, ErrQueueFull)
	}
	close(hold)
	svc.Close()

	svc2, err := NewService(store, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	if m, ok := svc2.Get(id); !ok || m.Status != StatusDone || m.Verdict == nil {
		t.Fatalf("after a restart the evaluation reads %s %q, want its earlier verdict", m.Status, m.Error)
	}
}

// TestSubmitValidation covers the submit-time error surface: unknown
// release, bad params, double submit, closed service.
func TestSubmitValidation(t *testing.T) {
	store := release.NewStore(1)
	defer store.Close()
	id, tab := buildRelease(t, store)

	svc, err := NewService(store, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := svc.Submit(ctx, "nope", tab, Params{}); err == nil {
		t.Fatal("unknown release accepted")
	}
	if _, err := svc.Submit(ctx, id, tab, Params{Theta: 2}); err == nil {
		t.Fatal("theta=2 accepted")
	}
	if _, err := svc.Submit(ctx, id, nil, Params{}); err == nil {
		t.Fatal("nil table accepted")
	}
	if _, err := svc.Submit(ctx, id, tab, Params{Queries: 20}); err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, svc, id)
	svc.Close()
	if _, err := svc.Submit(ctx, id, tab, Params{}); err != ErrClosed {
		t.Fatalf("submit after close: %v", err)
	}
	svc.Close() // idempotent
}
