package release

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/anon"
	"repro/internal/census"
	"repro/internal/durable"
	"repro/internal/query"
)

// buildThree submits one release per method against the durable store and
// waits all of them ready, returning their metadata in submit order.
func buildThree(t *testing.T, s *Store) []Meta {
	t.Helper()
	tab := census.Generate(census.Options{N: 500, Seed: 4}).Project(3)
	specs := []Spec{
		{Method: anon.MethodBUREL, Params: anon.NewBURELParams(anon.BURELBeta(4), anon.BURELSeed(7))},
		{Method: anon.MethodAnatomy, Params: anon.NewAnatomyParams(anon.AnatomyL(2), anon.AnatomySeed(7))},
		{Method: anon.MethodPerturb, Params: anon.NewPerturbParams(anon.PerturbBeta(2), anon.PerturbSeed(7))},
	}
	metas := make([]Meta, len(specs))
	for i, spec := range specs {
		m, err := s.Submit(context.Background(), tab, spec)
		if err != nil {
			t.Fatal(err)
		}
		metas[i] = m
	}
	for i := range metas {
		m, err := s.WaitReady(metas[i].ID, 30*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if m.Status != StatusReady {
			t.Fatalf("release %s: %s (%s)", m.ID, m.Status, m.Error)
		}
		metas[i] = m
	}
	return metas
}

func persistQueries(s *Store, t *testing.T, ids []string) map[string][]float64 {
	t.Helper()
	gen, err := query.NewGenerator(census.Schema().Project(3), 2, 0.05, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	qs := make([]query.Query, 24)
	for i := range qs {
		qs[i] = gen.Next()
	}
	out := make(map[string][]float64, len(ids))
	for _, id := range ids {
		snap, err := s.Snapshot(id)
		if err != nil {
			t.Fatalf("snapshot %s: %v", id, err)
		}
		answers := make([]float64, len(qs))
		for i, q := range qs {
			if answers[i], err = snap.Estimate(q); err != nil {
				t.Fatalf("query %d on %s: %v", i, id, err)
			}
		}
		out[id] = answers
	}
	return out
}

// TestDurableWarmRestart is the tentpole contract at store level: build
// all three methods against a data dir, close, reopen, and require the
// recovered store to serve identical metadata and identical query answers
// with zero re-anonymization (pinned by the preserved build metadata —
// recovery loads snapshots, it never runs a method).
func TestDurableWarmRestart(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !s1.Durable() || s1.Dir() != dir {
		t.Fatalf("store not durable over %s", dir)
	}
	metas := buildThree(t, s1)
	ids := []string{metas[0].ID, metas[1].ID, metas[2].ID}
	for _, m := range metas {
		if !m.Persisted {
			t.Fatalf("ready release %s not marked persisted", m.ID)
		}
	}
	before := persistQueries(s1, t, ids)
	if s1.DiskSize() == 0 {
		t.Fatal("durable store reports zero disk size after three builds")
	}
	s1.Close()

	s2, err := Open(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	rec := s2.Recovery()
	if rec.Ready != 3 || rec.Failed != 0 || rec.Interrupted != 0 || rec.Corrupt != 0 {
		t.Fatalf("recovery stats %+v, want 3 ready", rec)
	}
	for _, want := range metas {
		got, ok := s2.Get(want.ID)
		if !ok {
			t.Fatalf("release %s lost across restart", want.ID)
		}
		if got.Status != StatusReady || !got.Persisted {
			t.Fatalf("release %s recovered as %s persisted=%v", want.ID, got.Status, got.Persisted)
		}
		// Build metadata must be the recorded values, not a re-run:
		// identical version, EC count, AIL, duration, and timestamps.
		if got.Version != want.Version || got.NumECs != want.NumECs || got.AIL != want.AIL ||
			got.BuildMillis != want.BuildMillis || got.Rows != want.Rows {
			t.Fatalf("release %s metadata drifted across restart:\n got %+v\nwant %+v", want.ID, got, want)
		}
		if !got.CreatedAt.Equal(want.CreatedAt) || !got.ReadyAt.Equal(want.ReadyAt) {
			t.Fatalf("release %s timestamps drifted: %v/%v vs %v/%v",
				want.ID, got.CreatedAt, got.ReadyAt, want.CreatedAt, want.ReadyAt)
		}
		if got.Spec.Method != want.Spec.Method {
			t.Fatalf("release %s spec method %q, want %q", want.ID, got.Spec.Method, want.Spec.Method)
		}
	}
	after := persistQueries(s2, t, ids)
	for id, want := range before {
		for i := range want {
			if math.Abs(after[id][i]-want[i]) > 1e-12*(1+math.Abs(want[i])) {
				t.Fatalf("release %s query %d: %v after restart, %v before", id, i, after[id][i], want[i])
			}
		}
	}

	// The version counter must continue, not collide with recovered IDs.
	tab := census.Generate(census.Options{N: 80, Seed: 3}).Project(2)
	m, err := s2.Submit(context.Background(), tab, Spec{Method: anon.MethodBUREL, Params: anon.NewBURELParams(anon.BURELBeta(4))})
	if err != nil {
		t.Fatal(err)
	}
	if m.Version <= metas[2].Version {
		t.Fatalf("post-restart version %d did not advance past %d", m.Version, metas[2].Version)
	}
	if _, err := s2.WaitReady(m.ID, 30*time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryCrashMidBuild pins the crash contract: a submitted record
// with no terminal record (the process died mid-build) recovers as a
// terminal failed release — addressable, never hung in pending.
func TestRecoveryCrashMidBuild(t *testing.T) {
	dir := t.TempDir()
	spec := Spec{Method: anon.MethodBUREL, Params: anon.NewBURELParams(anon.BURELBeta(4))}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	line, err := json.Marshal(manifestRecord{
		Entry:   durable.Entry{Seq: 1, Time: time.Now().UTC(), Event: eventSubmitted, ID: "r-000001"},
		Version: 1, Spec: specJSON, Rows: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ManifestName), append(line, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := Open(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if rec := s.Recovery(); rec.Interrupted != 1 {
		t.Fatalf("recovery stats %+v, want 1 interrupted", rec)
	}
	m, ok := s.Get("r-000001")
	if !ok {
		t.Fatal("interrupted release not addressable after recovery")
	}
	if m.Status != StatusFailed || !strings.Contains(m.Error, "interrupted") {
		t.Fatalf("recovered as %s (%q), want failed/interrupted", m.Status, m.Error)
	}
	if m.Rows != 77 || m.Spec.Method != anon.MethodBUREL {
		t.Fatalf("interrupted release lost its submission metadata: %+v", m)
	}
	// WaitReady must return the terminal state immediately — not hang.
	done := make(chan struct{})
	go func() {
		defer close(done)
		if wm, err := s.WaitReady("r-000001", 5*time.Second); err != nil || wm.Status != StatusFailed {
			t.Errorf("WaitReady: %v / %+v", err, wm)
		}
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("WaitReady hung on a crash-recovered release")
	}
}

// TestRecoveryCorruptSnapshot bit-flips a persisted snapshot: recovery
// must skip it with the decode reason (failed, counted corrupt) while
// recovering its intact siblings.
func TestRecoveryCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	metas := buildThree(t, s1)
	s1.Close()

	victim := metas[1]
	path := filepath.Join(dir, snapshotFileName(victim.ID))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	rec := s2.Recovery()
	if rec.Ready != 2 || rec.Corrupt != 1 {
		t.Fatalf("recovery stats %+v, want 2 ready + 1 corrupt", rec)
	}
	m, ok := s2.Get(victim.ID)
	if !ok {
		t.Fatal("corrupt release not addressable")
	}
	if m.Status != StatusFailed || !strings.Contains(m.Error, "snapshot unrecoverable") {
		t.Fatalf("corrupt release recovered as %s (%q)", m.Status, m.Error)
	}
	// The manifest still names the corrupt file: it is kept for
	// forensics, not swept as an orphan.
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("referenced corrupt snapshot swept: %v", err)
	}
	if _, err := s2.Snapshot(victim.ID); err == nil {
		t.Fatal("corrupt release still served a snapshot")
	}
	for _, id := range []string{metas[0].ID, metas[2].ID} {
		if _, err := s2.Snapshot(id); err != nil {
			t.Fatalf("sibling %s not recovered: %v", id, err)
		}
	}
}

// TestRecoveryTornManifestTail simulates a crash mid-append: a torn final
// line must be skipped (and counted) without blocking recovery of the
// records before it.
func TestRecoveryTornManifestTail(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	tab := census.Generate(census.Options{N: 120, Seed: 6}).Project(2)
	m, err := s1.Submit(context.Background(), tab, Spec{Method: anon.MethodBUREL, Params: anon.NewBURELParams(anon.BURELBeta(4))})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.WaitReady(m.ID, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	s1.Close()

	f, err := os.OpenFile(filepath.Join(dir, ManifestName), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":99,"event":"ready","id":"r-9`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := Open(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	rec := s2.Recovery()
	if rec.Ready != 1 || rec.SkippedLines != 1 {
		t.Fatalf("recovery stats %+v, want 1 ready + 1 skipped line", rec)
	}
	if _, err := s2.Snapshot(m.ID); err != nil {
		t.Fatalf("release before the torn tail not recovered: %v", err)
	}

	// The torn tail must have been truncated away, not glued onto: a new
	// build's records land on a clean line boundary and a third open
	// recovers both releases.
	m2, err := s2.Submit(context.Background(), tab, Spec{Method: anon.MethodBUREL, Params: anon.NewBURELParams(anon.BURELBeta(4))})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.WaitReady(m2.ID, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3, err := Open(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if rec := s3.Recovery(); rec.Ready != 2 || rec.SkippedLines != 0 {
		t.Fatalf("post-truncation recovery stats %+v, want 2 ready + 0 skipped", rec)
	}
}

// TestOpenRejectsSecondProcess pins the data-dir lock: a second Open of
// a live directory must fail instead of interleaving manifest appends
// and snapshot files with the first.
func TestOpenRejectsSecondProcess(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, 1); err == nil || !strings.Contains(err.Error(), "locked") {
		t.Fatalf("second Open of a live dir: %v, want lock rejection", err)
	}
	s1.Close()
	// The lock dies with the holder; a post-Close open succeeds.
	s2, err := Open(dir, 1)
	if err != nil {
		t.Fatalf("reopen after Close: %v", err)
	}
	s2.Close()
}

// TestRegisterPersists pins the pre-built-corpus path: a snapshot planted
// through Register on a durable store must survive restart with
// identical answers.
func TestRegisterPersists(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	schema := census.Schema().Project(3)
	snap := SyntheticSnapshot(schema, 500, rand.New(rand.NewSource(11)))
	m, err := s1.Register(snap, Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Persisted {
		t.Fatalf("registered release not persisted: %+v", m)
	}
	before := persistQueries(s1, t, []string{m.ID})
	s1.Close()

	s2, err := Open(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if rec := s2.Recovery(); rec.Ready != 1 {
		t.Fatalf("recovery stats %+v, want 1 ready", rec)
	}
	got, ok := s2.Get(m.ID)
	if !ok || got.Status != StatusReady || got.NumECs != m.NumECs {
		t.Fatalf("registered release recovered as %+v", got)
	}
	after := persistQueries(s2, t, []string{m.ID})
	for i := range before[m.ID] {
		if before[m.ID][i] != after[m.ID][i] {
			t.Fatalf("query %d: %v after restart, %v before", i, after[m.ID][i], before[m.ID][i])
		}
	}
}

// TestRecoveryFailedBuild pins that a recorded build failure stays a
// terminal failure with its original error across restart.
func TestRecoveryFailedBuild(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	// ℓ larger than the SA domain supports → the anatomy build fails.
	tab := census.Generate(census.Options{N: 40, Seed: 2}).Project(2)
	m, err := s1.Submit(context.Background(), tab, Spec{Method: anon.MethodAnatomy, Params: anon.NewAnatomyParams(anon.AnatomyL(40))})
	if err != nil {
		t.Fatal(err)
	}
	fm, err := s1.WaitReady(m.ID, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if fm.Status != StatusFailed {
		t.Fatalf("expected failed build, got %s", fm.Status)
	}
	s1.Close()

	s2, err := Open(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if rec := s2.Recovery(); rec.Failed != 1 {
		t.Fatalf("recovery stats %+v, want 1 failed", rec)
	}
	got, ok := s2.Get(m.ID)
	if !ok || got.Status != StatusFailed || got.Error != fm.Error {
		t.Fatalf("failed release recovered as %+v, want error %q", got, fm.Error)
	}
}

// TestOpenSweepsOrphanSnapshots pins the leak fix: snapshot/temp files
// no manifest ready record references (a crash between rename and the
// ready append) are removed at Open, while live snapshots — and corrupt
// ones still referenced, kept for forensics — survive.
func TestOpenSweepsOrphanSnapshots(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	tab := census.Generate(census.Options{N: 100, Seed: 3}).Project(2)
	m, err := s1.Submit(context.Background(), tab, Spec{Method: anon.MethodBUREL, Params: anon.NewBURELParams(anon.BURELBeta(4))})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.WaitReady(m.ID, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	s1.Close()
	for _, orphan := range []string{"r-999999.snap", "r-888888.snap.tmp"} {
		if err := os.WriteFile(filepath.Join(dir, orphan), []byte("debris"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s2, err := Open(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for _, orphan := range []string{"r-999999.snap", "r-888888.snap.tmp"} {
		if _, err := os.Stat(filepath.Join(dir, orphan)); !os.IsNotExist(err) {
			t.Fatalf("orphan %s survived Open (err=%v)", orphan, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotFileName(m.ID))); err != nil {
		t.Fatalf("live snapshot swept: %v", err)
	}
	if _, err := s2.Snapshot(m.ID); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryMetaFallback pins forward tolerance of the manifest: when
// a ready record's recorded Meta no longer unmarshals (its method was
// renamed or unregistered since), recovery must fall back to the
// submitted record and the snapshot itself — the release keeps serving
// with real metadata instead of zeroed fields.
func TestRecoveryMetaFallback(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	tab := census.Generate(census.Options{N: 200, Seed: 5}).Project(2)
	m, err := s1.Submit(context.Background(), tab, Spec{Method: anon.MethodBUREL, Params: anon.NewBURELParams(anon.BURELBeta(4), anon.BURELSeed(1))})
	if err != nil {
		t.Fatal(err)
	}
	if m, err = s1.WaitReady(m.ID, 30*time.Second); err != nil || m.Status != StatusReady {
		t.Fatalf("%v / %+v", err, m)
	}
	s1.Close()

	// Sabotage only the ready record's embedded Meta: its spec now names
	// a method this binary has never registered.
	path := filepath.Join(dir, ManifestName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, line := range strings.Split(strings.TrimRight(string(raw), "\n"), "\n") {
		if strings.Contains(line, `"event":"ready"`) {
			line = strings.ReplaceAll(line, `"method":"burel"`, `"method":"vanished"`)
		}
		out = append(out, line)
	}
	if err := os.WriteFile(path, []byte(strings.Join(out, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if rec := s2.Recovery(); rec.Ready != 1 || rec.Corrupt != 0 {
		t.Fatalf("recovery stats %+v, want 1 ready", rec)
	}
	got, ok := s2.Get(m.ID)
	if !ok || got.Status != StatusReady || !got.Persisted {
		t.Fatalf("release recovered as %+v", got)
	}
	if got.Rows != m.Rows || got.NumECs != m.NumECs || got.AIL != m.AIL {
		t.Fatalf("fallback metadata zeroed: got rows=%d ecs=%d ail=%v, want %d/%d/%v",
			got.Rows, got.NumECs, got.AIL, m.Rows, m.NumECs, m.AIL)
	}
	if got.Spec.Method != anon.MethodBUREL {
		t.Fatalf("fallback spec method %q, want %q (from the submitted record)", got.Spec.Method, anon.MethodBUREL)
	}
	if snap, err := s2.Snapshot(m.ID); err != nil {
		t.Fatal(err)
	} else if _, err := snap.Estimate(fullDomainQuery(len(snap.Schema.SA.Values))); err != nil {
		t.Fatal(err)
	}
}

// TestRejectedSubmissionNotResurrected pins the rejection contract: a
// submission logged to the manifest but then refused (queue full / store
// closing — Submit returned an error, the ID was never visible) must not
// materialize as a phantom release after restart.
func TestRejectedSubmissionNotResurrected(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	ghost := Meta{ID: "r-000009", Version: 9, Rows: 5}
	if err := s1.appendSubmitted(ghost); err != nil {
		t.Fatal(err)
	}
	s1.rejectLogged(ghost, ErrQueueFull.Error())
	s1.Close()

	s2, err := Open(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, ok := s2.Get("r-000009"); ok {
		t.Fatal("rejected submission resurrected as a release")
	}
	if rec := s2.Recovery(); rec.Interrupted != 0 || rec.Failed != 0 {
		t.Fatalf("recovery stats %+v, want rejection dropped silently", rec)
	}
	// The burned version must still be skipped by new submissions.
	tab := census.Generate(census.Options{N: 60, Seed: 1}).Project(2)
	m, err := s2.Submit(context.Background(), tab, Spec{Method: anon.MethodBUREL, Params: anon.NewBURELParams(anon.BURELBeta(4))})
	if err != nil {
		t.Fatal(err)
	}
	if m.Version <= ghost.Version {
		t.Fatalf("version %d reused across a rejected submission (ghost was %d)", m.Version, ghost.Version)
	}
}

// TestMemoryStoreStaysMemoryOnly guards the NewStore contract: no dir, no
// persistence, Persisted never set.
func TestMemoryStoreStaysMemoryOnly(t *testing.T) {
	s := NewStore(1)
	defer s.Close()
	if s.Durable() || s.Dir() != "" || s.DiskSize() != 0 {
		t.Fatal("memory store claims durability")
	}
	tab := census.Generate(census.Options{N: 60, Seed: 1}).Project(2)
	m, err := s.Submit(context.Background(), tab, Spec{Method: anon.MethodBUREL, Params: anon.NewBURELParams(anon.BURELBeta(4))})
	if err != nil {
		t.Fatal(err)
	}
	if m, err = s.WaitReady(m.ID, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	if m.Persisted {
		t.Fatal("memory store marked a release persisted")
	}
}
