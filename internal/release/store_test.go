package release

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
	"weak"

	"repro/anon"
	"repro/internal/census"
	"repro/internal/microdata"
	"repro/internal/query"
)

// burelSpec is the generalized-release spec the tests submit most.
func burelSpec(beta float64, seed int64) Spec {
	return Spec{Method: anon.MethodBUREL, Params: anon.NewBURELParams(anon.BURELBeta(beta), anon.BURELSeed(seed))}
}

func anatomySpec(l int, seed int64) Spec {
	return Spec{Method: anon.MethodAnatomy, Params: anon.NewAnatomyParams(anon.AnatomyL(l), anon.AnatomySeed(seed))}
}

func TestStoreLifecycle(t *testing.T) {
	s := NewStore(2)
	defer s.Close()
	tab := census.Generate(census.Options{N: 800, Seed: 4}).Project(3)

	m, err := s.Submit(context.Background(), tab, burelSpec(4, 1))
	if err != nil {
		t.Fatal(err)
	}
	if m.ID == "" || m.Version == 0 {
		t.Fatalf("missing ID/version: %+v", m)
	}
	m, err = s.WaitReady(m.ID, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if m.Status != StatusReady {
		t.Fatalf("status %s (%s), want ready", m.Status, m.Error)
	}
	if m.NumECs == 0 || m.Rows != 800 || m.AIL <= 0 {
		t.Fatalf("bad metadata: %+v", m)
	}
	snap, err := s.Snapshot(m.ID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := snap.Estimate(query.Query{SALo: 0, SAHi: 3}); err != nil {
		t.Fatal(err)
	}
}

func TestStoreFailedBuild(t *testing.T) {
	s := NewStore(1)
	defer s.Close()
	tab := census.Generate(census.Options{N: 50, Seed: 4}).Project(2)
	// ℓ far above what the SA distribution supports → PublishLDiverse fails.
	m, err := s.Submit(context.Background(), tab, anatomySpec(40, 1))
	if err != nil {
		t.Fatal(err)
	}
	m, err = s.WaitReady(m.ID, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if m.Status != StatusFailed || m.Error == "" {
		t.Fatalf("want failed status with error, got %+v", m)
	}
	if _, err := s.Snapshot(m.ID); err == nil {
		t.Fatal("Snapshot of failed release succeeded")
	}
}

func TestStoreValidation(t *testing.T) {
	s := NewStore(1)
	defer s.Close()
	ctx := context.Background()
	tab := census.Generate(census.Options{N: 50, Seed: 4}).Project(2)
	bad := []Spec{
		{Method: "nonsense"},
		{Method: anon.MethodBUREL, Params: &anon.BURELParams{Beta: 0}},
		{Method: anon.MethodPerturb, Params: &anon.PerturbParams{Beta: -1}},
		{Method: anon.MethodAnatomy, Params: &anon.AnatomyParams{L: 1}},
		// Params of one method under another's name.
		{Method: anon.MethodAnatomy, Params: anon.NewBURELParams()},
		{Method: anon.MethodBUREL, Params: anon.NewBURELParams(), QI: -1},
		{Method: anon.MethodBUREL, Params: anon.NewBURELParams(), GridCells: -1},
		{Method: anon.MethodBUREL, Params: anon.NewBURELParams(), GridCells: MaxGridCells + 1},
	}
	for i, spec := range bad {
		if _, err := s.Submit(ctx, tab, spec); err == nil {
			t.Errorf("spec %d accepted: %+v", i, spec)
		}
	}
	if _, err := s.Submit(ctx, nil, burelSpec(2, 0)); err == nil {
		t.Error("nil table accepted")
	}
	if _, ok := s.Get("r-999999"); ok {
		t.Error("Get of unknown ID succeeded")
	}
	if _, err := s.Snapshot("r-999999"); err == nil {
		t.Error("Snapshot of unknown ID succeeded")
	}
}

// TestStoreNilParamsDefaults: a spec without params builds with the
// method's defaults.
func TestStoreNilParamsDefaults(t *testing.T) {
	s := NewStore(1)
	defer s.Close()
	tab := census.Generate(census.Options{N: 300, Seed: 9}).Project(2)
	m, err := s.Submit(context.Background(), tab, Spec{Method: anon.MethodAnatomy})
	if err != nil {
		t.Fatal(err)
	}
	if m.Spec.Params == nil {
		t.Fatal("Normalize did not fill default params")
	}
	if m, err = s.WaitReady(m.ID, 30*time.Second); err != nil || m.Status != StatusReady {
		t.Fatalf("default-params build: %v / %+v", err, m)
	}
}

func TestStoreAllMethods(t *testing.T) {
	s := NewStore(3)
	defer s.Close()
	tab := census.Generate(census.Options{N: 1000, Seed: 8}).Project(3)
	specs := []Spec{
		burelSpec(4, 1),
		anatomySpec(0, 1),
		anatomySpec(3, 1),
		{Method: anon.MethodPerturb, Params: anon.NewPerturbParams(anon.PerturbBeta(4), anon.PerturbSeed(1))},
	}
	ids := make([]string, len(specs))
	for i, spec := range specs {
		m, err := s.Submit(context.Background(), tab, spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Method, err)
		}
		ids[i] = m.ID
	}
	rng := rand.New(rand.NewSource(2))
	gen, err := query.NewGenerator(tab.Schema, 2, 0.2, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		m, err := s.WaitReady(id, 60*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if m.Status != StatusReady {
			t.Fatalf("%s: %s (%s)", specs[i].Method, m.Status, m.Error)
		}
		snap, err := s.Snapshot(id)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 20; j++ {
			if _, err := snap.Estimate(gen.Next()); err != nil {
				t.Fatalf("%s: query %d: %v", specs[i].Method, j, err)
			}
		}
	}
	if got := len(s.List()); got != len(specs) {
		t.Fatalf("List returned %d releases, want %d", got, len(specs))
	}
}

// TestStoreReleasesUploadedTable: once a build is ready and the caller
// drops its table, nothing the store keeps pins it — a snapshot holds the
// release header and its kind's serving layout, never the partition
// behind a generalized release or the input table — so a GC reclaims the
// table and its tuples, true SA values included. ℓ-diverse Anatomy is not
// covered: its publication still holds the input table until it stores
// only what Anatomy publishes (ROADMAP item 1).
func TestStoreReleasesUploadedTable(t *testing.T) {
	s := NewStore(1)
	defer s.Close()
	for _, spec := range []Spec{
		burelSpec(4, 1),
		{Method: anon.MethodSABRE, Params: anon.NewSABREParams(anon.SABRESeed(1))},
		{Method: anon.MethodPerturb, Params: anon.NewPerturbParams(anon.PerturbBeta(4), anon.PerturbSeed(1))},
		anatomySpec(0, 1),
	} {
		t.Run(spec.Method, func(t *testing.T) {
			id, table, tuples := submitDropped(t, s, spec)
			if m, err := s.WaitReady(id, 60*time.Second); err != nil || m.Status != StatusReady {
				t.Fatalf("build: %+v, %v", m, err)
			}
			for i := 0; i < 3 && (table.Value() != nil || tuples.Value() != nil); i++ {
				runtime.GC()
			}
			if table.Value() != nil || tuples.Value() != nil {
				t.Fatal("the ready release still pins the uploaded table")
			}
			snap, err := s.Snapshot(id)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := snap.Estimate(fullDomainQuery(len(snap.Schema.SA.Values))); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// submitDropped submits a fresh table and keeps only weak pointers to it
// and to its tuple array, so the caller holds no reference to either.
func submitDropped(t *testing.T, s *Store, spec Spec) (string, weak.Pointer[microdata.Table], weak.Pointer[microdata.Tuple]) {
	t.Helper()
	tab := census.Generate(census.Options{N: 2000, Seed: 3}).Project(3)
	m, err := s.Submit(context.Background(), tab, spec)
	if err != nil {
		t.Fatal(err)
	}
	return m.ID, weak.Make(tab), weak.Make(&tab.Tuples[0])
}

// TestStoreConcurrent exercises parallel builds and parallel queries
// against shared snapshots; run with -race.
func TestStoreConcurrent(t *testing.T) {
	s := NewStore(4)
	defer s.Close()
	tab := census.Generate(census.Options{N: 600, Seed: 12}).Project(3)

	const builders = 8
	ids := make([]string, builders)
	var wg sync.WaitGroup
	errCh := make(chan error, builders*5)
	for i := 0; i < builders; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var spec Spec
			switch i % 3 {
			case 0:
				spec = burelSpec(4, int64(i))
			case 1:
				spec = anatomySpec(0, int64(i))
			default:
				spec = Spec{Method: anon.MethodPerturb, Params: anon.NewPerturbParams(anon.PerturbSeed(int64(i)))}
			}
			m, err := s.Submit(context.Background(), tab, spec)
			if err != nil {
				errCh <- err
				return
			}
			ids[i] = m.ID
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Wait for all builds, then hammer the snapshots from many goroutines.
	for _, id := range ids {
		m, err := s.WaitReady(id, 60*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if m.Status != StatusReady {
			t.Fatalf("%s: %s (%s)", id, m.Status, m.Error)
		}
	}
	const readers = 16
	qerr := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			gen, err := query.NewGenerator(tab.Schema, 2, 0.1, rng)
			if err != nil {
				qerr <- err
				return
			}
			for j := 0; j < 50; j++ {
				id := ids[rng.Intn(len(ids))]
				snap, err := s.Snapshot(id)
				if err != nil {
					qerr <- err
					return
				}
				if _, err := snap.Estimate(gen.Next()); err != nil {
					qerr <- fmt.Errorf("%s: %w", id, err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(qerr)
	for err := range qerr {
		t.Fatal(err)
	}
}

func TestStoreClose(t *testing.T) {
	s := NewStore(1)
	tab := census.Generate(census.Options{N: 100, Seed: 1}).Project(2)
	m, err := s.Submit(context.Background(), tab, anatomySpec(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	// Close drains the queue; every accepted release must be terminal
	// (ready if the build won the race, failed-with-cancel otherwise).
	got, _ := s.Get(m.ID)
	if got.Status != StatusReady && got.Status != StatusFailed {
		t.Fatalf("release still %s after Close", got.Status)
	}
	if _, err := s.Submit(context.Background(), tab, anatomySpec(0, 1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close: %v, want ErrClosed", err)
	}
	s.Close() // second Close is a no-op
}

// TestStoreCloseAbortsInFlight: Close cancels the context of builds that
// have not finished, so a long anonymization aborts instead of running to
// completion. The single worker is saturated with large BUREL builds;
// after Close at least the queued ones must be failed with a context
// error, not ready.
func TestStoreCloseAbortsInFlight(t *testing.T) {
	s := NewStore(1)
	tab := census.Generate(census.Options{N: 60000, Seed: 5}).Project(3)
	ids := make([]string, 4)
	for i := range ids {
		m, err := s.Submit(context.Background(), tab, burelSpec(4, int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = m.ID
	}
	start := time.Now()
	s.Close()
	elapsed := time.Since(start)

	canceled := 0
	for _, id := range ids {
		m, _ := s.Get(id)
		switch m.Status {
		case StatusFailed:
			if !strings.Contains(m.Error, context.Canceled.Error()) {
				t.Fatalf("%s failed with %q, want a context error", id, m.Error)
			}
			canceled++
		case StatusReady:
			// The build that was already running may have won the race.
		default:
			t.Fatalf("%s still %s after Close", id, m.Status)
		}
	}
	if canceled == 0 {
		t.Fatalf("no build was canceled by Close (elapsed %v)", elapsed)
	}
}

// TestStoreSubmitCancellation: canceling the submitter's context aborts
// that build alone.
func TestStoreSubmitCancellation(t *testing.T) {
	s := NewStore(1)
	defer s.Close()
	tab := census.Generate(census.Options{N: 40000, Seed: 6}).Project(3)
	ctx, cancel := context.WithCancel(context.Background())
	m, err := s.Submit(ctx, tab, burelSpec(4, 1))
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	got, err := s.WaitReady(m.ID, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != StatusFailed || !strings.Contains(got.Error, context.Canceled.Error()) {
		t.Fatalf("canceled submission ended %s (%q), want failed with context error", got.Status, got.Error)
	}

	// The store remains usable for other submissions.
	m2, err := s.Submit(context.Background(), tab.Project(2), anatomySpec(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := s.WaitReady(m2.ID, 30*time.Second); err != nil || got.Status != StatusReady {
		t.Fatalf("follow-up build: %v / %+v", err, got)
	}
}

// TestStoreQueueFull: a saturated build queue rejects submissions with
// ErrQueueFull instead of building inline (white-box: no workers drain
// the queue).
func TestStoreQueueFull(t *testing.T) {
	s := &Store{byID: make(map[string]*record), root: context.Background(), jobs: make(chan *record, 1)}
	tab := census.Generate(census.Options{N: 50, Seed: 1}).Project(2)
	if _, err := s.Submit(context.Background(), tab, anatomySpec(0, 1)); err != nil {
		t.Fatal(err)
	}
	_, err := s.Submit(context.Background(), tab, anatomySpec(0, 1))
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("second submit: err = %v, want ErrQueueFull", err)
	}
	// The rejected submission must not be registered.
	if got := len(s.List()); got != 1 {
		t.Fatalf("store holds %d releases, want 1", got)
	}
}

// TestStoreSnapshotErrors pins the sentinel errors the HTTP layer maps to
// status codes.
func TestStoreSnapshotErrors(t *testing.T) {
	s := NewStore(1)
	defer s.Close()
	if _, err := s.Snapshot("r-000404"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown id: %v, want ErrNotFound", err)
	}
	tab := census.Generate(census.Options{N: 50, Seed: 4}).Project(2)
	m, err := s.Submit(context.Background(), tab, anatomySpec(40, 1)) // will fail
	if err != nil {
		t.Fatal(err)
	}
	if m, err = s.WaitReady(m.ID, 30*time.Second); err != nil || m.Status != StatusFailed {
		t.Fatalf("want failed build, got %v / %v", m.Status, err)
	}
	if _, err := s.Snapshot(m.ID); !errors.Is(err, ErrNotReady) {
		t.Fatalf("failed release: %v, want ErrNotReady", err)
	}
}

// TestStoreRegister: a pre-built snapshot becomes an immediately ready,
// queryable release with derived metadata, interleaved in the same
// version sequence as submitted builds.
func TestStoreRegister(t *testing.T) {
	s := NewStore(1)
	defer s.Close()

	tab := census.Generate(census.Options{N: 400, Seed: 3}).Project(2)
	snap, err := build(context.Background(), tab, burelSpec(4, 1))
	if err != nil {
		t.Fatal(err)
	}
	meta, err := s.Register(snap, burelSpec(4, 1))
	if err != nil {
		t.Fatal(err)
	}
	if meta.Status != StatusReady {
		t.Fatalf("registered release is %s, want ready", meta.Status)
	}
	if meta.Rows != tab.Len() || meta.NumECs != snap.NumECs() {
		t.Fatalf("metadata rows=%d ecs=%d, want %d/%d", meta.Rows, meta.NumECs, tab.Len(), snap.NumECs())
	}
	got, err := s.Snapshot(meta.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got != snap {
		t.Fatal("Snapshot returned a different snapshot than registered")
	}

	// Version sequence is shared with Submit.
	m2, err := s.Submit(context.Background(), tab, burelSpec(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	if m2.Version != meta.Version+1 {
		t.Fatalf("submitted version %d after registered %d", m2.Version, meta.Version)
	}

	if _, err := s.Register(nil, Spec{}); err == nil {
		t.Fatal("nil snapshot accepted")
	}
	s.Close()
	if _, err := s.Register(snap, burelSpec(4, 1)); err == nil {
		t.Fatal("closed store accepted a registration")
	}
}

// TestSpecJSONRoundTrip: Meta (and its Spec) must survive the wire, with
// params decoded back into their typed form.
func TestSpecJSONRoundTrip(t *testing.T) {
	spec := Spec{
		Method:    anon.MethodBUREL,
		Params:    anon.NewBURELParams(anon.BURELBeta(2.5), anon.BURELBasic(), anon.BURELSeed(7)),
		QI:        3,
		GridCells: 64,
	}
	data, err := spec.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var got Spec
	if err := got.UnmarshalJSON(data); err != nil {
		t.Fatal(err)
	}
	bp, ok := got.Params.(*anon.BURELParams)
	if !ok {
		t.Fatalf("params decoded as %T", got.Params)
	}
	if got.Method != spec.Method || got.QI != 3 || got.GridCells != 64 ||
		bp.Beta != 2.5 || !bp.Basic || bp.Seed != 7 {
		t.Fatalf("round trip mangled spec: %+v / %+v", got, bp)
	}

	// Unknown methods and malformed params fail the decode.
	var bad Spec
	if err := bad.UnmarshalJSON([]byte(`{"method":"nope"}`)); !errors.Is(err, anon.ErrUnknownMethod) {
		t.Fatalf("unknown method: %v", err)
	}
	if err := bad.UnmarshalJSON([]byte(`{"method":"burel","params":{"beta":-1}}`)); !errors.Is(err, anon.ErrInvalidParams) {
		t.Fatalf("invalid params: %v", err)
	}
}
