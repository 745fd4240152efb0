package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/anon"
	"repro/internal/census"
	"repro/internal/engine"
	"repro/internal/query"
	"repro/internal/release"
	"repro/pkg/api"
)

// readyRelease uploads a small generated table and polls it to ready.
func readyRelease(t *testing.T, e *testEnv, n int, seed int64) (api.Release, string) {
	t.Helper()
	csv, _ := censusCSV(t, n, seed, 3)
	_, data := e.post(t, "/v1/releases", createReq("burel", fmt.Sprintf(`{"beta": 4, "seed": %d}`, seed), csv, 3))
	var meta api.Release
	if err := json.Unmarshal(data, &meta); err != nil {
		t.Fatal(err)
	}
	meta = e.pollReady(t, meta.ID)
	if meta.Status != api.StatusReady {
		t.Fatalf("build failed: %s", meta.Error)
	}
	return meta, csv
}

// TestBatchQueryEndToEnd: a batch must return results in request order
// that match the direct estimator, and repeating it must be answered
// from the cache with the hit tally reported.
func TestBatchQueryEndToEnd(t *testing.T) {
	e := newEnv(t)
	meta, _ := readyRelease(t, e, 1500, 17)
	snap, err := e.store.Snapshot(meta.ID)
	if err != nil {
		t.Fatal(err)
	}

	gen, err := query.NewGenerator(census.Schema().Project(3), 2, 0.05, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	qs := make([]api.Query, 24)
	for i := range qs {
		q := gen.Next()
		qs[i] = api.Query{Dims: q.Dims, Lo: q.Lo, Hi: q.Hi, SALo: q.SALo, SAHi: q.SAHi}
	}
	qs[20] = qs[3] // batch-local duplicate

	var br api.BatchQueryResponse
	resp, data := e.post(t, "/v1/query:batch", api.BatchQueryRequest{ReleaseID: meta.ID, Queries: qs})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d: %s", resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != len(qs) {
		t.Fatalf("got %d results for %d queries", len(br.Results), len(qs))
	}
	for i, qr := range qs {
		want, err := snap.Estimate(toQuery(qr))
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(br.Results[i].Estimate-want) > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("query %d: batch %v, direct %v", i, br.Results[i].Estimate, want)
		}
	}
	if br.CacheHits != 1 { // only the duplicate
		t.Fatalf("cold batch reported %d hits, want 1", br.CacheHits)
	}

	resp, data = e.post(t, "/v1/query:batch", api.BatchQueryRequest{ReleaseID: meta.ID, Queries: qs})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm batch: %d: %s", resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, &br); err != nil {
		t.Fatal(err)
	}
	if br.CacheHits != len(qs) {
		t.Fatalf("warm batch reported %d hits, want %d", br.CacheHits, len(qs))
	}

	// The single-query route shares the engine and therefore the cache.
	resp, data = e.post(t, "/v1/releases/"+meta.ID+"/query", qs[0])
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("single after batch: %d: %s", resp.StatusCode, data)
	}
	var qr api.QueryResponse
	if err := json.Unmarshal(data, &qr); err != nil {
		t.Fatal(err)
	}
	if !qr.Cached {
		t.Fatal("single-query route missed the cache after a batch warmed it")
	}
}

// TestErrorMatrix is the table-driven status-code contract of the query
// routes: every row posts a body to a path and requires one exact code.
func TestErrorMatrix(t *testing.T) {
	e := newEnvOpts(t, Options{
		MaxBodyBytes: 1 << 20,
		Engine:       engine.Options{MaxBatch: 8},
	}, 1)

	ready, csv := readyRelease(t, e, 800, 23)

	// A build that fails: ℓ-diverse anatomy with ℓ far beyond the SA
	// diversity of a small table.
	_, data := e.post(t, "/v1/releases", createReq("anatomy", `{"l": 40, "seed": 1}`, csv, 3))
	var failed api.Release
	if err := json.Unmarshal(data, &failed); err != nil {
		t.Fatal(err)
	}
	if failed = e.pollReady(t, failed.ID); failed.Status != api.StatusFailed {
		t.Fatalf("expected failed build, got %s", failed.Status)
	}

	// A release that stays pending for the duration of one request: the
	// store has a single build worker, so a submission queued directly
	// behind several full builds cannot start before we query it (the
	// fillers bypass HTTP so the queue fills faster than it drains).
	bigTab := census.Generate(census.Options{N: 30000, Seed: 29}).Project(3)
	burelAt := func(seed int64) release.Spec {
		return release.Spec{Method: anon.MethodBUREL, Params: anon.NewBURELParams(anon.BURELSeed(seed))}
	}
	for i := 0; i < 6; i++ {
		if _, err := e.store.Submit(context.Background(), bigTab, burelAt(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	pending, err := e.store.Submit(context.Background(), bigTab, burelAt(99))
	if err != nil {
		t.Fatal(err)
	}

	okQuery := api.Query{SALo: 0, SAHi: 3}
	batchOf := func(id string, n int, q api.Query) api.BatchQueryRequest {
		qs := make([]api.Query, n)
		for i := range qs {
			qs[i] = q
		}
		return api.BatchQueryRequest{ReleaseID: id, Queries: qs}
	}

	cases := []struct {
		name string
		path string
		body any
		code int
	}{
		// 503 first: these rows must run while the release queued behind
		// the filler builds is still pending.
		{"batch pending release", "/v1/query:batch", batchOf(pending.ID, 1, okQuery), http.StatusServiceUnavailable},
		{"single pending release", "/v1/releases/" + pending.ID + "/query", okQuery, http.StatusServiceUnavailable},
		// 400: malformed or invalid requests.
		{"batch bad json", "/v1/query:batch", "{", http.StatusBadRequest},
		{"batch no release_id", "/v1/query:batch", batchOf("", 1, okQuery), http.StatusBadRequest},
		{"batch empty queries", "/v1/query:batch", api.BatchQueryRequest{ReleaseID: ready.ID}, http.StatusBadRequest},
		{"batch bad dim", "/v1/query:batch", batchOf(ready.ID, 1, api.Query{Dims: []int{9}, Lo: []float64{0}, Hi: []float64{1}}), http.StatusBadRequest},
		{"batch inverted sa", "/v1/query:batch", batchOf(ready.ID, 1, api.Query{SALo: 3, SAHi: 1}), http.StatusBadRequest},
		{"batch fractional categorical", "/v1/query:batch", batchOf(ready.ID, 1, api.Query{Dims: []int{1}, Lo: []float64{0.5}, Hi: []float64{1.5}}), http.StatusBadRequest},
		{"single bad query", "/v1/releases/" + ready.ID + "/query", api.Query{Dims: []int{9}, Lo: []float64{0}, Hi: []float64{1}}, http.StatusBadRequest},
		{"create bad method", "/v1/releases", createReq("nope", "", "Age\n1\n", 0), http.StatusBadRequest},
		// 404: unknown release.
		{"batch unknown release", "/v1/query:batch", batchOf("r-404404", 1, okQuery), http.StatusNotFound},
		{"single unknown release", "/v1/releases/r-404404/query", okQuery, http.StatusNotFound},
		// 409: permanently failed release.
		{"batch failed release", "/v1/query:batch", batchOf(failed.ID, 1, okQuery), http.StatusConflict},
		{"single failed release", "/v1/releases/" + failed.ID + "/query", okQuery, http.StatusConflict},
		// 413: oversized batch.
		{"batch too large", "/v1/query:batch", batchOf(ready.ID, 9, okQuery), http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		var resp *http.Response
		var data []byte
		if s, ok := tc.body.(string); ok {
			r, err := http.Post(e.ts.URL+tc.path, "application/json", strings.NewReader(s))
			if err != nil {
				t.Fatal(err)
			}
			data, _ = io.ReadAll(r.Body)
			r.Body.Close()
			resp = r
		} else {
			resp, data = e.post(t, tc.path, tc.body)
		}
		if resp.StatusCode != tc.code {
			t.Errorf("%s: code %d, want %d (%s)", tc.name, resp.StatusCode, tc.code, data)
		}
		var env api.Envelope
		if err := json.Unmarshal(data, &env); err != nil || env.Error.Code == "" || env.Error.Message == "" {
			t.Errorf("%s: body is not a structured error envelope: %s", tc.name, data)
		}
		if tc.code == http.StatusServiceUnavailable && resp.Header.Get("Retry-After") == "" {
			t.Errorf("%s: 503 without Retry-After", tc.name)
		}
	}
}

// TestCancelledBatchIs503: a batch whose request context is cancelled
// before it is estimated answers 503 unavailable with Retry-After, not
// 500 internal, and the node answers the same batch once a live request
// sends it.
func TestCancelledBatchIs503(t *testing.T) {
	store := release.NewStore(1)
	defer store.Close()
	srv, err := New(store, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	snap := release.SyntheticSnapshot(census.Schema().Project(3), 500, rand.New(rand.NewSource(3)))
	meta, err := store.Register(snap, release.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(api.BatchQueryRequest{ReleaseID: meta.ID, Queries: []api.Query{{SALo: 0, SAHi: 3}, {SALo: 1, SAHi: 4}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, live := range []bool{false, true} {
		ctx, cancel := context.WithCancel(context.Background())
		if !live {
			cancel()
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query:batch", bytes.NewReader(body)).WithContext(ctx))
		cancel()
		if live {
			if rec.Code != http.StatusOK {
				t.Fatalf("live batch: %d %s", rec.Code, rec.Body)
			}
			continue
		}
		var env api.Envelope
		if rec.Code != http.StatusServiceUnavailable || json.Unmarshal(rec.Body.Bytes(), &env) != nil || env.Error.Code != api.CodeUnavailable {
			t.Fatalf("cancelled batch: %d %s, want 503 %s", rec.Code, rec.Body, api.CodeUnavailable)
		}
		if rec.Header().Get("Retry-After") == "" {
			t.Fatal("cancelled batch: 503 without Retry-After")
		}
	}
}

// TestBatchBodyTooLarge: a batch request body beyond MaxBodyBytes maps to
// 413 via the decoder, before any queries are parsed.
func TestBatchBodyTooLarge(t *testing.T) {
	e := newEnvOpts(t, Options{MaxBodyBytes: 4 << 10}, 1)
	big := `{"release_id":"r-000001","queries":[` + strings.Repeat(`{"sa_lo":0,"sa_hi":1},`, 4096) + `{"sa_lo":0,"sa_hi":1}]}`
	resp, err := http.Post(e.ts.URL+"/v1/query:batch", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: %d, want 413", resp.StatusCode)
	}
}

// TestMetricsExposeEngineCounters: the engine's cache and batch counters
// must surface on /metrics after batch traffic.
func TestMetricsExposeEngineCounters(t *testing.T) {
	e := newEnv(t)
	meta, _ := readyRelease(t, e, 600, 31)
	qs := []api.Query{{SALo: 0, SAHi: 5}, {SALo: 0, SAHi: 5}, {SALo: 1, SAHi: 2}}
	if resp, data := e.post(t, "/v1/query:batch", api.BatchQueryRequest{ReleaseID: meta.ID, Queries: qs}); resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d: %s", resp.StatusCode, data)
	}
	_, data := e.get(t, "/metrics")
	body := string(data)
	for _, want := range []string{
		"repro_engine_cache_hits_total 1", // the in-batch duplicate
		"repro_engine_cache_misses_total 2",
		"repro_engine_batches_total 1",
		"repro_engine_batch_queries_total 3",
		"repro_engine_batch_size_max 3",
		"repro_engine_cache_entries 2",
		`repro_http_requests_total{route="batch_query",code="200"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q in:\n%s", want, body)
		}
	}
}
