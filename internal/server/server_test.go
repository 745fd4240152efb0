package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/burel"
	"repro/internal/census"
	"repro/internal/microdata"
	"repro/internal/query"
	"repro/internal/release"
	"repro/pkg/api"
)

// createReq assembles a create-release request from raw params JSON.
func createReq(method, params, csv string, qi int) api.CreateReleaseRequest {
	return api.CreateReleaseRequest{Method: method, Params: api.RawParams(params), CSV: csv, QI: qi}
}

// testEnv is one server instance over a fresh store.
type testEnv struct {
	ts    *httptest.Server
	store *release.Store
}

func newEnv(t *testing.T) *testEnv {
	return newEnvOpts(t, Options{}, 2)
}

func newEnvOpts(t *testing.T, opts Options, workers int) *testEnv {
	t.Helper()
	store := release.NewStore(workers)
	srv, err := New(store, opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
		store.Close()
	})
	return &testEnv{ts: ts, store: store}
}

func (e *testEnv) post(t *testing.T, path string, body any) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(e.ts.URL+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp, data
}

func (e *testEnv) get(t *testing.T, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(e.ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp, data
}

// pollReady polls GET /v1/releases/{id} until the release is terminal.
func (e *testEnv) pollReady(t *testing.T, id string) api.Release {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, data := e.get(t, "/v1/releases/"+id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET release: %d: %s", resp.StatusCode, data)
		}
		var m api.Release
		if err := json.Unmarshal(data, &m); err != nil {
			t.Fatal(err)
		}
		if m.Status == api.StatusReady || m.Status == api.StatusFailed {
			return m
		}
		if time.Now().After(deadline) {
			t.Fatalf("release %s still %s", id, m.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func censusCSV(t *testing.T, n int, seed int64, qi int) (string, *microdata.Table) {
	t.Helper()
	tab := census.Generate(census.Options{N: n, Seed: seed}).Project(qi)
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String(), tab
}

// TestEndToEnd is the acceptance flow: upload a generated table, poll the
// release to completion, issue COUNT queries, and require each HTTP
// estimate to match calling query.EstimateGeneralized directly on a local
// run with identical parameters.
func TestEndToEnd(t *testing.T) {
	e := newEnv(t)
	csv, tab := censusCSV(t, 2000, 21, 3)

	resp, data := e.post(t, "/v1/releases", createReq("burel", `{"beta": 4, "seed": 7}`, csv, 3))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("create: %d: %s", resp.StatusCode, data)
	}
	var meta api.Release
	if err := json.Unmarshal(data, &meta); err != nil {
		t.Fatal(err)
	}
	if meta.Status != api.StatusPending && meta.Status != api.StatusBuilding && meta.Status != api.StatusReady {
		t.Fatalf("unexpected initial status %s", meta.Status)
	}
	if meta.Spec.Method != "burel" {
		t.Fatalf("spec method %q, want burel", meta.Spec.Method)
	}

	meta = e.pollReady(t, meta.ID)
	if meta.Status != api.StatusReady {
		t.Fatalf("build failed: %s", meta.Error)
	}
	if meta.NumECs == 0 || meta.Rows != 2000 {
		t.Fatalf("bad metadata: %+v", meta)
	}

	// The same anonymization locally: the server's estimates must agree
	// with the direct estimator on the same release content.
	res, err := burel.Anonymize(tab, burel.Options{Beta: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	pub := res.Partition.Publish()

	rng := rand.New(rand.NewSource(3))
	gen, err := query.NewGenerator(tab.Schema, 2, 0.05, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		q := gen.Next()
		want := query.EstimateGeneralized(tab.Schema, pub, q)
		resp, data := e.post(t, "/v1/releases/"+meta.ID+"/query", api.Query{
			Dims: q.Dims, Lo: q.Lo, Hi: q.Hi, SALo: q.SALo, SAHi: q.SAHi,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d: %d: %s", i, resp.StatusCode, data)
		}
		var qr api.QueryResponse
		if err := json.Unmarshal(data, &qr); err != nil {
			t.Fatal(err)
		}
		if math.Abs(qr.Estimate-want) > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("query %d: server %v, direct %v", i, qr.Estimate, want)
		}
	}
}

// exposedFamilies maps every # TYPE family of a text exposition to its
// type and the sorted label names its samples carry ("le" excluded), as
// "type(label,label)".
func exposedFamilies(body string) map[string]string {
	types := make(map[string]string)
	labels := make(map[string]map[string]bool)
	labelName := regexp.MustCompile(`([a-zA-Z_][a-zA-Z0-9_]*)="`)
	for _, line := range strings.Split(body, "\n") {
		if decl, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, _ := strings.Cut(decl, " ")
			types[name], labels[name] = typ, make(map[string]bool)
			continue
		}
		if line == "" || line[0] == '#' {
			continue
		}
		end := strings.IndexAny(line, "{ ")
		family := line[:end]
		if _, ok := types[family]; !ok {
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				family = strings.TrimSuffix(family, suffix)
			}
		}
		if set, ok := labels[family]; ok && line[end] == '{' {
			for _, m := range labelName.FindAllStringSubmatch(line[:strings.IndexByte(line, '}')], -1) {
				if m[1] != "le" {
					set[m[1]] = true
				}
			}
		}
	}
	out := make(map[string]string, len(types))
	for name, typ := range types {
		names := make([]string, 0, len(labels[name]))
		for l := range labels[name] {
			names = append(names, l)
		}
		sort.Strings(names)
		out[name] = typ + "(" + strings.Join(names, ",") + ")"
	}
	return out
}

func TestHealthzAndMetrics(t *testing.T) {
	store, ts := clusterNode(t, "n1", "")
	e := &testEnv{ts: ts, store: store}
	resp, data := e.get(t, "/healthz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(data), `"ok"`) {
		t.Fatalf("healthz: %d: %s", resp.StatusCode, data)
	}
	// Generate some traffic, then scrape.
	e.get(t, "/v1/releases")
	e.get(t, "/v1/releases/r-404404")
	resp, data = e.get(t, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	body := string(data)
	for _, want := range []string{
		`repro_http_requests_total{route="healthz",code="200"} 1`,
		`repro_http_requests_total{route="get_release",code="404"} 1`,
		`repro_http_request_duration_seconds_count{route="list_releases"} 1`,
		"repro_uptime_seconds",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q in:\n%s", want, body)
		}
	}
	// The full family set of a memory-only node with an identity: names,
	// types and label names are the node's scrape contract.
	got := exposedFamilies(body)
	want := map[string]string{
		"repro_http_requests_total":           "counter(code,route)",
		"repro_http_request_duration_seconds": "histogram(route)",
		"repro_http_inflight_requests":        "gauge()",
		"repro_stage_duration_seconds":        "histogram(stage)",
		"repro_releases":                      "gauge()",
		"repro_evaluations":                   "gauge()",
		"repro_engine_cache_hits_total":       "counter()",
		"repro_engine_cache_misses_total":     "counter()",
		"repro_engine_batches_total":          "counter()",
		"repro_engine_batch_queries_total":    "counter()",
		"repro_engine_batch_size_max":         "gauge()",
		"repro_engine_cache_entries":          "gauge()",
		"repro_node_info":                     "gauge(node)",
		"repro_store_durable":                 "gauge()",
		"repro_tracestore_capacity":           "gauge()",
		"repro_tracestore_retained":           "gauge()",
		"repro_tracestore_kept_total":         "counter(reason)",
		"repro_tracestore_sampled_out_total":  "counter()",
		"repro_tracestore_evicted_total":      "counter()",
		"repro_go_goroutines":                 "gauge()",
		"repro_go_heap_alloc_bytes":           "gauge()",
		"repro_go_heap_objects":               "gauge()",
		"repro_go_sys_bytes":                  "gauge()",
		"repro_go_next_gc_bytes":              "gauge()",
		"repro_go_gc_cycles_total":            "counter()",
		"repro_go_gc_pause_seconds_total":     "counter()",
		"repro_uptime_seconds":                "gauge()",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("metric families:\ngot  %v\nwant %v", got, want)
	}
}

func TestCreateValidation(t *testing.T) {
	e := newEnv(t)
	cases := []struct {
		name    string
		body    any
		code    int
		errCode string
	}{
		{"bad json", "{", http.StatusBadRequest, api.CodeInvalidRequest},
		{"no method", createReq("", "", "Age\n1\n", 0), http.StatusBadRequest, api.CodeInvalidRequest},
		{"empty csv", createReq("burel", `{"beta": 4}`, "", 0), http.StatusBadRequest, api.CodeInvalidRequest},
		{"unknown method", createReq("nope", "", "Age\n1\n", 0), http.StatusBadRequest, api.CodeUnknownMethod},
		{"bad csv", createReq("burel", `{"beta": 4}`, "not,a,census\n1,2,3\n", 0), http.StatusBadRequest, api.CodeInvalidRequest},
		{"bad beta", createReq("burel", `{"beta": -1}`, "x", 0), http.StatusBadRequest, api.CodeInvalidParams},
		{"unknown param field", createReq("burel", `{"betta": 4}`, "x", 0), http.StatusBadRequest, api.CodeInvalidParams},
	}
	for _, tc := range cases {
		var resp *http.Response
		var data []byte
		if s, ok := tc.body.(string); ok {
			r, err := http.Post(e.ts.URL+"/v1/releases", "application/json", strings.NewReader(s))
			if err != nil {
				t.Fatal(err)
			}
			data, _ = io.ReadAll(r.Body)
			r.Body.Close()
			resp = r
		} else {
			resp, data = e.post(t, "/v1/releases", tc.body)
		}
		if resp.StatusCode != tc.code {
			t.Errorf("%s: code %d, want %d (%s)", tc.name, resp.StatusCode, tc.code, data)
		}
		var env api.Envelope
		if err := json.Unmarshal(data, &env); err != nil {
			t.Errorf("%s: body is not an error envelope: %s", tc.name, data)
			continue
		}
		if env.Error.Code != tc.errCode || env.Error.Message == "" {
			t.Errorf("%s: envelope %+v, want code %q", tc.name, env.Error, tc.errCode)
		}
	}
}

func TestQueryErrors(t *testing.T) {
	e := newEnv(t)
	if resp, _ := e.post(t, "/v1/releases/r-000404/query", api.Query{}); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown id: %d, want 404", resp.StatusCode)
	}

	csv, _ := censusCSV(t, 300, 2, 2)
	_, data := e.post(t, "/v1/releases", createReq("anatomy", `{"l": 40, "seed": 1}`, csv, 2))
	var meta api.Release
	if err := json.Unmarshal(data, &meta); err != nil {
		t.Fatal(err)
	}
	meta = e.pollReady(t, meta.ID)
	if meta.Status != api.StatusFailed {
		t.Fatalf("expected failed build, got %s", meta.Status)
	}
	if resp, _ := e.post(t, "/v1/releases/"+meta.ID+"/query", api.Query{}); resp.StatusCode != http.StatusConflict {
		t.Errorf("query failed release: %d, want 409", resp.StatusCode)
	}

	// A ready release rejects malformed queries with 400.
	_, data = e.post(t, "/v1/releases", createReq("burel", `{"beta": 4, "seed": 1}`, csv, 2))
	if err := json.Unmarshal(data, &meta); err != nil {
		t.Fatal(err)
	}
	if meta = e.pollReady(t, meta.ID); meta.Status != api.StatusReady {
		t.Fatalf("build failed: %s", meta.Error)
	}
	bad := []api.Query{
		{Dims: []int{5}, Lo: []float64{0}, Hi: []float64{1}},
		{Dims: []int{0}},       // missing bounds
		{SALo: 2, SAHi: 1},     // inverted SA
		{SALo: 0, SAHi: 10000}, // SA out of domain
	}
	for i, q := range bad {
		if resp, data := e.post(t, "/v1/releases/"+meta.ID+"/query", q); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad query %d: %d (%s)", i, resp.StatusCode, data)
		}
	}
}

// TestNaNBoundQueryRejected: a query whose bounds are not finite numbers
// must be a 400, never an estimate. Regression guard: NaN passes the
// lo > hi ordering check (comparisons against NaN are all false), so a
// NaN bound used to flow into the grid index, produce a NaN estimate,
// and poison the result cache for the query's signature. encoding/json
// already rejects the bare NaN/Infinity tokens, so the bodies are raw
// strings; the out-of-range float exercises the same decoder gate, and a
// finite twin afterwards proves the cache was never poisoned.
func TestNaNBoundQueryRejected(t *testing.T) {
	e := newEnv(t)
	csv, _ := censusCSV(t, 300, 3, 2)
	_, data := e.post(t, "/v1/releases", createReq("burel", `{"beta": 4, "seed": 1}`, csv, 2))
	var meta api.Release
	if err := json.Unmarshal(data, &meta); err != nil {
		t.Fatal(err)
	}
	if meta = e.pollReady(t, meta.ID); meta.Status != api.StatusReady {
		t.Fatalf("build failed: %s", meta.Error)
	}

	bodies := []string{
		`{"dims":[0],"lo":[NaN],"hi":[40],"sa_lo":0,"sa_hi":1}`,
		`{"dims":[0],"lo":[20],"hi":[Infinity],"sa_lo":0,"sa_hi":1}`,
		`{"dims":[0],"lo":[-1e999],"hi":[40],"sa_lo":0,"sa_hi":1}`,
	}
	for i, body := range bodies {
		resp, err := http.Post(e.ts.URL+"/v1/releases/"+meta.ID+"/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("non-finite body %d: %d (%s), want 400", i, resp.StatusCode, data)
		}
		var env api.Envelope
		if err := json.Unmarshal(data, &env); err != nil || env.Error.Code == "" {
			t.Errorf("non-finite body %d: error envelope missing: %s", i, data)
		}
	}

	// The finite twin of the rejected queries answers normally and was
	// not served a poisoned cache entry.
	resp, data := e.post(t, "/v1/releases/"+meta.ID+"/query", api.Query{
		Dims: []int{0}, Lo: []float64{20}, Hi: []float64{40}, SALo: 0, SAHi: 1,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("finite twin: %d: %s", resp.StatusCode, data)
	}
	var qr api.QueryResponse
	if err := json.Unmarshal(data, &qr); err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(qr.Estimate) || qr.Cached {
		t.Fatalf("finite twin: estimate %v cached=%v", qr.Estimate, qr.Cached)
	}
}

// TestConcurrentTraffic uploads several releases and queries them from
// many goroutines at once; meaningful under -race.
func TestConcurrentTraffic(t *testing.T) {
	e := newEnv(t)
	csv, tab := censusCSV(t, 800, 31, 3)

	ids := make([]string, 3)
	for i := range ids {
		_, data := e.post(t, "/v1/releases", createReq("burel", fmt.Sprintf(`{"beta": 4, "seed": %d}`, i), csv, 3))
		var m api.Release
		if err := json.Unmarshal(data, &m); err != nil {
			t.Fatal(err)
		}
		ids[i] = m.ID
	}
	for _, id := range ids {
		if m := e.pollReady(t, id); m.Status != api.StatusReady {
			t.Fatalf("%s: %s", id, m.Error)
		}
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			gen, err := query.NewGenerator(tab.Schema, 2, 0.1, rng)
			if err != nil {
				errCh <- err
				return
			}
			for j := 0; j < 25; j++ {
				q := gen.Next()
				resp, data := e.post(t, "/v1/releases/"+ids[rng.Intn(len(ids))]+"/query", api.Query{
					Dims: q.Dims, Lo: q.Lo, Hi: q.Hi, SALo: q.SALo, SAHi: q.SAHi,
				})
				if resp.StatusCode != http.StatusOK {
					errCh <- fmt.Errorf("worker %d query %d: %d: %s", w, j, resp.StatusCode, data)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}
