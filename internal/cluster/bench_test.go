package cluster_test

// Gateway fan-out benchmarks over a sharded corpus: the same synthetic
// 10k-EC release planted on every node of a 3-node cluster, queried
// through the gateway's scatter/gather path versus one node directly.
// Caches are disabled throughout so the numbers measure routing and
// estimator fan-out, not memoization. BenchmarkGatewayRelayBatch64 runs
// the gateway alone, over stub members, to read its own allocations.

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/anon"
	"repro/internal/census"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/query"
	"repro/internal/release"
	"repro/internal/server"
	"repro/pkg/api"
)

// benchCluster plants one 10k-EC release on n in-memory nodes (same
// snapshot, same ID — exactly what replication produces) behind a
// gateway, and returns the gateway URL, a direct node URL, the release
// ID, and a 256-query pool.
func benchCluster(b *testing.B, n int) (gwURL, nodeURL, id string, pool []api.Query) {
	b.Helper()
	schema := census.Schema().Project(3)
	snap := release.SyntheticSnapshot(schema, 10000, rand.New(rand.NewSource(99)))
	spec := release.Spec{Method: anon.MethodBUREL, Params: anon.NewBURELParams()}
	id = "n1-r-000001"

	members := make([]cluster.Node, n)
	for i := 0; i < n; i++ {
		store, err := release.NewStoreNode(1, nodeID(i))
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := store.RegisterAs(id, snap, spec); err != nil {
			b.Fatal(err)
		}
		srv, err := server.New(store, server.Options{Engine: engine.Options{CacheCapacity: -1}})
		if err != nil {
			b.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		b.Cleanup(func() { ts.Close(); srv.Close(); store.Close() })
		members[i] = cluster.Node{ID: nodeID(i), URL: ts.URL}
		if i == 0 {
			nodeURL = ts.URL
		}
	}
	gw, err := cluster.New(cluster.Options{
		Nodes:             members,
		Replication:       n,
		ProbeInterval:     time.Second,
		ReconcileInterval: time.Hour, // planted by hand; no replication traffic during timing
	})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(gw)
	b.Cleanup(func() { ts.Close(); gw.Close() })

	gen, err := query.NewGenerator(schema, 2, 0.01, rand.New(rand.NewSource(7)))
	if err != nil {
		b.Fatal(err)
	}
	pool = make([]api.Query, 256)
	for i := range pool {
		q := gen.Next()
		pool[i] = api.Query{Dims: q.Dims, Lo: q.Lo, Hi: q.Hi, SALo: q.SALo, SAHi: q.SAHi}
	}
	return ts.URL, nodeURL, id, pool
}

func nodeID(i int) string { return string(rune('n')) + string(rune('1'+i)) }

func benchPost(b *testing.B, hc *http.Client, url string, body any) {
	b.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		b.Fatal(err)
	}
	resp, err := hc.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		b.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("%s: %d: %s", url, resp.StatusCode, data)
	}
}

// runBatchBench fires batchSize-query batches from conc concurrent
// clients — the saturation shape a gateway exists for — and reports
// aggregate queries/sec.
func runBatchBench(b *testing.B, url, id string, pool []api.Query, batchSize, conc int) {
	hc := &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: conc * 2}}
	batch := api.BatchQueryRequest{ReleaseID: id, Queries: pool[:batchSize]}
	benchPost(b, hc, url, batch) // one warm-up round-trip (connection setup)
	b.ResetTimer()
	var wg sync.WaitGroup
	per := (b.N + conc - 1) / conc
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				benchPost(b, hc, url, batch)
			}
		}()
	}
	wg.Wait()
	b.ReportMetric(float64(conc*per*batchSize)/b.Elapsed().Seconds(), "queries/sec")
}

// BenchmarkGatewayBatch64_3Nodes: 64-query batches scattered across a
// 3-node cluster (R=3, cold caches), 8 concurrent clients.
func BenchmarkGatewayBatch64_3Nodes(b *testing.B) {
	gwURL, _, id, pool := benchCluster(b, 3)
	runBatchBench(b, gwURL+"/v1/query:batch", id, pool, 64, 8)
}

// BenchmarkDirectBatch64_1Node: the single-node baseline for the same
// workload — the gateway's scaling denominator.
func BenchmarkDirectBatch64_1Node(b *testing.B) {
	_, nodeURL, id, pool := benchCluster(b, 1)
	runBatchBench(b, nodeURL+"/v1/query:batch", id, pool, 64, 8)
}

// stubNodes stands in for the member nodes as the gateway's HTTP
// transport: /healthz answers with the addressed member's ID (the URL
// host), and every batch with one precomputed 200 answer.
type stubNodes struct {
	header http.Header
	answer []byte
}

func (s *stubNodes) RoundTrip(req *http.Request) (*http.Response, error) {
	body := s.answer
	switch req.URL.Path {
	case "/healthz":
		body = []byte(`{"status":"ok","node":"` + req.URL.Host + `"}`)
	case "/v1/query:batch":
	default:
		return &http.Response{StatusCode: http.StatusNotFound, Header: s.header, Body: http.NoBody, Request: req}, nil
	}
	return &http.Response{
		StatusCode:    http.StatusOK,
		Header:        s.header,
		Body:          io.NopCloser(bytes.NewReader(body)),
		ContentLength: int64(len(body)),
		Request:       req,
	}, nil
}

// discardWriter is a ResponseWriter that keeps the status and one header
// map, cleared per op, and drops the body.
type discardWriter struct {
	header http.Header
	code   int
}

func (w *discardWriter) Header() http.Header { return w.header }

func (w *discardWriter) WriteHeader(code int) { w.code = code }

func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// BenchmarkGatewayRelayBatch64 measures the gateway alone relaying one
// 64-query batch over two stub members (R = 2), so -benchmem reads the
// gateway's own allocations. ServeHTTP is called directly with one
// request, its body rewound per op, and a discarding writer, which
// allocate nothing per op; each of the two 32-query sub-batches is
// answered by the stub transport with one precomputed 200 answer. The
// stub's fixed cost, counted in -benchmem's figures, is its response,
// body reader and closer: 3 allocations and 208 B per sub-batch, so 6
// and 416 B per op (Go 1.24, amd64).
func BenchmarkGatewayRelayBatch64(b *testing.B) {
	schema := census.Schema().Project(3)
	gen, err := query.NewGenerator(schema, 2, 0.01, rand.New(rand.NewSource(7)))
	if err != nil {
		b.Fatal(err)
	}
	const id = "n1-r-000001"
	batch := api.BatchQueryRequest{ReleaseID: id, Queries: make([]api.Query, 64)}
	for i := range batch.Queries {
		q := gen.Next()
		batch.Queries[i] = api.Query{Dims: q.Dims, Lo: q.Lo, Hi: q.Hi, SALo: q.SALo, SAHi: q.SAHi}
	}
	body, err := json.Marshal(batch)
	if err != nil {
		b.Fatal(err)
	}
	answer, err := json.Marshal(api.BatchQueryResponse{ReleaseID: id, Results: make([]api.QueryResult, 32)})
	if err != nil {
		b.Fatal(err)
	}
	stub := &stubNodes{header: http.Header{"Content-Type": {"application/json"}}, answer: answer}
	gw, err := cluster.New(cluster.Options{
		Nodes:              []cluster.Node{{ID: "n1", URL: "http://n1"}, {ID: "n2", URL: "http://n2"}},
		Replication:        2,
		Client:             &http.Client{Transport: stub},
		ProbeInterval:      time.Hour,
		ReconcileInterval:  time.Hour,
		LoadSampleInterval: -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(gw.Close)

	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/v1/query:batch", rd)
	w := &discardWriter{header: http.Header{}}
	serve := func() {
		rd.Reset(body)
		clear(w.header)
		w.code = http.StatusOK
		gw.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			b.Fatalf("batch answered %d", w.code)
		}
	}
	serve() // the first op settles the gateway's lazily built state
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
}
