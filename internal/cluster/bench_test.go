package cluster_test

// Gateway fan-out benchmarks over a sharded corpus: the same synthetic
// 10k-EC release planted on every node of a 3-node cluster, queried
// through the gateway's scatter/gather path versus one node directly.
// Caches are disabled throughout so the numbers measure routing and
// estimator fan-out, not memoization.

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
