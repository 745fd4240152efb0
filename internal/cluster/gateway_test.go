package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/anon"
	"repro/internal/census"
	"repro/internal/microdata"
	"repro/internal/query"
	"repro/pkg/api"
	"repro/pkg/client"
)

// censusCSVQs generates the shared workload: a CSV table plus a slice of
// valid queries over its projected schema.
func censusCSVQs(t *testing.T, rows int, seed int64, qi, nq int) (string, *microdata.Table, []api.Query) {
	t.Helper()
	tab := census.Generate(census.Options{N: rows, Seed: seed}).Project(qi)
	var csv strings.Builder
	if err := tab.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	gen, err := query.NewGenerator(tab.Schema, 2, 0.05, rand.New(rand.NewSource(seed+1)))
	if err != nil {
		t.Fatal(err)
	}
	qs := make([]api.Query, nq)
	for i := range qs {
		q := gen.Next()
		qs[i] = api.Query{Dims: q.Dims, Lo: q.Lo, Hi: q.Hi, SALo: q.SALo, SAHi: q.SAHi}
	}
	return csv.String(), tab, qs
}

// readyOn counts how many nodes serve the release ready right now.
func readyOn(nodes []*testNode, id string) int {
	n := 0
	for _, nd := range nodes {
		if nd.store == nil {
			continue
		}
		rel, err := client.New(nd.url()).GetRelease(context.Background(), id)
		if err == nil && rel.Status == api.StatusReady {
			n++
		}
	}
	return n
}

// TestClusterAllMethodsByteIdentical is the acceptance-criteria core: a
// 3-node cluster behind the gateway, one release per registered method
// (BUREL, Anatomy, perturbation, SABRE), replicated everywhere (R=3) —
// and every node, plus the gateway's scatter/gather path, returns batch
// answers exactly equal to every other copy's.
func TestClusterAllMethodsByteIdentical(t *testing.T) {
	nodes, _, ts := startCluster(t, 3, 3)
	ctx := context.Background()
	gwc := client.New(ts.URL)
	csv, _, qs := censusCSVQs(t, 700, 23, 3, 32)

	specs := []client.CreateSpec{
		{Method: anon.MethodBUREL, Params: anon.NewBURELParams(anon.BURELBeta(4), anon.BURELSeed(7)), QI: 3, CSV: csv},
		{Method: anon.MethodAnatomy, Params: anon.NewAnatomyParams(anon.AnatomyL(2), anon.AnatomySeed(7)), QI: 3, CSV: csv},
		{Method: anon.MethodPerturb, Params: anon.NewPerturbParams(anon.PerturbBeta(2), anon.PerturbSeed(7)), QI: 3, CSV: csv},
		{Method: anon.MethodSABRE, Params: anon.NewSABREParams(anon.SABRET(0.15), anon.SABRESeed(7)), QI: 3, CSV: csv},
	}
	ids := make([]string, len(specs))
	for i, spec := range specs {
		rel, err := gwc.CreateRelease(ctx, spec)
		if err != nil {
			t.Fatalf("create %s via gateway: %v", spec.Method, err)
		}
		owned := false
		for _, nd := range nodes {
			owned = owned || strings.HasPrefix(rel.ID, nd.id+"-")
		}
		if !owned {
			t.Fatalf("gateway-created ID %q carries no member prefix", rel.ID)
		}
		ids[i] = rel.ID
	}
	for i, id := range ids {
		if _, err := gwc.WaitReady(ctx, id, 0); err != nil {
			t.Fatalf("%s via gateway: %v", specs[i].Method, err)
		}
		waitCondition(t, 15*time.Second, specs[i].Method+" replicated to all nodes", func() bool {
			return readyOn(nodes, id) == len(nodes)
		})
	}

	for i, id := range ids {
		viaGW, err := gwc.QueryBatch(ctx, id, qs)
		if err != nil {
			t.Fatalf("%s: gateway batch: %v", specs[i].Method, err)
		}
		if len(viaGW.Results) != len(qs) {
			t.Fatalf("%s: gateway answered %d of %d", specs[i].Method, len(viaGW.Results), len(qs))
		}
		for _, nd := range nodes {
			direct, err := client.New(nd.url()).QueryBatch(ctx, id, qs)
			if err != nil {
				t.Fatalf("%s on %s: %v", specs[i].Method, nd.id, err)
			}
			for qi := range qs {
				if direct.Results[qi].Estimate != viaGW.Results[qi].Estimate {
					t.Fatalf("%s query %d: node %s answers %v, gateway %v — replicas must be byte-identical",
						specs[i].Method, qi, nd.id, direct.Results[qi].Estimate, viaGW.Results[qi].Estimate)
				}
			}
		}
		// Single-query routing agrees too.
		res, err := gwc.Query(ctx, id, qs[0])
		if err != nil {
			t.Fatal(err)
		}
		if res.Estimate != viaGW.Results[0].Estimate {
			t.Fatalf("%s: single-query %v vs batch %v", specs[i].Method, res.Estimate, viaGW.Results[0].Estimate)
		}
	}

	// The merged listing reports each release once, despite three copies.
	rels, err := gwc.ListReleases(ctx)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, rel := range rels {
		seen[rel.ID]++
	}
	for _, id := range ids {
		if seen[id] != 1 {
			t.Fatalf("listing shows %s %d times: %v", id, seen[id], seen)
		}
	}

	// Gateway metadata lookup prefers the owner's record: build duration
	// survives (a replica's local install would report none).
	for i, id := range ids {
		rel, err := gwc.GetRelease(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if rel.Status != api.StatusReady || rel.BuildMillis < 0 {
			t.Fatalf("%s metadata via gateway: %+v", specs[i].Method, rel)
		}
	}
}

// TestClusterAggregatesAndGroupBy drives the extended query language
// end-to-end — SDK → gateway → node — against a replicated release:
// every named aggregate answers identically on the gateway's routed path
// and on each replica directly, and a GROUP BY query's cells match the
// gateway's own answers to the equivalent ungrouped per-cell queries.
func TestClusterAggregatesAndGroupBy(t *testing.T) {
	nodes, _, ts := startCluster(t, 2, 2)
	ctx := context.Background()
	gwc := client.New(ts.URL)
	csv, tab, qs := censusCSVQs(t, 600, 29, 3, 4)

	rel, err := gwc.CreateRelease(ctx, client.CreateSpec{
		Method: anon.MethodBUREL, Params: anon.NewBURELParams(anon.BURELBeta(4), anon.BURELSeed(3)), QI: 3, CSV: csv,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gwc.WaitReady(ctx, rel.ID, 0); err != nil {
		t.Fatal(err)
	}
	waitCondition(t, 15*time.Second, "release replicated to all nodes", func() bool {
		return readyOn(nodes, rel.ID) == len(nodes)
	})

	// Every aggregate, via the gateway and via each replica directly.
	for _, agg := range []string{"count", "sum", "avg", "min", "max"} {
		q := qs[0]
		q.Agg = agg
		viaGW, err := gwc.Query(ctx, rel.ID, q)
		if err != nil {
			t.Fatalf("agg %s via gateway: %v", agg, err)
		}
		for _, nd := range nodes {
			direct, err := client.New(nd.url()).Query(ctx, rel.ID, q)
			if err != nil {
				t.Fatalf("agg %s on %s: %v", agg, nd.id, err)
			}
			if direct.Estimate != viaGW.Estimate {
				t.Fatalf("agg %s: node %s answers %v, gateway %v", agg, nd.id, direct.Estimate, viaGW.Estimate)
			}
		}
	}

	// A grouped SUM over the age dimension: the gateway's per-cell
	// answers must equal its answers to the equivalent ungrouped
	// queries, with the key ranges GroupCells defines.
	grouped := api.Query{
		Dims: []int{1}, Lo: []float64{0}, Hi: []float64{0},
		SALo: 0, SAHi: len(tab.Schema.SA.Values) - 1,
		Agg: "sum", GroupBy: []int{0}, GroupBuckets: []int{4},
	}
	res, err := gwc.Query(ctx, rel.ID, grouped)
	if err != nil {
		t.Fatalf("grouped query via gateway: %v", err)
	}
	if res.Estimate != 0 {
		t.Fatalf("grouped query set scalar estimate %v", res.Estimate)
	}
	cells := query.GroupCells(tab.Schema, query.Query{
		Dims: grouped.Dims, Lo: grouped.Lo, Hi: grouped.Hi,
		SALo: grouped.SALo, SAHi: grouped.SAHi,
		Agg: query.Aggregate(grouped.Agg), GroupBy: grouped.GroupBy, GroupBuckets: grouped.GroupBuckets,
	})
	if len(res.Groups) != len(cells) {
		t.Fatalf("gateway returned %d groups, want %d", len(res.Groups), len(cells))
	}
	for ci, c := range cells {
		g := res.Groups[ci]
		if g.Lo[0] != c.Lo[0] || g.Hi[0] != c.Hi[0] {
			t.Fatalf("cell %d: key [%v,%v] want [%v,%v]", ci, g.Lo[0], g.Hi[0], c.Lo[0], c.Hi[0])
		}
		flat, err := gwc.Query(ctx, rel.ID, api.Query{
			Dims: c.Query.Dims, Lo: c.Query.Lo, Hi: c.Query.Hi,
			SALo: c.Query.SALo, SAHi: c.Query.SAHi, Agg: string(c.Query.Agg),
		})
		if err != nil {
			t.Fatalf("cell %d ungrouped twin: %v", ci, err)
		}
		if g.Estimate != flat.Estimate {
			t.Fatalf("cell %d: grouped %v, ungrouped twin %v", ci, g.Estimate, flat.Estimate)
		}
	}

	// The batch route carries Groups too.
	batch, err := gwc.QueryBatch(ctx, rel.ID, []api.Query{grouped, qs[1]})
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Results[0].Groups) != len(cells) || len(batch.Results[1].Groups) != 0 {
		t.Fatalf("batch groups: %d and %d, want %d and 0",
			len(batch.Results[0].Groups), len(batch.Results[1].Groups), len(cells))
	}
	for ci := range cells {
		if batch.Results[0].Groups[ci].Estimate != res.Groups[ci].Estimate {
			t.Fatalf("batch cell %d: %v, single-query %v", ci, batch.Results[0].Groups[ci].Estimate, res.Groups[ci].Estimate)
		}
	}
}

// TestGatewayMissSemantics pins the all-miss outcome of release-addressed
// reads: an ID nobody holds is a plain 404 while its owner is reachable,
// but upgrades to 503 + Retry-After once the owner is down — the owner
// may be mid-build, so "gone" is not knowable and clients must keep
// polling instead of aborting on a terminal not_found.
func TestGatewayMissSemantics(t *testing.T) {
	nodes, _, ts := startCluster(t, 3, 2)
	ctx := context.Background()
	gwc := client.New(ts.URL, client.WithMaxRetries(0))

	_, err := gwc.GetRelease(ctx, "n1-r-000099")
	if !client.IsNotFound(err) {
		t.Fatalf("unknown ID with live owner: %v, want not_found", err)
	}
	nodes[0].kill() // n1 — the configured owner of the prefix
	waitCondition(t, 10*time.Second, "gateway notices the owner died", func() bool {
		_, err := gwc.GetRelease(ctx, "n1-r-000099")
		return client.IsUnavailable(err)
	})
	// A query against the same ID follows the same rule.
	if _, err := gwc.Query(ctx, "n1-r-000099", api.Query{SALo: 0, SAHi: 1}); !client.IsUnavailable(err) {
		t.Fatalf("query with dead owner: %v, want unavailable", err)
	}
	// An ID owned by a live member (or by nobody) stays a plain 404.
	if _, err := gwc.GetRelease(ctx, "n2-r-000099"); !client.IsNotFound(err) {
		t.Fatalf("unknown ID with live owner: %v, want not_found", err)
	}
	if _, err := gwc.GetRelease(ctx, "stranger-r-000001"); !client.IsNotFound(err) {
		t.Fatalf("unowned unknown ID: %v, want not_found", err)
	}
}

// TestGatewayStatusAndMetrics pins the operational surface: cluster
// status lists every member alive, and the metrics exposition carries the
// gateway families.
func TestGatewayStatusAndMetrics(t *testing.T) {
	_, _, ts := startCluster(t, 3, 2)
	resp, err := http.Get(ts.URL + "/v1/cluster/status")
	if err != nil {
		t.Fatal(err)
	}
	var status api.ClusterStatusResponse
	if err := jsonDecode(resp, &status); err != nil {
		t.Fatal(err)
	}
	if status.Replication != 2 || len(status.Nodes) != 3 {
		t.Fatalf("status %+v", status)
	}
	for _, nd := range status.Nodes {
		if !nd.Alive {
			t.Fatalf("node %s reported dead at startup", nd.ID)
		}
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	body := string(raw)
	for _, want := range []string{
		"repro_gateway_requests_total",
		"repro_gateway_node_up{node=\"n1\"} 1",
		"repro_gateway_replication_factor 2",
		"repro_gateway_failovers_total",
		"repro_gateway_replications_total{outcome=\"ok\"}",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
	// The full family set: names, types and label names are the gateway's
	// scrape contract.
	got := exposedFamilies(body)
	wantFamilies := map[string]string{
		"repro_gateway_requests_total":               "counter(code,route)",
		"repro_gateway_request_duration_seconds":     "histogram(route)",
		"repro_gateway_http_inflight_requests":       "gauge()",
		"repro_gateway_stage_duration_seconds":       "histogram()",
		"repro_gateway_probe_duration_seconds":       "histogram()",
		"repro_gateway_failovers_total":              "counter()",
		"repro_gateway_subbatches_total":             "counter()",
		"repro_gateway_replications_total":           "counter(outcome)",
		"repro_gateway_replication_bytes_total":      "counter()",
		"repro_gateway_reconcile_sweeps_total":       "counter()",
		"repro_gateway_replication_factor":           "gauge()",
		"repro_gateway_node_up":                      "gauge(node)",
		"repro_gateway_node_inflight":                "gauge(node)",
		"repro_gateway_tracestore_capacity":          "gauge()",
		"repro_gateway_tracestore_retained":          "gauge()",
		"repro_gateway_tracestore_kept_total":        "counter(reason)",
		"repro_gateway_tracestore_sampled_out_total": "counter()",
		"repro_gateway_tracestore_evicted_total":     "counter()",
		"repro_gateway_go_goroutines":                "gauge()",
		"repro_gateway_go_heap_alloc_bytes":          "gauge()",
		"repro_gateway_go_heap_objects":              "gauge()",
		"repro_gateway_go_sys_bytes":                 "gauge()",
		"repro_gateway_go_next_gc_bytes":             "gauge()",
		"repro_gateway_go_gc_cycles_total":           "counter()",
		"repro_gateway_go_gc_pause_seconds_total":    "counter()",
		"repro_gateway_uptime_seconds":               "gauge()",
	}
	if !reflect.DeepEqual(got, wantFamilies) {
		t.Errorf("metric families:\ngot  %v\nwant %v", got, wantFamilies)
	}

	// Healthz names the role and the live count.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz struct {
		Status     string `json:"status"`
		Role       string `json:"role"`
		NodesAlive int    `json:"nodes_alive"`
	}
	if err := jsonDecode(resp, &hz); err != nil {
		t.Fatal(err)
	}
	if hz.Status != "ok" || hz.Role != "gateway" || hz.NodesAlive != 3 {
		t.Fatalf("healthz %+v", hz)
	}
}

// TestGatewayErrorEnvelopeCarriesRequestID: an error the gateway writes
// itself — not one relayed from a node — mirrors the X-Request-Id header
// under details.request_id, as a node's envelopes do.
func TestGatewayErrorEnvelopeCarriesRequestID(t *testing.T) {
	_, _, ts := startCluster(t, 1, 1)
	resp, err := http.Post(ts.URL+"/v1/query:batch", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	var env api.Envelope
	if err := jsonDecode(resp, &env); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || env.Error.Code != api.CodeInvalidRequest {
		t.Fatalf("malformed batch: %d %+v, want 400 %s", resp.StatusCode, env.Error, api.CodeInvalidRequest)
	}
	rid := resp.Header.Get(api.HeaderRequestID)
	if got, _ := env.Error.Details["request_id"].(string); rid == "" || got != rid {
		t.Errorf("envelope details.request_id = %q, header %q", got, rid)
	}
}

// TestGatewaySubBatchErrorIndex: a query a node rejects is named by its
// index in the client's batch, not in the sub-batch the gateway sent, as
// a single node names it. On a 3-node, R = 2 cluster a 48-query batch
// splits into two sub-batches of 24, so query 40 is the second
// sub-batch's query 16.
func TestGatewaySubBatchErrorIndex(t *testing.T) {
	nodes, _, ts := startCluster(t, 3, 2)
	ctx := context.Background()
	gwc := client.New(ts.URL)
	csv, _, qs := censusCSVQs(t, 600, 31, 3, 48)
	rel, err := gwc.CreateRelease(ctx, client.CreateSpec{
		Method: anon.MethodBUREL, Params: anon.NewBURELParams(anon.BURELBeta(4), anon.BURELSeed(7)), QI: 3, CSV: csv,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gwc.WaitReady(ctx, rel.ID, 0); err != nil {
		t.Fatal(err)
	}
	waitCondition(t, 15*time.Second, "release replicated to R nodes", func() bool {
		return readyOn(nodes, rel.ID) >= 2
	})
	qs[40].Dims[0] = 7 // the schema has 3 QI dimensions
	body, err := json.Marshal(api.BatchQueryRequest{ReleaseID: rel.ID, Queries: qs})
	if err != nil {
		t.Fatal(err)
	}
	envelope := func(url string) api.Error {
		t.Helper()
		resp, err := http.Post(url+"/v1/query:batch", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var env api.Envelope
		if err := jsonDecode(resp, &env); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest || env.Error.Code != api.CodeInvalidQuery {
			t.Fatalf("%s: %d %+v, want 400 %s", url, resp.StatusCode, env.Error, api.CodeInvalidQuery)
		}
		return env.Error
	}
	gw := envelope(ts.URL)
	if !strings.HasPrefix(gw.Message, "query 40: ") || gw.Details["query"] != float64(40) {
		t.Fatalf("gateway names the bad query as %q, details.query = %v; want query 40", gw.Message, gw.Details["query"])
	}
	for _, nd := range nodes {
		if readyOn([]*testNode{nd}, rel.ID) == 0 {
			continue
		}
		if node := envelope(nd.url()); node.Message != gw.Message || node.Details["query"] != gw.Details["query"] {
			t.Fatalf("node %s reports %q (query %v), gateway %q (query %v)", nd.id, node.Message, node.Details["query"], gw.Message, gw.Details["query"])
		}
	}
}
