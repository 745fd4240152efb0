package cluster_test

// End-to-end observability tests: one edge-minted request ID traced
// through a gateway failover across real nodes, and the /metrics
// expositions of both roles held to Prometheus text-format rules.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/anon"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/pkg/api"
	"repro/pkg/client"
)

// slowLine is the slow-query log schema the servers emit.
type slowLine struct {
	Msg       string           `json:"msg"`
	RequestID string           `json:"request_id"`
	Route     string           `json:"route"`
	ReleaseID string           `json:"release_id"`
	Spans     []obs.SpanRecord `json:"spans"`
}

// slowQueryLines greps a captured log for the slow-query entries of one
// request ID — the exact workflow the slow-query log exists for.
func slowQueryLines(buf *syncBuffer, requestID string) []slowLine {
	var out []slowLine
	for _, line := range strings.Split(buf.String(), "\n") {
		if !strings.Contains(line, requestID) {
			continue
		}
		var sl slowLine
		if json.Unmarshal([]byte(line), &sl) != nil {
			continue
		}
		if sl.Msg == "slow query" && sl.RequestID == requestID {
			out = append(out, sl)
		}
	}
	return out
}

// subbatchNodes collects the node labels of every gateway.subbatch span
// in the lines, in order.
func subbatchNodes(lines []slowLine) []string {
	var nodes []string
	for _, sl := range lines {
		for _, sp := range sl.Spans {
			if sp.Stage == "gateway.subbatch" {
				nodes = append(nodes, sp.Node)
			}
		}
	}
	return nodes
}

// postBatch issues one raw batch query and returns the response's edge
// request ID and status.
func postBatch(t *testing.T, url, releaseID string, qs []api.Query) (requestID string, status int) {
	t.Helper()
	body, err := json.Marshal(api.BatchQueryRequest{ReleaseID: releaseID, Queries: qs})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/query:batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.Header.Get(api.HeaderRequestID), resp.StatusCode
}

// TestFailoverTraceOneRequestID is the tracing acceptance test: a batch
// query that fails over mid-flight yields ONE edge-minted request ID
// under which the gateway's slow-query log shows sub-batch spans against
// BOTH replicas (the dead one and the survivor), and the surviving
// node's slow-query log shows the same ID with its engine-stage spans —
// the full cross-process breakdown from a single grep.
func TestFailoverTraceOneRequestID(t *testing.T) {
	nodes := make([]*testNode, 3)
	members := make([]cluster.Node, 3)
	for i := range nodes {
		nodes[i] = &testNode{id: fmt.Sprintf("n%d", i+1), dir: t.TempDir(), logBuf: &syncBuffer{}}
		nodes[i].start(t)
		members[i] = cluster.Node{ID: nodes[i].id, URL: nodes[i].url()}
	}
	gwBuf := &syncBuffer{}
	// Probes and reconcile sweeps stay out of the way (hour-long
	// cadences): either would open the killed node's circuit breaker, and
	// it must still be closed when the traced query arrives, so the
	// failover happens INSIDE the request and both attempts land in one
	// trace. The gateway-proxied create's watch replicates the release.
	gw, err := cluster.New(cluster.Options{
		Nodes:             members,
		Replication:       2,
		Token:             testToken,
		ProbeInterval:     time.Hour,
		ReconcileInterval: time.Hour,
		Logger:            obs.NewLogger(gwBuf, slog.LevelDebug),
		SlowQuery:         time.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(gw)
	t.Cleanup(func() {
		ts.Close()
		gw.Close()
		for _, nd := range nodes {
			nd.kill()
		}
	})

	ctx := context.Background()
	gwc := client.New(ts.URL)
	csv, _, qs := censusCSVQs(t, 400, 11, 3, 4)
	rel, err := gwc.CreateRelease(ctx, client.CreateSpec{
		Method: anon.MethodBUREL,
		Params: anon.NewBURELParams(anon.BURELBeta(4), anon.BURELSeed(5)),
		QI:     3, CSV: csv,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gwc.WaitReady(ctx, rel.ID, 0); err != nil {
		t.Fatal(err)
	}
	waitCondition(t, 15*time.Second, "replication to R=2", func() bool {
		return readyOn(nodes, rel.ID) >= 2
	})

	// Warmup: a single-query batch produces exactly one sub-batch span,
	// revealing which replica the gateway dispatches to first. Idle nodes
	// tie on load, so the stable placement order makes the next dispatch
	// pick the same node.
	warmID, code := postBatch(t, ts.URL, rel.ID, qs[:1])
	if code != http.StatusOK {
		t.Fatalf("warmup batch: status %d", code)
	}
	var firstNode string
	waitCondition(t, 5*time.Second, "warmup slow-query line", func() bool {
		if ns := subbatchNodes(slowQueryLines(gwBuf, warmID)); len(ns) > 0 {
			firstNode = ns[0]
			return true
		}
		return false
	})

	// Kill the first-dispatch replica without the prober noticing.
	for _, nd := range nodes {
		if nd.id == firstNode {
			nd.kill()
		}
	}

	rid, code := postBatch(t, ts.URL, rel.ID, qs[:1])
	if code != http.StatusOK {
		t.Fatalf("failover batch: status %d", code)
	}
	if len(rid) != 32 {
		t.Fatalf("edge request ID %q is not a 32-hex trace ID", rid)
	}
	if rid == warmID {
		t.Fatalf("both requests got request ID %q", rid)
	}

	// Gateway trace: sub-batch spans against BOTH the dead node and the
	// one that answered, in one slow-query line under the edge ID.
	var attempts []string
	waitCondition(t, 5*time.Second, "failover slow-query line with both attempts", func() bool {
		attempts = subbatchNodes(slowQueryLines(gwBuf, rid))
		return len(attempts) >= 2
	})
	if attempts[0] != firstNode {
		t.Errorf("first sub-batch attempt hit %q, want the killed node %q (attempts %v)", attempts[0], firstNode, attempts)
	}
	survivor := attempts[len(attempts)-1]
	if survivor == firstNode {
		t.Fatalf("trace shows no failover: attempts %v all against %q", attempts, firstNode)
	}

	// Node trace: the survivor's slow-query log carries the SAME edge ID
	// with the node-side breakdown (resolve + engine stages).
	var nodeLines []slowLine
	for _, nd := range nodes {
		if nd.id == survivor {
			waitCondition(t, 5*time.Second, "survivor node slow-query line", func() bool {
				nodeLines = slowQueryLines(nd.logBuf, rid)
				return len(nodeLines) > 0
			})
		}
	}
	if len(nodeLines) == 0 {
		t.Fatalf("survivor %q not among the test nodes", survivor)
	}
	nl := nodeLines[0]
	if nl.Route != "batch_query" {
		t.Errorf("survivor slow-query route = %q, want batch_query", nl.Route)
	}
	if nl.ReleaseID != rel.ID {
		t.Errorf("survivor slow-query release_id = %q, want %q", nl.ReleaseID, rel.ID)
	}
	stages := make(map[string]bool)
	for _, sp := range nl.Spans {
		stages[sp.Stage] = true
	}
	for _, want := range []string{"node.resolve", "engine.cache", "engine.estimate", "node.batch_query"} {
		if !stages[want] {
			t.Errorf("survivor trace is missing stage %q (got %v)", want, nl.Spans)
		}
	}

	// The dead replica's log must NOT contain the failover request: the
	// connection died before its handler ran.
	for _, nd := range nodes {
		if nd.id == firstNode && strings.Contains(nd.logBuf.String(), rid) {
			t.Errorf("killed node %q logged request %q", firstNode, rid)
		}
	}
}

// TestMetricsExpositionLint holds both roles' /metrics payloads — after
// real traffic, so histograms and counters are populated — to the
// Prometheus text-format rules the CI gate enforces.
func TestMetricsExpositionLint(t *testing.T) {
	nodes, _, ts := startCluster(t, 3, 2)
	ctx := context.Background()
	gwc := client.New(ts.URL)
	csv, _, qs := censusCSVQs(t, 300, 17, 3, 8)
	rel, err := gwc.CreateRelease(ctx, client.CreateSpec{
		Method: anon.MethodBUREL,
		Params: anon.NewBURELParams(anon.BURELBeta(4), anon.BURELSeed(5)),
		QI:     3, CSV: csv,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gwc.WaitReady(ctx, rel.ID, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := gwc.QueryBatch(ctx, rel.ID, qs); err != nil {
		t.Fatal(err)
	}
	if _, err := gwc.QueryBatch(ctx, rel.ID, qs); err != nil { // repeat: cache-hit path
		t.Fatal(err)
	}

	scrape := func(url string) []byte {
		t.Helper()
		resp, err := httpGet(url + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	gwExpo := scrape(ts.URL)
	if err := obs.LintExposition(gwExpo); err != nil {
		t.Errorf("gateway /metrics fails exposition lint: %v", err)
	}
	// The default scrape is classic 0.0.4 text: exemplar trailers would
	// fail a standard Prometheus parser there, so they must be absent.
	if bytes.Contains(gwExpo, []byte(" # {")) {
		t.Error("exemplar leaked into the gateway's text/plain exposition")
	}
	// Negotiated OpenMetrics carries the exemplars and the EOF terminator.
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "application/openmetrics-text")
	omResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	omExpo, _ := io.ReadAll(omResp.Body)
	omResp.Body.Close()
	if got := omResp.Header.Get("Content-Type"); got != obs.ContentTypeOpenMetrics {
		t.Errorf("gateway OpenMetrics Content-Type = %q, want %q", got, obs.ContentTypeOpenMetrics)
	}
	if err := obs.LintExposition(omExpo); err != nil {
		t.Errorf("gateway OpenMetrics exposition fails lint: %v", err)
	}
	if !bytes.Contains(omExpo, []byte(` # {trace_id="`)) {
		t.Error("gateway OpenMetrics exposition carries no exemplar after real traffic")
	}
	if !bytes.HasSuffix(omExpo, []byte(obs.ExpositionEOF)) {
		t.Errorf("gateway OpenMetrics exposition does not end with %q", obs.ExpositionEOF)
	}
	for _, fam := range []string{
		"repro_gateway_request_duration_seconds_bucket",
		"repro_gateway_stage_duration_seconds_bucket",
		`stage="gateway.subbatch"`,
		"repro_gateway_probe_duration_seconds_count",
		"repro_gateway_go_goroutines",
	} {
		if !bytes.Contains(gwExpo, []byte(fam)) {
			t.Errorf("gateway /metrics is missing %q", fam)
		}
	}
	for i, nd := range nodes {
		expo := scrape(nd.url())
		if err := obs.LintExposition(expo); err != nil {
			t.Errorf("node %d /metrics fails exposition lint: %v", i, err)
		}
	}
	// At least the node that served the batches exposes engine-stage
	// histograms.
	var stageHits int
	for _, nd := range nodes {
		expo := scrape(nd.url())
		if bytes.Contains(expo, []byte(`stage="engine.estimate"`)) {
			stageHits++
		}
	}
	if stageHits == 0 {
		t.Error("no node /metrics exposes engine.estimate stage latency")
	}
}
