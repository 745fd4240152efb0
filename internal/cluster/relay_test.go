package cluster_test

// Tests of the batch hop as a byte relay: the gateway splits the
// client's queries at element boundaries and splices the nodes' results,
// so what it refuses, and what it answers, must be what a single node
// refuses and what decoding and re-encoding the merge would write.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/anon"
	"repro/internal/cluster"
	"repro/internal/edge"
	"repro/pkg/api"
	"repro/pkg/client"
)

// replicatedRelease creates a BUREL release through the gateway of a
// 3-node, R = 2 cluster and waits until both replicas serve it; it
// returns the cluster, the release ID and a node that holds it.
func replicatedRelease(t *testing.T, nq int) (ts *httptest.Server, id string, holder *testNode, qs []api.Query) {
	t.Helper()
	nodes, _, ts := startCluster(t, 3, 2)
	ctx := context.Background()
	gwc := client.New(ts.URL)
	csv, _, qs := censusCSVQs(t, 600, 37, 3, nq)
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
	for _, nd := range nodes {
		if readyOn([]*testNode{nd}, rel.ID) == 1 {
			holder = nd
		}
	}
	return ts, rel.ID, holder, qs
}

// postRaw posts a raw batch body and returns the response's status,
// headers and body.
func postRaw(t *testing.T, url, body string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/query:batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, data
}

// TestGatewayRefusesAsNode: every malformed batch gets the same status,
// code and message from the gateway as from one node holding the
// release: syntax errors in the envelope, in a query and in an unknown
// key's value; wrong types for release_id, queries and a query field;
// missing and empty fields; and a query a node rejects (invalid_query)
// in the first sub-batch beside a type error in the second, which a
// single decode of the whole batch answers with invalid_request. The
// gateway's retained trace carries the code, whether the gateway wrote
// the envelope or relayed a node's.
func TestGatewayRefusesAsNode(t *testing.T) {
	ts, id, holder, qs := replicatedRelease(t, 4)
	enc := func(q api.Query) string {
		b, err := json.Marshal(q)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	q := enc(qs[0])
	bad := qs[1]
	bad.Dims = append([]int(nil), bad.Dims...)
	bad.Dims[0] = 7 // the schema has 3 QI dimensions
	badQ := enc(bad)
	rid := strconv.Quote(id)
	batch := func(queries ...string) string {
		return `{"release_id":` + rid + `,"queries":[` + strings.Join(queries, ",") + `]}`
	}
	for _, tc := range []struct{ name, body string }{
		{"empty body", ``},
		{"unclosed envelope", `{`},
		{"truncated envelope", strings.TrimSuffix(batch(q, q), "}")},
		{"trailing bytes", batch(q, q) + ` x`},
		{"missing comma", `{"release_id":` + rid + ` "queries":[` + q + `]}`},
		{"syntax error in a query", batch(q, `{"dims":[0,}`)},
		{"syntax error in an unknown key's value", `{"release_id":` + rid + `,"pad":{"a":tru},"queries":[` + q + `]}`},
		{"release_id a number", `{"release_id":5,"queries":[` + q + `]}`},
		{"queries an object", `{"release_id":` + rid + `,"queries":{}}`},
		{"queries a string", `{"release_id":` + rid + `,"queries":"x"}`},
		{"a query a number", batch(q, q, `5`)},
		{"a query field of the wrong type in sub-batch 0", batch(`{"sa_lo":"1"}`, q, q, q)},
		{"a query field of the wrong type in sub-batch 1", batch(q, q, q, `{"dims":"x"}`)},
		{"two type errors", batch(q, `{"lo":"a"}`, q, `{"hi":"b"}`)},
		{"body null", `null`},
		{"body an array", `[]`},
		{"no fields", `{}`},
		{"no release_id", `{"queries":[` + q + `]}`},
		{"no release_id and a type error", `{"queries":[{"dims":"x"}]}`},
		{"empty release_id", `{"release_id":"","queries":[` + q + `]}`},
		{"no queries", `{"release_id":` + rid + `}`},
		{"empty queries", batch()},
		{"null queries", `{"release_id":` + rid + `,"queries":null}`},
		{"invalid_query in sub-batch 1", batch(q, q, q, badQ)},
		{"invalid_query in sub-batch 0, type error in sub-batch 1", batch(badQ, q, q, `{"lo":"x"}`)},
		{"unknown release, type error in sub-batch 1", `{"release_id":"n9-r-999999","queries":[` + q + `,{"dims":"x"}]}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			outcome := func(url string) (int, api.Error, string) {
				status, header, body := postRaw(t, url, tc.body)
				var env api.Envelope
				if err := json.Unmarshal(body, &env); err != nil {
					t.Fatalf("%s: %d %q is not an error envelope: %v", url, status, body, err)
				}
				return status, env.Error, header.Get(api.HeaderRequestID)
			}
			gwStatus, gw, requestID := outcome(ts.URL)
			nodeStatus, node, _ := outcome(holder.url())
			if gwStatus != nodeStatus || gw.Code != node.Code || gw.Message != node.Message {
				t.Fatalf("gateway: %d %s %q\n   node: %d %s %q", gwStatus, gw.Code, gw.Message, nodeStatus, node.Code, node.Message)
			}
			if gwStatus != http.StatusBadRequest {
				t.Fatalf("%d %s %q, want a 400", gwStatus, gw.Code, gw.Message)
			}
			resp, err := httpGet(ts.URL + "/v1/debug/traces/" + requestID)
			if err != nil {
				t.Fatal(err)
			}
			var doc api.TraceResponse
			if err := jsonDecode(resp, &doc); err != nil {
				t.Fatal(err)
			}
			if doc.ErrorCode != gw.Code {
				t.Fatalf("the gateway's trace of %s records error code %q, want %q", requestID, doc.ErrorCode, gw.Code)
			}
		})
	}
}

// TestGatewayAnswerBytes: the gateway's spliced batch answer — grouped
// queries, results served from the nodes' caches, its request ID — is
// byte for byte what edge.WriteJSON writes for the answer it decodes to,
// and carries its Content-Length.
func TestGatewayAnswerBytes(t *testing.T) {
	ts, id, _, qs := replicatedRelease(t, 6)
	grouped := api.Query{SALo: qs[0].SALo, SAHi: qs[0].SAHi, Agg: "sum", GroupBy: []int{1}, GroupBuckets: []int{4}}
	twoWay := api.Query{Dims: []int{2}, Lo: []float64{0}, Hi: []float64{3}, SALo: qs[1].SALo, SAHi: qs[1].SAHi, GroupBy: []int{0, 1}, GroupBuckets: []int{3, 2}}
	body, err := json.Marshal(api.BatchQueryRequest{ReleaseID: id, Queries: append(qs, grouped, twoWay)})
	if err != nil {
		t.Fatal(err)
	}
	for round := range 2 { // the second round is served from the nodes' caches
		status, header, raw := postRaw(t, ts.URL, string(body))
		if status != http.StatusOK {
			t.Fatalf("round %d: %d %s", round, status, raw)
		}
		var resp api.BatchQueryResponse
		if err := json.Unmarshal(raw, &resp); err != nil {
			t.Fatal(err)
		}
		want := httptest.NewRecorder()
		edge.WriteJSON(want, http.StatusOK, resp)
		if !bytes.Equal(raw, want.Body.Bytes()) {
			t.Fatalf("round %d: gateway answered\n%s\nedge.WriteJSON of its decoded form writes\n%s", round, raw, want.Body)
		}
		if header.Get("Content-Length") != strconv.Itoa(len(raw)) || header.Get("Content-Type") != "application/json" {
			t.Fatalf("round %d: headers %v for a %d-byte answer", round, header, len(raw))
		}
		if resp.RequestID == "" || resp.RequestID != header.Get(api.HeaderRequestID) || resp.ReleaseID != id {
			t.Fatalf("round %d: request_id %q, header %q, release_id %q", round, resp.RequestID, header.Get(api.HeaderRequestID), resp.ReleaseID)
		}
		n := len(resp.Results)
		if n != len(qs)+2 || len(resp.Results[n-2].Groups) < 2 || len(resp.Results[n-1].Groups) < 4 {
			t.Fatalf("round %d: %d results, %d and %d groups", round, n, len(resp.Results[n-2].Groups), len(resp.Results[n-1].Groups))
		}
		if round == 1 && (resp.CacheHits != n || !resp.Results[0].Cached || !resp.Results[n-1].Cached) {
			t.Fatalf("round 1: cache_hits %d of %d", resp.CacheHits, n)
		}
	}
}

// TestGatewayFailsOverMalformedAnswer: a node's 200 that the gateway
// cannot splice — a body cut short, or one result short of its
// sub-batch — is treated like a dead node: the sub-batch fails over
// (repro_gateway_failovers_total +1) and the client gets the full
// answer from the other replica.
func TestGatewayFailsOverMalformedAnswer(t *testing.T) {
	const rel = "n1-r-000001"
	for _, tc := range []struct {
		name  string
		spoil func(answer []byte, results []string) []byte
	}{
		{"truncated body", func(answer []byte, _ []string) []byte { return answer[:len(answer)-3] }},
		{"one result short", func(_ []byte, results []string) []byte {
			return []byte(`{"release_id":"` + rel + `","results":[` + strings.Join(results[1:], ",") + `],"cache_hits":0}`)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var answered atomic.Int32
			// Both members answer every sub-batch with each query's index
			// in it as its estimate; the first answer either sends is
			// spoiled.
			handle := func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path != "/v1/query:batch" {
					notFound(w, r)
					return
				}
				var req api.BatchQueryRequest
				if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
					http.Error(w, err.Error(), http.StatusBadRequest)
					return
				}
				results := make([]string, len(req.Queries))
				for i, q := range req.Queries {
					results[i] = fmt.Sprintf(`{"estimate":%d}`, q.SALo)
				}
				answer := []byte(`{"release_id":"` + rel + `","results":[` + strings.Join(results, ",") + `],"cache_hits":0}` + "\n")
				if answered.Add(1) == 1 {
					answer = tc.spoil(answer, results)
				}
				w.Header().Set("Content-Type", "application/json")
				_, _ = w.Write(answer)
			}
			n1, n2 := newFakeNode(t, "n1", handle), newFakeNode(t, "n2", handle)
			_, ts := startGateway(t, cluster.Options{
				Replication:       2,
				Token:             testToken,
				ProbeInterval:     time.Hour,
				ReconcileInterval: time.Hour,
			}, n1, n2)
			waitCondition(t, 5*time.Second, "the startup probe", func() bool {
				for _, nd := range clusterStatus(t, ts.URL).Nodes {
					if nd.ProbeMillis == 0 {
						return false
					}
				}
				return true
			})
			before := failoversTotal(t, ts.URL)

			qs := make([]api.Query, 6)
			for i := range qs {
				qs[i] = api.Query{SALo: i, SAHi: i}
			}
			resp, err := client.New(ts.URL).QueryBatch(context.Background(), rel, qs)
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range resp.Results {
				if r.Estimate != float64(i) {
					t.Fatalf("result %d = %v, want %d (%+v)", i, r.Estimate, i, resp.Results)
				}
			}
			if len(resp.Results) != len(qs) {
				t.Fatalf("%d results for %d queries", len(resp.Results), len(qs))
			}
			b, _ := strconv.Atoi(before)
			if after := failoversTotal(t, ts.URL); after != strconv.Itoa(b+1) {
				t.Errorf("repro_gateway_failovers_total went %s → %s, want one failover", before, after)
			}
		})
	}
}

// TestTrailingBytesRefused: a JSON request body is one JSON value. Each
// route that decodes one (create, single query, :evaluate and batch)
// answers a body with bytes after that value with 400 invalid_request,
// from a node and through the gateway, which relays the node's refusal
// or, for a batch, refuses it itself.
func TestTrailingBytesRefused(t *testing.T) {
	ts, id, holder, qs := replicatedRelease(t, 2)
	csv, _, _ := censusCSVQs(t, 600, 37, 3, 0)
	enc := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	for path, body := range map[string]string{
		"/v1/releases":                     enc(api.CreateReleaseRequest{Method: anon.MethodBUREL, QI: 3, CSV: csv}),
		"/v1/releases/" + id + "/query":    enc(qs[0]),
		"/v1/releases/" + id + ":evaluate": enc(api.EvaluateRequest{CSV: csv, Queries: 10}),
		"/v1/query:batch":                  enc(api.BatchQueryRequest{ReleaseID: id, Queries: qs}),
	} {
		for role, base := range map[string]string{"gateway": ts.URL, "node": holder.url()} {
			resp, err := http.Post(base+path, "application/json", strings.NewReader(body+" trailing"))
			if err != nil {
				t.Fatal(err)
			}
			var env api.Envelope
			err = json.NewDecoder(resp.Body).Decode(&env)
			resp.Body.Close()
			if err != nil {
				t.Fatalf("%s %s: %d is not an error envelope: %v", role, path, resp.StatusCode, err)
			}
			if resp.StatusCode != http.StatusBadRequest || env.Error.Code != api.CodeInvalidRequest ||
				!strings.Contains(env.Error.Message, "after top-level value") {
				t.Errorf("%s %s: %d %s %q, want 400 %s for the trailing bytes",
					role, path, resp.StatusCode, env.Error.Code, env.Error.Message, api.CodeInvalidRequest)
			}
		}
	}
}
