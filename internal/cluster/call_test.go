package cluster_test

// Tests of the gateway's one node call: what it sends, when it opens a
// breaker, and that Gateway.Close cancels the node traffic it started.
// The members here are scripted fakes, so each test controls exactly
// how and when a node answers.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/pkg/api"
)

// seenRequest is what a fake node recorded of one request.
type seenRequest struct {
	method, path, auth, requestID string
	bodyLen                       int
}

// fakeNode is a scripted cluster member: it answers /healthz with its
// identity, hands every other request, body included, to its handler,
// and records what the gateway sent.
type fakeNode struct {
	id string
	ts *httptest.Server

	mu   sync.Mutex
	seen []seenRequest
}

func newFakeNode(t *testing.T, id string, handle http.HandlerFunc) *fakeNode {
	t.Helper()
	n := &fakeNode{id: id}
	n.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		r.Body = io.NopCloser(bytes.NewReader(body))
		n.mu.Lock()
		n.seen = append(n.seen, seenRequest{r.Method, r.URL.Path, r.Header.Get("Authorization"), r.Header.Get(api.HeaderRequestID), len(body)})
		n.mu.Unlock()
		if r.URL.Path == "/healthz" {
			fmt.Fprintf(w, `{"status":"ok","node":%q}`, id)
			return
		}
		handle(w, r)
	}))
	t.Cleanup(n.ts.Close)
	return n
}

func (n *fakeNode) requests() []seenRequest {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]seenRequest(nil), n.seen...)
}

// notFound is a fake node's answer to anything it is not scripted for.
func notFound(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusNotFound)
	fmt.Fprint(w, `{"error":{"code":"not_found","message":"no such thing"}}`)
}

// startGateway fronts the fake nodes with a gateway and serves it.
func startGateway(t *testing.T, opts cluster.Options, nodes ...*fakeNode) (*cluster.Gateway, *httptest.Server) {
	t.Helper()
	for _, n := range nodes {
		opts.Nodes = append(opts.Nodes, cluster.Node{ID: n.id, URL: n.ts.URL})
	}
	gw, err := cluster.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(gw)
	t.Cleanup(func() { ts.Close(); gw.Close() })
	return gw, ts
}

func clusterStatus(t *testing.T, url string) api.ClusterStatusResponse {
	t.Helper()
	resp, err := httpGet(url + "/v1/cluster/status")
	if err != nil {
		t.Fatal(err)
	}
	var st api.ClusterStatusResponse
	if err := jsonDecode(resp, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

var failoversLine = regexp.MustCompile(`(?m)^repro_gateway_failovers_total (\d+)$`)

func failoversTotal(t *testing.T, url string) string {
	t.Helper()
	resp, err := httpGet(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	m := failoversLine.FindSubmatch(body)
	if m == nil {
		t.Fatalf("no repro_gateway_failovers_total in:\n%s", body)
	}
	return string(m[1])
}

// TestGatewayCloseCancelsReplication: a node that answers its probe but
// holds the reconcile sweep's catalog request open must not hold
// Gateway.Close hostage — Close cancels the sweep's request before it
// waits for the replicator.
func TestGatewayCloseCancelsReplication(t *testing.T) {
	parked := make(chan struct{}, 1)
	unblock := make(chan struct{})
	node := newFakeNode(t, "n1", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet || r.URL.Path != "/v1/releases" {
			notFound(w, r)
			return
		}
		select {
		case parked <- struct{}{}:
		default:
		}
		select {
		case <-r.Context().Done():
		case <-unblock:
		}
	})
	t.Cleanup(func() { close(unblock) }) // runs before the node's server closes
	gw, err := cluster.New(cluster.Options{
		Nodes:             []cluster.Node{{ID: node.id, URL: node.ts.URL}},
		Replication:       1,
		Token:             testToken,
		ProbeInterval:     time.Hour,
		ReconcileInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-parked:
	case <-time.After(10 * time.Second):
		gw.Close()
		t.Fatal("the reconcile sweep never reached the node")
	}
	closed := make(chan struct{})
	go func() {
		gw.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(time.Second):
		t.Fatal("Gateway.Close still blocked 1s after the reconcile sweep parked on a node")
	}
}

// TestClientCancelKeepsNodeAlive: a client that abandons its batch while
// the node is still working cancels the gateway's node call, and that
// cancellation says nothing about the node — its breaker stays closed
// and no failover is counted.
func TestClientCancelKeepsNodeAlive(t *testing.T) {
	working := make(chan struct{}, 1)
	unblock := make(chan struct{})
	node := newFakeNode(t, "n1", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/query:batch" {
			notFound(w, r)
			return
		}
		select {
		case working <- struct{}{}:
		default:
		}
		select { // still working when the gateway gives up
		case <-r.Context().Done():
		case <-unblock:
		}
	})
	t.Cleanup(func() { close(unblock) })
	_, ts := startGateway(t, cluster.Options{
		Replication:       1,
		Token:             testToken,
		ProbeInterval:     time.Hour,
		ReconcileInterval: time.Hour,
	}, node)
	// The startup probe must have settled, or it could race the batch.
	waitCondition(t, 5*time.Second, "the startup probe", func() bool {
		return clusterStatus(t, ts.URL).Nodes[0].ProbeMillis > 0
	})
	before := failoversTotal(t, ts.URL)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	body := `{"release_id":"n1-r-000001","queries":[{"sa_lo":0,"sa_hi":1}]}`
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/query:batch", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	select {
	case <-working:
	case <-time.After(10 * time.Second):
		t.Fatal("the batch never reached the node")
	}
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("the abandoned batch was answered")
	}
	waitCondition(t, 5*time.Second, "the abandoned node call to end", func() bool {
		return clusterStatus(t, ts.URL).Nodes[0].Inflight == 0
	})
	if st := clusterStatus(t, ts.URL).Nodes[0]; !st.Alive {
		t.Errorf("node %s marked down after a client cancelled its batch", st.ID)
	}
	if after := failoversTotal(t, ts.URL); after != before {
		t.Errorf("repro_gateway_failovers_total went %s → %s on a client cancel", before, after)
	}
}

// TestNodeCallHeaders: the cluster token travels only on /v1/internal/
// requests (replication, trace and load fetches), never on the public
// API or the probe, and every request the gateway routes for a client
// carries that request's ID to the node.
func TestNodeCallHeaders(t *testing.T) {
	const rel = "n1-r-000001"
	env, err := cluster.EncodeEnvelope(rel, "n1", []byte("snapshot bytes"))
	if err != nil {
		t.Fatal(err)
	}
	owner := newFakeNode(t, "n1", func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/releases":
			if r.Method == http.MethodGet {
				fmt.Fprintf(w, `{"releases":[{"id":%q,"status":"ready"}]}`, rel)
				return
			}
		case "/v1/internal/snapshot/" + rel:
			_, _ = w.Write(env)
			return
		case "/v1/internal/load":
			fmt.Fprint(w, `{"origin":"n1"}`)
			return
		}
		notFound(w, r)
	})
	replica := newFakeNode(t, "n2", func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodGet && r.URL.Path == "/v1/releases":
			fmt.Fprint(w, `{"releases":[]}`)
		case r.Method == http.MethodPost && r.URL.Path == "/v1/internal/snapshot":
			w.WriteHeader(http.StatusCreated)
			fmt.Fprintf(w, `{"id":%q,"status":"ready"}`, rel)
		case r.URL.Path == "/v1/internal/load":
			fmt.Fprint(w, `{"origin":"n2"}`)
		default:
			notFound(w, r)
		}
	})
	_, ts := startGateway(t, cluster.Options{
		Replication:       2,
		Token:             testToken,
		ProbeInterval:     20 * time.Millisecond,
		ReconcileInterval: 20 * time.Millisecond,
	}, owner, replica)

	waitCondition(t, 10*time.Second, "replication to n2", func() bool {
		for _, r := range replica.requests() {
			if r.method == http.MethodPost && r.path == "/v1/internal/snapshot" {
				return true
			}
		}
		return false
	})

	// Each client request the gateway routes to a node, and the node
	// request it must turn into.
	routed := []struct{ method, path, body, nodePath string }{
		{http.MethodGet, "/v1/releases", "", "/v1/releases"},
		{http.MethodGet, "/v1/releases/" + rel, "", "/v1/releases/" + rel},
		{http.MethodPost, "/v1/releases", `{"method":"burel"}`, "/v1/releases"},
		{http.MethodPost, "/v1/releases/" + rel + "/query", `{"sa_lo":0,"sa_hi":1}`, "/v1/releases/" + rel + "/query"},
		{http.MethodPost, "/v1/query:batch", `{"release_id":"` + rel + `","queries":[{"sa_lo":0,"sa_hi":1}]}`, "/v1/query:batch"},
		{http.MethodPost, "/v1/releases/" + rel + ":evaluate", `{}`, "/v1/releases/" + rel + ":evaluate"},
		{http.MethodGet, "/v1/releases/" + rel + "/evaluation", "", "/v1/releases/" + rel + "/evaluation"},
	}
	const traceID = "0123456789abcdef0123456789abcdef"
	do := func(method, path, body string) string {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.Header.Get(api.HeaderRequestID)
	}
	ids := make([]string, len(routed))
	for i, rt := range routed {
		if ids[i] = do(rt.method, rt.path, rt.body); ids[i] == "" {
			t.Fatalf("%s %s: no request ID", rt.method, rt.path)
		}
	}
	// The debug pages read the nodes' internal API.
	do(http.MethodGet, "/v1/cluster/overview", "")
	do(http.MethodGet, "/v1/debug/traces/"+traceID, "")

	all := append(owner.requests(), replica.requests()...)
	seen := make(map[string]bool)
	for _, r := range all {
		seen[r.method+" "+r.path] = true
		internal := strings.HasPrefix(r.path, "/v1/internal/")
		if internal && r.auth != "Bearer "+testToken {
			t.Errorf("%s %s carried Authorization %q, want the cluster token", r.method, r.path, r.auth)
		}
		if !internal && r.auth != "" {
			t.Errorf("%s %s carried Authorization %q off the internal API", r.method, r.path, r.auth)
		}
	}
	for _, want := range []string{
		"GET /v1/internal/snapshot/" + rel,
		"POST /v1/internal/snapshot",
		"GET /v1/internal/load",
		"GET /v1/internal/traces/" + traceID,
	} {
		if !seen[want] {
			t.Errorf("no node saw %s", want)
		}
	}
	for i, rt := range routed {
		found := false
		for _, r := range all {
			if r.method == rt.method && r.path == rt.nodePath && r.requestID == ids[i] {
				found = true
			}
		}
		if !found {
			t.Errorf("%s %s: no node saw %s under request ID %q", rt.method, rt.path, rt.nodePath, ids[i])
		}
	}
}

// TestGatewayCreateBodyCap: the gateway answers a create body over
// Options.MaxBodyBytes itself with 413 too_large, and proxies one under
// it.
func TestGatewayCreateBodyCap(t *testing.T) {
	node := newFakeNode(t, "n1", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadRequest)
		fmt.Fprint(w, `{"error":{"code":"invalid_request","message":"scripted"}}`)
	})
	_, ts := startGateway(t, cluster.Options{
		Replication:       1,
		Token:             testToken,
		ProbeInterval:     time.Hour,
		ReconcileInterval: time.Hour,
		MaxBodyBytes:      1 << 10,
	}, node)

	post := func(n int) (int, api.Envelope) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/releases", "application/json", bytes.NewReader(bytes.Repeat([]byte("x"), n)))
		if err != nil {
			t.Fatal(err)
		}
		var env api.Envelope
		if err := jsonDecode(resp, &env); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, env
	}
	if code, env := post(2 << 10); code != http.StatusRequestEntityTooLarge || env.Error.Code != api.CodeTooLarge {
		t.Fatalf("2 KiB create over a 1 KiB cap: %d %+v, want 413 %s", code, env.Error, api.CodeTooLarge)
	}
	if code, env := post(512); code != http.StatusBadRequest || env.Error.Message != "scripted" {
		t.Fatalf("512 B create under a 1 KiB cap: %d %+v, want the node's scripted 400", code, env.Error)
	}
	var creates []int
	for _, r := range node.requests() {
		if r.method == http.MethodPost && r.path == "/v1/releases" {
			creates = append(creates, r.bodyLen)
		}
	}
	if len(creates) != 1 || creates[0] != 512 {
		t.Errorf("node saw create bodies %v, want exactly the 512-byte one", creates)
	}
}

// TestGatewayPprofGate: the gateway's /debug/pprof/ is closed without a
// cluster token, closed to a wrong token, and open to the right one.
func TestGatewayPprofGate(t *testing.T) {
	node := newFakeNode(t, "n1", notFound)
	get := func(url, auth string) int {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, url+"/debug/pprof/", nil)
		if err != nil {
			t.Fatal(err)
		}
		if auth != "" {
			req.Header.Set("Authorization", auth)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	quiet := cluster.Options{Replication: 1, ProbeInterval: time.Hour, ReconcileInterval: time.Hour}
	_, bare := startGateway(t, quiet, node)
	if code := get(bare.URL, "Bearer "+testToken); code != http.StatusForbidden {
		t.Errorf("tokenless gateway served pprof: %d, want 403", code)
	}
	quiet.Token = testToken
	_, gated := startGateway(t, quiet, node)
	if code := get(gated.URL, "Bearer wrong-"+testToken); code != http.StatusForbidden {
		t.Errorf("wrong token: %d, want 403", code)
	}
	if code := get(gated.URL, "Bearer "+testToken); code != http.StatusOK {
		t.Errorf("right token: %d, want 200", code)
	}
}
