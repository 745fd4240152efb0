// Package cluster scales the anonymization/query service horizontally: a
// gateway HTTP front end serves the unchanged pkg/api contract over a
// static set of serve nodes, so pkg/client works against a cluster
// exactly as against one process.
//
// The subsystem leans on the property PR 4 made durable: a ready release
// is an immutable, checksummed byte string (the RPROSNAP snapshot), so
// scale-out needs no coordination protocol — a release is built once on
// one node, its snapshot bytes are copied to R−1 replicas, and every
// copy answers queries bit-identically forever.
//
// Three parts:
//
//   - Membership and placement: a flag-configured node list probed via
//     /healthz on an interval, with a per-node circuit breaker (a
//     transport failure opens it unless the request's own context had
//     already ended; the next successful probe closes it). Every
//     gateway-to-node request goes through Membership.call.
//     Releases are placed by rendezvous hashing over (node ID, release
//     ID) with replication factor R; the node whose ID prefixes the
//     release ID (the owner that minted it) always anchors the set.
//
//   - Snapshot replication: when a release becomes ready on its owner,
//     the gateway fetches its snapshot through the node's authenticated
//     GET /v1/internal/snapshot/{id}, wraps nothing — the envelope
//     travels verbatim — and POSTs it to each replica's
//     /v1/internal/snapshot, which lands in Store.RegisterAs. A periodic
//     reconcile sweep re-derives the desired placement from the live
//     catalogs, so replication converges after gateway crashes, node
//     restarts, and membership edits.
//
//   - Scatter/gather query routing: creates proxy to the least-loaded
//     live node (which becomes the owner), reads route across the
//     release's placement with failover past 404s and dead nodes, and
//     POST /v1/query:batch is split into sub-batches fanned across the
//     live replicas, merged back in request order — failing over
//     mid-flight when a node dies under the batch.
//
// Nothing else is coordinated: no consensus, no rebalancing, no
// cross-node locks. Release IDs are globally unique by construction
// (node-prefixed), releases are immutable, and every node's manifest is
// its own source of truth across restarts.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/edge"
	"repro/internal/obs"
	"repro/pkg/api"
)

// Node is one cluster member as configured: its identity (the -node-id
// the serve process runs with, which prefixes the release IDs it mints)
// and its base URL.
type Node struct {
	ID  string
	URL string
}

// nodeState is the gateway's live view of one member.
type nodeState struct {
	node Node
	// alive is the circuit breaker: false while the node is considered
	// down. A transport-level request failure opens the breaker
	// immediately (the failed call already paid the timeout; peers must
	// not), unless the request's context had already ended — a caller
	// that gave up says nothing about the node. Only a successful health
	// probe closes it again: probe-driven half-open, with no request-path
	// retries against a known-dead node in between.
	alive atomic.Bool
	// inflight counts client requests the gateway currently has
	// outstanding against the node (forward); scatter/gather picks the
	// least-loaded replica. The gateway's own traffic — probes, catalog
	// sweeps, replication, debug fetches — is not load here, so it
	// cannot move a client's sub-batch to a replica whose cache is cold
	// for it.
	inflight atomic.Int64
	// fails counts consecutive probe failures, for /v1/cluster/status.
	fails atomic.Int64
	// probeNanos is the last health-probe round-trip time, for
	// /v1/cluster/status; 0 until the first probe completes.
	probeNanos atomic.Int64
	// lastErr is the most recent probe failure ("" after a success), so
	// /v1/cluster/status explains why a node is down without log-digging.
	lastErr atomic.Pointer[string]
}

// lastError returns the most recent probe failure, "" when the last
// probe succeeded or none has completed yet.
func (st *nodeState) lastError() string {
	if p := st.lastErr.Load(); p != nil {
		return *p
	}
	return ""
}

// Membership is the probed node set shared by the gateway's routing and
// replication sides, and the one path by which the gateway talks to
// its nodes.
type Membership struct {
	nodes []*nodeState
	byID  map[string]*nodeState

	hc *http.Client
	// token authenticates the nodes' /v1/internal/ endpoints.
	token string

	// probeLat aggregates health-probe round-trip times across all nodes
	// for the gateway's /metrics.
	probeLat *obs.Histogram
}

// healthzBody is the fraction of a node's /healthz response the prober
// reads: the node identity guards against mis-wired -nodes flags (a URL
// pointing at a different node than configured serves wrong placements
// silently).
type healthzBody struct {
	Status string `json:"status"`
	Node   string `json:"node"`
}

// newMembership builds the node set. Nodes start alive so a gateway is
// useful before its first probe tick; a dead member costs one failed
// request, which opens its breaker.
func newMembership(nodes []Node, hc *http.Client, token string) (*Membership, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: empty node list")
	}
	m := &Membership{
		byID:     make(map[string]*nodeState, len(nodes)),
		hc:       hc,
		token:    token,
		probeLat: &obs.Histogram{},
	}
	for _, n := range nodes {
		if n.ID == "" || n.URL == "" {
			return nil, fmt.Errorf("cluster: node needs both ID and URL, got %+v", n)
		}
		if _, dup := m.byID[n.ID]; dup {
			return nil, fmt.Errorf("cluster: duplicate node ID %q", n.ID)
		}
		st := &nodeState{node: n}
		st.alive.Store(true)
		m.nodes = append(m.nodes, st)
		m.byID[n.ID] = st
	}
	return m, nil
}

// markDown opens a node's circuit breaker.
func (m *Membership) markDown(st *nodeState) {
	st.alive.Store(false)
}

// nodeResponse is one node's complete HTTP answer, buffered so it can be
// relayed or discarded in favor of a failover attempt.
type nodeResponse struct {
	status int
	header http.Header
	body   []byte
}

// call performs one gateway-to-node round trip under ctx and returns the
// buffered answer, whatever its status. It sends the cluster token only
// on internal paths and forwards the edge request ID so the node's logs
// and traces join the caller's under one ID. A transport failure opens
// the node's breaker only if ctx had not already ended.
func (m *Membership) call(ctx context.Context, st *nodeState, method, path string, body []byte) (*nodeResponse, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, st.node.URL+path, rd)
	if err != nil {
		return nil, err
	}
	contentType := "application/json"
	if strings.HasPrefix(path, "/v1/internal/") {
		req.Header.Set("Authorization", "Bearer "+m.token)
		contentType = "application/octet-stream" // a replication envelope
	}
	if body != nil {
		req.Header.Set("Content-Type", contentType)
	}
	obs.PropagateHeaders(req.Header, obs.RequestIDFrom(ctx))
	resp, err := m.hc.Do(req)
	var data []byte
	if err == nil {
		data, err = edge.ReadBody(resp.Body, resp.ContentLength)
		resp.Body.Close()
	}
	if err != nil {
		if ctx.Err() == nil {
			m.markDown(st)
		}
		return nil, err
	}
	return &nodeResponse{status: resp.StatusCode, header: resp.Header, body: data}, nil
}

// forward is call for a client's request: it counts the call in the
// node's in-flight load, which orders the node among its replicas.
func (m *Membership) forward(ctx context.Context, st *nodeState, method, path string, body []byte) (*nodeResponse, error) {
	st.inflight.Add(1)
	defer st.inflight.Add(-1)
	return m.call(ctx, st, method, path, body)
}

// callOK is call for callers that treat any answer outside 2xx as a
// failure: it returns the body, or an error naming the request, the
// node and the answer.
func (m *Membership) callOK(ctx context.Context, st *nodeState, method, path string, body []byte) ([]byte, error) {
	nr, err := m.call(ctx, st, method, path, body)
	if err != nil {
		return nil, err
	}
	if nr.status < 200 || nr.status > 299 {
		return nil, fmt.Errorf("cluster: %s %s on %s: %d: %s", method, path, st.node.ID, nr.status, truncateBody(nr.body))
	}
	return nr.body, nil
}

func truncateBody(b []byte) string {
	const max = 200
	if len(b) > max {
		b = b[:max]
	}
	return string(b)
}

// getJSON GETs path from one node and decodes its JSON answer into out;
// an answer outside 2xx is an error, as in callOK.
func (m *Membership) getJSON(ctx context.Context, st *nodeState, path string, out any) error {
	body, err := m.callOK(ctx, st, http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(body, out); err != nil {
		return fmt.Errorf("cluster: GET %s on %s: %w", path, st.node.ID, err)
	}
	return nil
}

// fanOut calls fn(i) for every i in [0, n) concurrently and returns once
// all calls have; each call writes its result to its own index.
func fanOut(n int, fn func(i int)) {
	var wg sync.WaitGroup
	wg.Add(n)
	for i := range n {
		go func() {
			defer wg.Done()
			fn(i)
		}()
	}
	wg.Wait()
}

// catalogs lists every live node's releases concurrently, indexed like
// m.nodes; nil marks a node that is down or did not answer.
func (m *Membership) catalogs(ctx context.Context) []*api.ListReleasesResponse {
	out := make([]*api.ListReleasesResponse, len(m.nodes))
	fanOut(len(m.nodes), func(i int) {
		var list api.ListReleasesResponse
		if st := m.nodes[i]; st.alive.Load() && m.getJSON(ctx, st, "/v1/releases", &list) == nil {
			out[i] = &list
		}
	})
	return out
}

// minProbeTimeout floors a probe's deadline, which is otherwise the
// probe interval: at a fast cadence (tests run at 25 ms) a scheduling
// stall on a healthy node, or on the gateway, would outlast the
// interval and open the node's breaker. A node that is down refuses the
// connection at once, so the floor only delays noticing a hung one.
const minProbeTimeout = time.Second

// probeLoop re-probes every member on the interval until ctx ends. The
// first sweep runs immediately so a node that was down at gateway start
// is discovered within one round-trip, not one interval.
func (m *Membership) probeLoop(ctx context.Context, every time.Duration) {
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	for {
		m.probeAll(ctx, max(every, minProbeTimeout))
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
	}
}

// probeAll probes every node concurrently and settles before returning.
// Each probe is bounded by timeout so a hung node cannot stall the sweep
// for long; any failure, a timeout included, opens the node's breaker
// and a success closes it.
func (m *Membership) probeAll(ctx context.Context, timeout time.Duration) {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	fanOut(len(m.nodes), func(i int) {
		st := m.nodes[i]
		start := time.Now()
		err := m.probe(ctx, st)
		rtt := time.Since(start)
		st.probeNanos.Store(rtt.Nanoseconds())
		m.probeLat.Observe(rtt)
		if err != nil {
			msg := err.Error()
			st.lastErr.Store(&msg)
			st.fails.Add(1)
			m.markDown(st)
		} else {
			empty := ""
			st.lastErr.Store(&empty)
			st.fails.Store(0)
			st.alive.Store(true)
		}
	})
}

// probe issues one /healthz round-trip and checks the node's identity.
func (m *Membership) probe(ctx context.Context, st *nodeState) error {
	var body healthzBody
	if err := m.getJSON(ctx, st, "/healthz", &body); err != nil {
		return err
	}
	// Exact match required: a node reporting no identity is a serve
	// process missing -node-id, which would mint unprefixed (and
	// therefore colliding) release IDs — exactly the mis-wiring this
	// guard exists to keep out of the routing tables.
	if body.Node != st.node.ID {
		return fmt.Errorf("cluster: node at %s identifies as %q, configured as %q", st.node.URL, body.Node, st.node.ID)
	}
	return nil
}

// aliveCount returns how many members currently pass their breaker.
func (m *Membership) aliveCount() int {
	n := 0
	for _, st := range m.nodes {
		if st.alive.Load() {
			n++
		}
	}
	return n
}
