package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/edge"
	"repro/internal/obs"
	"repro/internal/obs/tracestore"
	"repro/pkg/api"
)

// Options configures a Gateway.
type Options struct {
	// Nodes is the static cluster membership. Each entry's ID must match
	// the -node-id its serve process runs with: the gateway derives
	// release ownership from ID prefixes and verifies identity on probe.
	Nodes []Node
	// Replication is the replica count R per release (owner included);
	// ≤ 0 selects 2. Values beyond the node count are clamped.
	Replication int
	// Token authenticates the internal snapshot endpoints on the nodes.
	// Replication requires it; an empty token disables replication (the
	// gateway still routes, degraded to owner-only serving).
	Token string
	// ProbeInterval is the /healthz probing cadence; ≤ 0 selects 2s.
	ProbeInterval time.Duration
	// ReconcileInterval is the replication reconcile cadence; ≤ 0
	// selects 15s.
	ReconcileInterval time.Duration
	// Client overrides the HTTP client used for all node traffic.
	Client *http.Client
	// MaxBodyBytes caps proxied create and :evaluate bodies; ≤ 0
	// selects 256 MiB.
	MaxBodyBytes int64
	// Logger receives the gateway's structured log lines; nil selects
	// slog.Default().
	Logger *slog.Logger
	// SlowQuery is the slow-query log threshold: any request whose total
	// duration reaches it logs its full span breakdown (including per-node
	// sub-batch spans) at Warn, keyed by the edge request ID. ≤ 0 disables.
	SlowQuery time.Duration
	// Trace configures the gateway's retained-trace ring. The zero value
	// selects the tracestore defaults, except SlowThreshold, which
	// inherits SlowQuery when unset so the slow-log and trace retention
	// agree on what "slow" means.
	Trace tracestore.Options
	// LoadSampleInterval is the cadence of the rolling load overview's
	// self-sampling; 0 selects 1s, < 0 disables the sampler.
	LoadSampleInterval time.Duration
}

// Gateway is the cluster's HTTP front end: it serves the same pkg/api
// contract as a single node, implemented by proxying, scattering, and
// gathering over the membership. It implements http.Handler.
type Gateway struct {
	mem     *Membership
	rfactor int
	mux     *http.ServeMux
	edge    *edge.Edge
	repl    *replicator

	// stop cancels the context the prober and the replicator run under,
	// and with it their node requests in flight; wg waits for both.
	stop context.CancelFunc
	wg   sync.WaitGroup

	maxBody      int64
	maxBatchBody int64
	logger       *slog.Logger

	counters
}

// New starts a gateway: the health prober and the replication loop begin
// immediately. Call Close to stop them.
func New(opts Options) (*Gateway, error) {
	hc := opts.Client
	if hc == nil {
		hc = &http.Client{Timeout: 60 * time.Second}
	}
	probe := opts.ProbeInterval
	if probe <= 0 {
		probe = 2 * time.Second
	}
	mem, err := newMembership(opts.Nodes, hc, opts.Token)
	if err != nil {
		return nil, err
	}
	r := opts.Replication
	if r <= 0 {
		r = 2
	}
	if r > len(opts.Nodes) {
		r = len(opts.Nodes)
	}
	g := &Gateway{
		mem:     mem,
		rfactor: r,
		mux:     http.NewServeMux(),
		maxBody: opts.MaxBodyBytes,
		logger:  opts.Logger,
	}
	g.stages = obs.NewLabeledHistograms()
	if g.maxBody <= 0 {
		g.maxBody = 256 << 20
	}
	if g.logger == nil {
		g.logger = slog.Default()
	}
	g.maxBatchBody = min(8<<20, g.maxBody)
	g.edge = edge.New(gatewayRole, edge.Options{
		Logger:             g.logger,
		SlowQuery:          opts.SlowQuery,
		Trace:              opts.Trace,
		LoadSampleInterval: opts.LoadSampleInterval,
	})
	reconcile := opts.ReconcileInterval
	if reconcile <= 0 {
		reconcile = 15 * time.Second
	}
	g.repl = newReplicator(g, reconcile)
	ctx, stop := context.WithCancel(context.Background())
	g.stop = stop
	g.wg.Add(2)
	go func() { defer g.wg.Done(); g.mem.probeLoop(ctx, probe) }()
	go func() { defer g.wg.Done(); g.repl.run(ctx) }()
	instrument := g.edge.Wrap
	g.mux.HandleFunc("GET /healthz", instrument("healthz", g.handleHealthz))
	g.mux.HandleFunc("GET /metrics", instrument("metrics", g.edge.MetricsHandler(g.writeMetrics)))
	g.mux.HandleFunc("GET /v1/cluster/status", instrument("cluster_status", g.handleStatus))
	g.mux.HandleFunc("POST /v1/releases", instrument("create_release", g.handleCreate))
	g.mux.HandleFunc("GET /v1/releases", instrument("list_releases", g.handleList))
	g.mux.HandleFunc("GET /v1/releases/{id}", instrument("get_release", g.handleGet))
	g.mux.HandleFunc("POST /v1/releases/{id}/query", instrument("query_release", g.handleQuery))
	g.mux.HandleFunc("POST /v1/releases/{action}", instrument("release_action", g.handleEvaluate))
	g.mux.HandleFunc("GET /v1/releases/{id}/evaluation", instrument("get_evaluation", g.handleGetEvaluation))
	g.mux.HandleFunc("POST /v1/query:batch", instrument("batch_query", g.handleBatchQuery))
	g.mux.HandleFunc("GET /v1/debug/traces/{id}", instrument("debug_trace", g.handleTraceDebug))
	g.mux.HandleFunc("GET /v1/cluster/overview", instrument("cluster_overview", g.handleOverview))
	g.mux.Handle("/debug/pprof/", obs.PprofHandler(opts.Token))
	return g, nil
}

// Close stops the load sampler, the prober, and the replicator,
// cancelling their node requests in flight before it waits for them.
// In-flight proxied requests are not interrupted.
func (g *Gateway) Close() {
	g.stop()
	g.wg.Wait()
	g.edge.Close()
}

// Replication returns the effective replica count R.
func (g *Gateway) Replication() int { return g.rfactor }

// ServeHTTP implements http.Handler.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	g.mux.ServeHTTP(w, r)
}

// relay copies a node's buffered response to the client. An error
// envelope's code goes to the gateway's retained trace, as if the
// gateway had written it.
func (g *Gateway) relay(w http.ResponseWriter, nr *nodeResponse) {
	for _, h := range []string{"Content-Type", "Retry-After"} {
		if v := nr.header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	var env api.Envelope
	if nr.status >= 400 && json.Unmarshal(nr.body, &env) == nil {
		edge.NoteErrCode(w, env.Error.Code)
	}
	w.WriteHeader(nr.status)
	_, _ = w.Write(nr.body)
}

// noLiveReplica emits the 503 a request gets when every candidate node is
// down or failed mid-flight; Retry-After invites the client SDK's bounded
// retry, by which time the prober may have revived a member.
func noLiveReplica(w http.ResponseWriter, what string) {
	w.Header().Set("Retry-After", "1")
	edge.WriteErr(w, http.StatusServiceUnavailable, api.CodeUnavailable,
		fmt.Errorf("cluster: no live node could serve the %s", what), nil)
}

// readCandidates is the failover order for addressing one release: the
// replica set load-balanced first, then the rest of the placement ranking
// as a last resort (a node outside the set answers 404 and costs one
// hop, but keeps IDs reachable across membership edits).
func (g *Gateway) readCandidates(id string) []*nodeState {
	ranked := g.mem.placement(id)
	r := g.rfactor
	if r > len(ranked) {
		r = len(ranked)
	}
	out := liveByLoad(ranked[:r])
	for _, st := range ranked[r:] {
		if st.alive.Load() {
			out = append(out, st)
		}
	}
	return out
}

// retriableMiss reports a status that, coming from ONE node of a
// replica set, does not settle a release-addressed read: 404 (this
// replica never received the snapshot) and 503 (this replica is
// mid-install, mid-build, or shedding load) — another replica may hold
// the ready copy, so the gateway fails over before believing either.
func retriableMiss(status int) bool {
	return status == http.StatusNotFound || status == http.StatusServiceUnavailable
}

// missTracker remembers the most informative miss seen across a
// failover sweep: a 503 outranks a 404 (a node that knows the release
// is building/installing beats a node that never heard of it — relaying
// the 404 would turn a client's poll loop into a terminal not-found).
type missTracker struct {
	best *nodeResponse
}

func (m *missTracker) note(nr *nodeResponse) {
	if m.best == nil || (m.best.status == http.StatusNotFound && nr.status == http.StatusServiceUnavailable) {
		m.best = nr
	}
}

// relayMiss reports the sweep's outcome when every candidate missed.
// A unanimous 404 while the release's owner is a configured-but-down
// member upgrades to 503 + Retry-After: the owner may be completing the
// build right now, so "gone" is not knowable — "retry" is.
func (g *Gateway) relayMiss(w http.ResponseWriter, releaseID string, m *missTracker, what string) {
	if m.best == nil {
		noLiveReplica(w, what)
		return
	}
	if m.best.status == http.StatusNotFound {
		if owner := g.mem.ownerOf(releaseID); owner != nil && !owner.alive.Load() {
			noLiveReplica(w, what+" (its owner node is down)")
			return
		}
	}
	g.relay(w, m.best)
}

// tryNodes dispatches a release-addressed read to candidates in order,
// failing over past dead nodes and retriable misses. The first
// conclusive response is relayed; an all-miss sweep relays through
// relayMiss; total transport failure yields 503.
func (g *Gateway) tryNodes(w http.ResponseWriter, r *http.Request, candidates []*nodeState, method, path string, body []byte, what, releaseID string) {
	var misses missTracker
	for _, st := range candidates {
		nr, err := g.mem.forward(r.Context(), st, method, path, body)
		if err != nil {
			if r.Context().Err() != nil {
				return // client went away; nothing to relay
			}
			g.failovers.Add(1)
			continue
		}
		if retriableMiss(nr.status) {
			misses.note(nr)
			continue
		}
		g.relay(w, nr)
		return
	}
	g.relayMiss(w, releaseID, &misses, what)
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	edge.WriteJSON(w, http.StatusOK, map[string]any{
		"status":      "ok",
		"role":        "gateway",
		"nodes":       len(g.mem.nodes),
		"nodes_alive": g.mem.aliveCount(),
	})
}

func (g *Gateway) handleStatus(w http.ResponseWriter, _ *http.Request) {
	out := api.ClusterStatusResponse{Replication: g.rfactor}
	for _, st := range g.mem.nodes {
		out.Nodes = append(out.Nodes, api.ClusterNode{
			ID:          st.node.ID,
			URL:         st.node.URL,
			Alive:       st.alive.Load(),
			Inflight:    st.inflight.Load(),
			Failures:    st.fails.Load(),
			ProbeMillis: float64(st.probeNanos.Load()) / 1e6,
			LastError:   st.lastError(),
		})
	}
	edge.WriteJSON(w, http.StatusOK, out)
}

// handleCreate proxies a release creation to the least-loaded live node,
// which becomes the release's owner (its node prefix lands in the minted
// ID). On 202 the replicator starts watching the build so the snapshot
// ships to the replicas as soon as it is ready. Failover retries another
// node only on transport errors — at worst an orphan build on a node
// that died mid-response, never a silently dropped create.
func (g *Gateway) handleCreate(w http.ResponseWriter, r *http.Request) {
	body, err := edge.ReadBody(http.MaxBytesReader(w, r.Body, g.maxBody), r.ContentLength)
	if err != nil {
		edge.WriteBodyErr(w, fmt.Errorf("reading request: %w", err))
		return
	}
	candidates := liveByLoad(g.mem.nodes)
	if len(candidates) == 0 {
		noLiveReplica(w, "create")
		return
	}
	for _, st := range candidates {
		nr, err := g.mem.forward(r.Context(), st, http.MethodPost, "/v1/releases", body)
		if err != nil {
			if r.Context().Err() != nil {
				return
			}
			g.failovers.Add(1)
			continue
		}
		if nr.status == http.StatusAccepted {
			var rel api.Release
			if json.Unmarshal(nr.body, &rel) == nil && rel.ID != "" {
				g.repl.watch(rel.ID)
			}
		}
		g.relay(w, nr)
		return
	}
	noLiveReplica(w, "create")
}

func (g *Gateway) handleGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	obs.TraceFrom(r.Context()).SetRelease(id)
	// Placement order, owner first and NOT load-balanced: during the
	// build only the owner knows the release, and its metadata (build
	// times, spec) is authoritative even after replication.
	candidates := g.placementCandidates(id)
	if len(candidates) == 0 {
		noLiveReplica(w, "release lookup")
		return
	}
	g.tryNodes(w, r, candidates, http.MethodGet, "/v1/releases/"+id, nil, "release lookup", id)
}

func (g *Gateway) handleQuery(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	obs.TraceFrom(r.Context()).SetRelease(id)
	body, err := edge.ReadBody(http.MaxBytesReader(w, r.Body, g.maxBatchBody), r.ContentLength)
	if err != nil {
		edge.WriteBodyErr(w, fmt.Errorf("reading request: %w", err))
		return
	}
	candidates := g.readCandidates(id)
	if len(candidates) == 0 {
		noLiveReplica(w, "query")
		return
	}
	g.tryNodes(w, r, candidates, http.MethodPost, "/v1/releases/"+id+"/query", body, "query", id)
}

// handleEvaluate proxies POST /v1/releases/{id}:evaluate. Evaluations
// are owner-homed — the job runs where the release (and, durably, its
// verdict sidecar) lives, and sidecars are not replicated — so the sweep
// is placement-ordered like handleGet: owner first, replicas only when
// the owner is down.
func (g *Gateway) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	id, ok := edge.EvaluateTarget(w, r)
	if !ok {
		return
	}
	obs.TraceFrom(r.Context()).SetRelease(id)
	body, err := edge.ReadBody(http.MaxBytesReader(w, r.Body, g.maxBody), r.ContentLength)
	if err != nil {
		edge.WriteBodyErr(w, fmt.Errorf("reading request: %w", err))
		return
	}
	candidates := g.placementCandidates(id)
	if len(candidates) == 0 {
		noLiveReplica(w, "evaluation submit")
		return
	}
	g.tryNodes(w, r, candidates, http.MethodPost, "/v1/releases/"+id+":evaluate", body, "evaluation submit", id)
}

// handleGetEvaluation reads a release's evaluation state. The same
// placement order as the submit path finds the verdict wherever the job
// ran: a node without the evaluation answers 404, which tryNodes treats
// as a retriable miss and sweeps past.
func (g *Gateway) handleGetEvaluation(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	obs.TraceFrom(r.Context()).SetRelease(id)
	candidates := g.placementCandidates(id)
	if len(candidates) == 0 {
		noLiveReplica(w, "evaluation lookup")
		return
	}
	g.tryNodes(w, r, candidates, http.MethodGet, "/v1/releases/"+id+"/evaluation", nil, "evaluation lookup", id)
}

// placementCandidates is the live placement ranking for one release:
// owner first, not load-balanced.
func (g *Gateway) placementCandidates(id string) []*nodeState {
	ranked := g.mem.placement(id)
	candidates := make([]*nodeState, 0, len(ranked))
	for _, st := range ranked {
		if st.alive.Load() {
			candidates = append(candidates, st)
		}
	}
	return candidates
}

// handleList fans the listing to every live node and merges the catalogs:
// one entry per release ID, taken from the node earliest in that
// release's placement ranking (the owner when alive — its metadata is the
// recorded build, not a replica's install), ordered newest first.
func (g *Gateway) handleList(w http.ResponseWriter, r *http.Request) {
	catalogs := g.mem.catalogs(r.Context())
	// Placement is a pure function of the ID, so compute each ranking
	// once per distinct release, not once per (release, holder) pair — a
	// big catalog is listed by every node.
	placements := make(map[string][]*nodeState)
	rank := func(id string, st *nodeState) int {
		ranked, ok := placements[id]
		if !ok {
			ranked = g.mem.placement(id)
			placements[id] = ranked
		}
		for i, p := range ranked {
			if p == st {
				return i
			}
		}
		return len(g.mem.nodes)
	}
	best := make(map[string]api.Release)
	bestRank := make(map[string]int)
	answered := false
	for i, cat := range catalogs {
		if cat == nil {
			continue
		}
		answered = true
		for _, rel := range cat.Releases {
			rk := rank(rel.ID, g.mem.nodes[i])
			if cur, ok := bestRank[rel.ID]; !ok || rk < cur {
				best[rel.ID] = rel
				bestRank[rel.ID] = rk
			}
		}
	}
	if !answered {
		noLiveReplica(w, "listing")
		return
	}
	merged := make([]api.Release, 0, len(best))
	for _, rel := range best {
		merged = append(merged, rel)
	}
	sort.Slice(merged, func(i, j int) bool {
		if !merged[i].CreatedAt.Equal(merged[j].CreatedAt) {
			return merged[i].CreatedAt.After(merged[j].CreatedAt)
		}
		return merged[i].ID < merged[j].ID
	})
	edge.WriteJSON(w, http.StatusOK, api.ListReleasesResponse{Releases: merged})
}

// subBatch is one scatter unit: a contiguous slice of the request's
// queries, each as the client encoded it, bound for one replica.
type subBatch struct {
	start   int
	queries [][]byte
}

// handleBatchQuery splits a batch across the release's live replicas,
// dispatches the sub-batches concurrently to the least-loaded nodes, and
// splices the answers back in request order. The gateway decodes no
// query and no answer: it forwards each query's bytes and relays each
// result's. A sub-batch whose node dies mid-flight fails over to the
// next live replica; only when every candidate is gone does the batch
// fail.
func (g *Gateway) handleBatchQuery(w http.ResponseWriter, r *http.Request) {
	req, ok := edge.ReadBatch(w, r, g.maxBatchBody)
	if !ok {
		return
	}
	tr := obs.TraceFrom(r.Context())
	tr.SetRelease(req.ReleaseID)
	candidates := g.readCandidates(req.ReleaseID)
	if len(candidates) == 0 {
		noLiveReplica(w, "batch")
		return
	}

	// One sub-batch per live replica in the replica set (never more than
	// there are queries); a single replica degenerates to a plain proxy.
	fan := g.rfactor
	if len(candidates) < fan {
		fan = len(candidates)
	}
	if len(req.Queries) < fan {
		fan = len(req.Queries)
	}
	chunks := make([]subBatch, 0, fan)
	per := (len(req.Queries) + fan - 1) / fan
	for start := 0; start < len(req.Queries); start += per {
		end := min(start+per, len(req.Queries))
		chunks = append(chunks, subBatch{start: start, queries: req.Queries[start:end]})
	}
	g.subBatches.Add(uint64(len(chunks)))

	outcomes := make([]chunkOutcome, len(chunks))
	fanStart := time.Now()
	fanOut(len(chunks), func(ci int) {
		outcomes[ci] = g.dispatchChunk(r, req.ReleaseID, chunks[ci], candidates, ci)
	})
	g.stages.Observe("gateway.fanout", time.Since(fanStart))

	endMerge := tr.StartSpan("gateway.merge")
	mergeStart := time.Now()
	defer func() { g.stages.Observe("gateway.merge", time.Since(mergeStart)); endMerge() }()
	// A query's type errors are left to the nodes. One decode of the
	// whole batch refuses it before resolving the release, so a chunk's
	// 400 invalid_request outranks every other chunk's outcome.
	for _, oc := range outcomes {
		if oc.bad != nil && invalidRequest(oc.bad) {
			g.relay(w, oc.bad)
			return
		}
	}
	results := make([][]byte, 0, len(req.Queries))
	hits := 0
	for ci, oc := range outcomes {
		if oc.bad != nil {
			g.relayChunkErr(w, oc.bad, chunks[ci].start)
			return
		}
		if oc.miss != nil {
			g.relayMiss(w, req.ReleaseID, oc.miss, "batch")
			return
		}
		if oc.err != nil {
			noLiveReplica(w, "batch")
			return
		}
		results = append(results, oc.results...)
		hits += oc.hits
	}
	// The spliced answer is gateway-built, so the edge request ID must be
	// restated here — sub-batch answers carry it, but not verbatim.
	edge.WriteBatchAnswer(w, req.ReleaseID, tr.RequestID, results, hits)
}

// invalidRequest reports a node's 400 invalid_request.
func invalidRequest(nr *nodeResponse) bool {
	var env api.Envelope
	return nr.status == http.StatusBadRequest &&
		json.Unmarshal(nr.body, &env) == nil && env.Error.Code == api.CodeInvalidRequest
}

// relayChunkErr relays a sub-batch's conclusive non-2xx. A node names
// the query it rejects by its index in the batch it was sent, so a 400
// invalid_query from a sub-batch starting at start is restated with the
// index into the client's batch, in details.query and in the message's
// "query N:" prefix, as a single node would report it. Every other
// answer is relayed verbatim.
func (g *Gateway) relayChunkErr(w http.ResponseWriter, nr *nodeResponse, start int) {
	var env api.Envelope
	if start > 0 && nr.status == http.StatusBadRequest &&
		json.Unmarshal(nr.body, &env) == nil && env.Error.Code == api.CodeInvalidQuery {
		if idx, ok := env.Error.Details["query"].(float64); ok {
			i := int(idx)
			env.Error.Details["query"] = i + start
			if rest, ok := strings.CutPrefix(env.Error.Message, fmt.Sprintf("query %d: ", i)); ok {
				env.Error.Message = fmt.Sprintf("query %d: %s", i+start, rest)
			}
			edge.NoteErrCode(w, env.Error.Code)
			edge.WriteJSON(w, nr.status, env)
			return
		}
	}
	g.relay(w, nr)
}

// chunkOutcome is one sub-batch's result: exactly one of results (the
// node's encoded results, with its cache hits), a conclusive non-2xx to
// relay, an all-candidates miss, or a total failure is set.
type chunkOutcome struct {
	results [][]byte
	hits    int
	bad     *nodeResponse
	miss    *missTracker
	err     error
}

// dispatchChunk sends one sub-batch, failing over through the candidate
// list. Candidates are tried starting at a per-chunk offset so
// concurrent chunks spread over distinct replicas.
func (g *Gateway) dispatchChunk(r *http.Request, releaseID string, ch subBatch, candidates []*nodeState, offset int) (oc chunkOutcome) {
	body := edge.BatchBody(releaseID, ch.queries)
	tr := obs.TraceFrom(r.Context())
	var misses missTracker
	for i := 0; i < len(candidates); i++ {
		st := candidates[(offset+i)%len(candidates)]
		if !st.alive.Load() && i < len(candidates)-1 {
			continue // died under this batch; skip unless it is the last hope
		}
		// One span per attempt, node-labeled: a failover shows up as two
		// sub-batch spans against different nodes in the same trace.
		endSpan := tr.StartSpanNode("gateway.subbatch", st.node.ID)
		attemptStart := time.Now()
		nr, err := g.mem.forward(r.Context(), st, http.MethodPost, "/v1/query:batch", body)
		g.stages.Observe("gateway.subbatch", time.Since(attemptStart))
		endSpan()
		if err != nil {
			if r.Context().Err() != nil {
				oc.err = err
				return oc
			}
			g.failovers.Add(1)
			continue
		}
		if retriableMiss(nr.status) {
			misses.note(nr)
			continue
		}
		if nr.status != http.StatusOK {
			oc.bad = nr
			return oc
		}
		results, hits, ok := edge.SplitBatchAnswer(nr.body, len(ch.queries))
		if !ok || len(results) != len(ch.queries) {
			g.failovers.Add(1)
			continue // malformed answer; treat like a dead node
		}
		oc.results, oc.hits = results, hits
		return oc
	}
	if misses.best != nil {
		oc.miss = &misses
		return oc
	}
	oc.err = fmt.Errorf("cluster: no live replica for sub-batch")
	return oc
}
