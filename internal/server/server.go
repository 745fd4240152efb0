// Package server exposes the release store over a JSON HTTP API:
//
//	POST /v1/releases            upload a CSV + {method, params};
//	                             returns 202 with the new release's ID
//	GET  /v1/releases            list releases, newest first
//	GET  /v1/releases/{id}       release status and metadata
//	POST /v1/releases/{id}/query COUNT(*) estimate against a ready release
//	POST /v1/query:batch         N COUNT(*) estimates against one release
//	POST /v1/releases/{id}:evaluate  submit an async privacy/utility
//	                             evaluation (body re-uploads the original
//	                             microdata); returns 202 with the job state
//	GET  /v1/releases/{id}/evaluation  evaluation state, verdict when done
//	GET  /healthz                liveness probe (+ node identity)
//	GET  /metrics                Prometheus-format counters
//
// With Options.ClusterToken set, two authenticated cluster-internal
// routes are added for snapshot replication (see cluster.go and
// internal/cluster):
//
//	GET  /v1/internal/snapshot/{id}  fetch a ready release's snapshot
//	POST /v1/internal/snapshot       install a replicated snapshot
//
// Wire types live in repro/pkg/api; anonymization methods are resolved
// through the repro/anon registry, so the server serves any registered
// scheme without a per-method switch. Every error response, on every
// route, is the api.Envelope {"error": {code, message, details}}.
//
// Anonymization runs asynchronously on the store's worker pool; clients
// poll the release until its status is "ready" and then issue queries.
// Evaluations likewise run asynchronously on the eval service's pool
// (internal/eval), and finished verdicts persist as checksummed sidecars
// next to the release snapshots on durable stores.
// Both query routes go through the batch engine of internal/engine (a
// single query is a batch of one): estimates come from the per-release
// EC index, fanned out across a worker pool and memoized in a sharded
// LRU result cache keyed by the immutable release ID.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"time"

	"repro/anon"
	"repro/internal/census"
	"repro/internal/edge"
	"repro/internal/engine"
	"repro/internal/eval"
	"repro/internal/microdata"
	"repro/internal/obs"
	"repro/internal/obs/tracestore"
	"repro/internal/query"
	"repro/internal/release"
	"repro/pkg/api"
)

// Options configures a Server.
type Options struct {
	// Schema parses uploaded CSVs; nil selects the CENSUS schema of
	// Table 3 (the format cmd/datagen emits).
	Schema *microdata.Schema
	// MaxBodyBytes caps request bodies; ≤ 0 selects 256 MiB.
	MaxBodyBytes int64
	// Engine configures the batch query engine (worker pool size,
	// result-cache capacity, per-request batch cap); the zero value
	// selects the engine defaults.
	Engine engine.Options
	// EvalWorkers is the evaluation service's concurrency; ≤ 0 selects
	// eval.DefaultWorkers.
	EvalWorkers int
	// ClusterToken enables the cluster-internal snapshot endpoints
	// (GET/POST /v1/internal/snapshot...) and authenticates them as a
	// Bearer token; it also gates the /debug/pprof/ profiling surface.
	// Empty keeps them disabled (403).
	ClusterToken string
	// Logger receives the server's structured log lines; nil selects
	// slog.Default().
	Logger *slog.Logger
	// SlowQuery is the slow-query log threshold: any request whose total
	// duration reaches it logs its full span breakdown at Warn, keyed by
	// request ID. ≤ 0 disables the slow-query log.
	SlowQuery time.Duration
	// Trace configures the retained-trace store every finished request
	// commits into (GET /v1/debug/traces/{id}); zero values select the
	// tracestore defaults. When SlowQuery is set and Trace.SlowThreshold
	// is not, the slow-query threshold doubles as the trace-retention one
	// so the two surfaces agree on what "slow" means.
	Trace tracestore.Options
	// LoadSampleInterval is the cadence of the rolling load-overview ring
	// (GET /v1/internal/load). 0 selects 1s; < 0 disables sampling.
	LoadSampleInterval time.Duration
}

// Server is the HTTP front end; it implements http.Handler.
type Server struct {
	store   *release.Store
	engine  *engine.Engine
	eval    *eval.Service
	schema  *microdata.Schema
	edge    *edge.Edge
	mux     *http.ServeMux
	maxBody int64
	// Query-route body caps, bounded independently of maxBody: that
	// limit is sized for CSV uploads, and letting a query route decode a
	// CSV-sized JSON body of predicate arrays would amplify a few MB of
	// text into GBs of slices before any validation could reject it.
	maxQueryBody, maxBatchBody int64
	clusterToken               string
}

// New wires the API around a store. On a durable store it also opens the
// evaluation service's log in the store's data directory, recovering
// persisted verdicts — the only error path. Call Close to stop the
// server's query engine and evaluation workers when done.
func New(store *release.Store, opts Options) (*Server, error) {
	evalSvc, err := eval.NewService(store, opts.EvalWorkers)
	if err != nil {
		return nil, fmt.Errorf("server: starting eval service: %w", err)
	}
	s := &Server{
		store:        store,
		engine:       engine.New(opts.Engine),
		eval:         evalSvc,
		schema:       opts.Schema,
		mux:          http.NewServeMux(),
		maxBody:      opts.MaxBodyBytes,
		clusterToken: opts.ClusterToken,
	}
	if s.schema == nil {
		s.schema = census.Schema()
	}
	if s.maxBody <= 0 {
		s.maxBody = 256 << 20
	}
	s.maxQueryBody = min(1<<20, s.maxBody)
	s.maxBatchBody = min(8<<20, s.maxBody)
	// The load sampler's throughput is engine queries, not requests: a
	// batch of 64 is 64 units of work.
	s.edge = edge.New(nodeRole, edge.Options{
		Node:               store.Node(),
		Logger:             opts.Logger,
		SlowQuery:          opts.SlowQuery,
		Trace:              opts.Trace,
		LoadSampleInterval: opts.LoadSampleInterval,
		Work:               func() (uint64, int) { return s.engine.Stats().Queries, s.engine.QueueDepth() },
	})
	instrument := s.edge.Wrap
	s.mux.HandleFunc("GET /healthz", instrument("healthz", s.handleHealthz))
	s.mux.HandleFunc("GET /metrics", instrument("metrics", s.edge.MetricsHandler(s.writeMetrics)))
	s.mux.HandleFunc("POST /v1/releases", instrument("create_release", s.handleCreate))
	s.mux.HandleFunc("GET /v1/releases", instrument("list_releases", s.handleList))
	s.mux.HandleFunc("GET /v1/releases/{id}", instrument("get_release", s.handleGet))
	s.mux.HandleFunc("POST /v1/releases/{id}/query", instrument("query_release", s.handleQuery))
	// {action} spans the "{id}:evaluate" segment; mux wildcards cannot
	// split on the colon, so the handler does.
	s.mux.HandleFunc("POST /v1/releases/{action}", instrument("release_action", s.handleEvaluate))
	s.mux.HandleFunc("GET /v1/releases/{id}/evaluation", instrument("get_evaluation", s.handleGetEvaluation))
	s.mux.HandleFunc("POST /v1/query:batch", instrument("batch_query", s.handleBatchQuery))
	s.mux.HandleFunc("GET /v1/internal/snapshot/{id}", instrument("internal_snapshot_get", s.requireCluster(s.handleSnapshotGet)))
	s.mux.HandleFunc("POST /v1/internal/snapshot", instrument("internal_snapshot_put", s.requireCluster(s.handleSnapshotPut)))
	// Trace-plane reads: the locally retained traces, ungated on /v1/debug
	// for single-process debugging and Bearer-gated on /v1/internal for the
	// gateway's cross-node assembly, plus the load series for its overview.
	s.mux.HandleFunc("GET /v1/debug/traces/{id}", instrument("debug_trace", s.edge.HandleTrace))
	s.mux.HandleFunc("GET /v1/internal/traces/{id}", instrument("internal_trace_get", s.requireCluster(s.edge.HandleTrace)))
	s.mux.HandleFunc("GET /v1/internal/load", instrument("internal_load", s.requireCluster(s.edge.HandleLoad)))
	s.mux.Handle("/debug/pprof/", obs.PprofHandler(opts.ClusterToken))
	return s, nil
}

// Close stops the query engine's worker pool, the evaluation service,
// and the load sampler. The store's lifecycle is owned by the caller.
func (s *Server) Close() {
	s.edge.Close()
	s.engine.Close()
	s.eval.Close()
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// handleHealthz reports liveness, plus the node identity when the store
// runs with one: a cluster gateway's prober verifies it against the
// configured membership, catching mis-wired -nodes flags.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if node := s.store.Node(); node != "" {
		fmt.Fprintf(w, "{\"status\":\"ok\",\"node\":%q}\n", node)
		return
	}
	fmt.Fprintln(w, `{"status":"ok"}`)
}

// metaToAPI converts store metadata to its wire form. The typed params
// are re-marshaled into the raw JSON object the client sees.
func metaToAPI(m release.Meta) api.Release {
	var raw api.RawParams
	if m.Spec.Params != nil {
		raw, _ = json.Marshal(m.Spec.Params)
	}
	return api.Release{
		ID:      m.ID,
		Version: m.Version,
		Spec: api.ReleaseSpec{
			Method:    m.Spec.Method,
			Params:    raw,
			QI:        m.Spec.QI,
			GridCells: m.Spec.GridCells,
		},
		Status:      string(m.Status),
		Error:       m.Error,
		Rows:        m.Rows,
		NumECs:      m.NumECs,
		AIL:         m.AIL,
		CreatedAt:   m.CreatedAt,
		ReadyAt:     m.ReadyAt,
		BuildMillis: m.BuildMillis,
		Persisted:   m.Persisted,
	}
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req api.CreateReleaseRequest
	if !edge.DecodeJSON(w, r, s.maxBody, &req) {
		return
	}
	if strings.TrimSpace(req.Method) == "" {
		edge.WriteErr(w, http.StatusBadRequest, api.CodeInvalidRequest, fmt.Errorf("method field is empty"), map[string]any{"methods": anon.Methods()})
		return
	}
	if strings.TrimSpace(req.CSV) == "" {
		edge.WriteErr(w, http.StatusBadRequest, api.CodeInvalidRequest, fmt.Errorf("csv field is empty"), nil)
		return
	}
	// Resolve the method and decode its typed params before touching the
	// CSV: a bad method name should not cost a table parse.
	params, err := anon.UnmarshalParams(req.Method, req.Params)
	if err != nil {
		edge.WriteErr(w, http.StatusBadRequest, anonCode(err), err, map[string]any{"method": req.Method})
		return
	}
	schema := s.schema
	if req.QI > 0 && req.QI < len(schema.QI) {
		schema = schema.Project(req.QI)
	}
	tab, err := microdata.ReadCSV(strings.NewReader(req.CSV), schema)
	if err != nil {
		edge.WriteErr(w, http.StatusBadRequest, api.CodeInvalidRequest, err, nil)
		return
	}
	// QI is recorded for metadata fidelity; the table is already
	// projected, so the build-time projection is a no-op. The build is
	// intentionally detached from the request context: the 202 contract
	// means the client walks away while the build proceeds.
	spec := release.Spec{Method: req.Method, Params: params, QI: req.QI, GridCells: req.GridCells}
	meta, err := s.store.Submit(context.WithoutCancel(r.Context()), tab, spec)
	if err != nil {
		if errors.Is(err, release.ErrQueueFull) || errors.Is(err, release.ErrClosed) {
			w.Header().Set("Retry-After", "1")
			edge.WriteErr(w, http.StatusServiceUnavailable, api.CodeUnavailable, err, nil)
			return
		}
		edge.WriteErr(w, http.StatusBadRequest, anonCode(err), err, nil)
		return
	}
	edge.WriteJSON(w, http.StatusAccepted, metaToAPI(meta))
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	metas := s.store.List()
	out := api.ListReleasesResponse{Releases: make([]api.Release, len(metas))}
	for i, m := range metas {
		out.Releases[i] = metaToAPI(m)
	}
	edge.WriteJSON(w, http.StatusOK, out)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	meta, ok := s.store.Get(id)
	if !ok {
		edge.WriteErr(w, http.StatusNotFound, api.CodeNotFound, fmt.Errorf("no release %q", id), nil)
		return
	}
	edge.WriteJSON(w, http.StatusOK, metaToAPI(meta))
}

// toQuery converts the wire form to the internal query type.
func toQuery(r api.Query) query.Query {
	return query.Query{
		Dims: r.Dims, Lo: r.Lo, Hi: r.Hi,
		SALo: r.SALo, SAHi: r.SAHi,
		Agg:     query.Aggregate(r.Agg),
		GroupBy: r.GroupBy, GroupBuckets: r.GroupBuckets,
	}
}

// toGroups converts the engine's per-cell results to their wire form;
// nil in, nil out, so ungrouped results stay free of the field.
func toGroups(groups []engine.GroupResult) []api.GroupResult {
	if groups == nil {
		return nil
	}
	out := make([]api.GroupResult, len(groups))
	for i, g := range groups {
		out[i] = api.GroupResult{Lo: g.Lo, Hi: g.Hi, Estimate: g.Estimate}
	}
	return out
}

// resolveSnapshot maps a release ID to its queryable snapshot or to the
// HTTP status describing why it cannot be queried: 404 for unknown IDs,
// 409 for failed builds (a permanent condition for that ID), 503 with
// Retry-After for pending/building releases (the client should poll).
func (s *Server) resolveSnapshot(w http.ResponseWriter, id string) (*release.Snapshot, bool) {
	meta, ok := s.store.Get(id)
	if !ok {
		edge.WriteErr(w, http.StatusNotFound, api.CodeNotFound, fmt.Errorf("%w: %q", release.ErrNotFound, id), nil)
		return nil, false
	}
	switch meta.Status {
	case release.StatusPending, release.StatusBuilding:
		w.Header().Set("Retry-After", "1")
		edge.WriteErr(w, http.StatusServiceUnavailable, api.CodeNotReady,
			fmt.Errorf("%w: release %s is %s", release.ErrNotReady, id, meta.Status),
			map[string]any{"status": string(meta.Status)})
		return nil, false
	case release.StatusFailed:
		edge.WriteErr(w, http.StatusConflict, api.CodeBuildFailed,
			fmt.Errorf("%w: release %s failed: %s", release.ErrNotReady, id, meta.Error), nil)
		return nil, false
	}
	snap, err := s.store.Snapshot(id)
	if err != nil {
		edge.WriteErr(w, http.StatusInternalServerError, api.CodeInternal, err, nil)
		return nil, false
	}
	return snap, true
}

// executeErr maps an engine.Execute failure to its status and code.
func executeErr(w http.ResponseWriter, err error) {
	var qe *engine.QueryError
	switch {
	case errors.As(err, &qe):
		edge.WriteErr(w, http.StatusBadRequest, api.CodeInvalidQuery, err, map[string]any{"query": qe.Index})
	case errors.Is(err, engine.ErrBatchTooLarge):
		edge.WriteErr(w, http.StatusRequestEntityTooLarge, api.CodeTooLarge, err, nil)
	case errors.Is(err, engine.ErrClosed), errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// A closing engine or a batch cut by its request's context is not
		// the release's fault: the batch may be retried as sent.
		w.Header().Set("Retry-After", "1")
		edge.WriteErr(w, http.StatusServiceUnavailable, api.CodeUnavailable, err, nil)
	default:
		edge.WriteErr(w, http.StatusInternalServerError, api.CodeInternal, err, nil)
	}
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	// Decode before resolving the release, matching the batch route:
	// structural checks on the request precede checks on the target.
	var req api.Query
	if !edge.DecodeJSON(w, r, s.maxQueryBody, &req) {
		return
	}
	tr := obs.TraceFrom(r.Context())
	endResolve := tr.StartSpan("node.resolve")
	snap, ok := s.resolveSnapshot(w, id)
	endResolve()
	if !ok {
		return
	}
	res, err := s.engine.Execute(r.Context(), id, snap, []query.Query{toQuery(req)})
	if err != nil {
		executeErr(w, err)
		return
	}
	edge.WriteJSON(w, http.StatusOK, api.QueryResponse{
		ReleaseID: id, Estimate: res[0].Estimate, Cached: res[0].Cached,
		Groups:    toGroups(res[0].Groups),
		RequestID: w.Header().Get(obs.HeaderRequestID),
	})
}

func (s *Server) handleBatchQuery(w http.ResponseWriter, r *http.Request) {
	req, ok := edge.DecodeBatch(w, r, s.maxBatchBody)
	if !ok {
		return
	}
	// Reject oversized batches before resolving the release: the cap is
	// structural, not a property of the target.
	if limit := s.engine.MaxBatch(); len(req.Queries) > limit {
		edge.WriteErr(w, http.StatusRequestEntityTooLarge, api.CodeTooLarge,
			fmt.Errorf("%w: %d queries > limit %d", engine.ErrBatchTooLarge, len(req.Queries), limit),
			map[string]any{"limit": limit})
		return
	}
	tr := obs.TraceFrom(r.Context())
	endResolve := tr.StartSpan("node.resolve")
	snap, ok := s.resolveSnapshot(w, req.ReleaseID)
	endResolve()
	if !ok {
		return
	}
	qs := make([]query.Query, len(req.Queries))
	for i, qr := range req.Queries {
		qs[i] = toQuery(qr)
	}
	res, err := s.engine.Execute(r.Context(), req.ReleaseID, snap, qs)
	if err != nil {
		executeErr(w, err)
		return
	}
	out := api.BatchQueryResponse{
		ReleaseID: req.ReleaseID,
		Results:   make([]api.QueryResult, len(res)),
		RequestID: w.Header().Get(obs.HeaderRequestID),
	}
	for i := range res {
		out.Results[i] = api.QueryResult{Estimate: res[i].Estimate, Cached: res[i].Cached, Groups: toGroups(res[i].Groups)}
		if res[i].Cached {
			out.CacheHits++
		}
	}
	edge.WriteJSON(w, http.StatusOK, out)
}

// anonCode maps an anon registry/params error to its wire code.
func anonCode(err error) string {
	switch {
	case errors.Is(err, anon.ErrUnknownMethod):
		return api.CodeUnknownMethod
	case errors.Is(err, anon.ErrInvalidParams):
		return api.CodeInvalidParams
	}
	return api.CodeInvalidRequest
}
