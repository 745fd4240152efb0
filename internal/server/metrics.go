package server

import (
	"bytes"
	"fmt"
	"sort"

	"repro/internal/edge"
	"repro/internal/obs"
)

// nodeRole names the node's edge: node.<route> spans and the
// repro_http_* request families.
var nodeRole = edge.Role{
	Span:         "node",
	Requests:     "repro_http_requests_total",
	RequestsHelp: "Requests served, by route and status code.",
	Duration:     "repro_http_request_duration_seconds",
	DurationHelp: "Request latency, by route.",
	Prefix:       "repro_",
	UptimeHelp:   "Seconds since the server started.",
}

// writeMetrics renders the node's own /metrics families, between the
// edge's request families and its shared gauges: per-stage latency, the
// release and evaluation states, the batch engine's counters, and the
// store's identity and durability. The engine, store and eval stage sets
// merge into one repro_stage_duration_seconds family; their label values
// are disjoint.
func (s *Server) writeMetrics(buf *bytes.Buffer, openMetrics bool) {
	obs.WriteHistograms(buf, "repro_stage_duration_seconds", "Per-stage latency inside a request (engine, store).", "stage", openMetrics,
		s.engine.Stages(), s.store.Stages(), s.eval.Stages())

	releases := make(map[string]int)
	for _, m := range s.store.List() {
		releases[string(m.Status)]++
	}
	writeByStatus(buf, "repro_releases", "Releases in the store, by status.", releases)
	evals := make(map[string]int)
	for _, m := range s.eval.List() {
		evals[string(m.Status)]++
	}
	writeByStatus(buf, "repro_evaluations", "Evaluation jobs known to the eval service, by status.", evals)
	if rec := s.eval.Recovery(); rec.Done+rec.Failed+rec.Interrupted+rec.Corrupt > 0 {
		edge.WriteFamily(buf, "repro_eval_recovered", "gauge", "Evaluations reconstructed by the last startup recovery, by outcome.")
		fmt.Fprintf(buf, "repro_eval_recovered{outcome=\"done\"} %d\n", rec.Done)
		fmt.Fprintf(buf, "repro_eval_recovered{outcome=\"failed\"} %d\n", rec.Failed)
		fmt.Fprintf(buf, "repro_eval_recovered{outcome=\"interrupted\"} %d\n", rec.Interrupted)
		fmt.Fprintf(buf, "repro_eval_recovered{outcome=\"corrupt\"} %d\n", rec.Corrupt)
	}

	st := s.engine.Stats()
	edge.WriteScalar(buf, "repro_engine_cache_hits_total", "counter", "Query-engine result-cache hits (including batch-local duplicates).", st.CacheHits)
	edge.WriteScalar(buf, "repro_engine_cache_misses_total", "counter", "Query-engine result-cache misses.", st.CacheMisses)
	edge.WriteScalar(buf, "repro_engine_batches_total", "counter", "Batches executed by the query engine.", st.Batches)
	edge.WriteScalar(buf, "repro_engine_batch_queries_total", "counter", "Queries executed across all batches.", st.Queries)
	edge.WriteScalar(buf, "repro_engine_batch_size_max", "gauge", "Largest batch executed so far.", st.MaxBatch)
	edge.WriteScalar(buf, "repro_engine_cache_entries", "gauge", "Current result-cache entry count.", st.CacheEntries)

	if node := s.store.Node(); node != "" {
		edge.WriteFamily(buf, "repro_node_info", "gauge", "Cluster node identity (value is always 1).")
		fmt.Fprintf(buf, "repro_node_info{node=%q} 1\n", node)
	}
	durable := 0
	if s.store.Durable() {
		durable = 1
	}
	edge.WriteScalar(buf, "repro_store_durable", "gauge", "Whether the release store persists to a data directory.", durable)
	if durable == 0 {
		return
	}
	edge.WriteScalar(buf, "repro_store_disk_bytes", "gauge", "Total bytes in the store's data directory (snapshots plus manifest).", s.store.DiskSize())
	rec := s.store.Recovery()
	edge.WriteFamily(buf, "repro_store_recovered_releases", "gauge", "Releases reconstructed by the last startup recovery, by outcome.")
	fmt.Fprintf(buf, "repro_store_recovered_releases{outcome=\"ready\"} %d\n", rec.Ready)
	fmt.Fprintf(buf, "repro_store_recovered_releases{outcome=\"interrupted\"} %d\n", rec.Interrupted)
	fmt.Fprintf(buf, "repro_store_recovered_releases{outcome=\"failed\"} %d\n", rec.Failed)
	fmt.Fprintf(buf, "repro_store_recovered_releases{outcome=\"corrupt\"} %d\n", rec.Corrupt)
}

// writeByStatus renders a gauge family of counts by status, sorted.
func writeByStatus(buf *bytes.Buffer, name, help string, counts map[string]int) {
	states := make([]string, 0, len(counts))
	for s := range counts {
		states = append(states, s)
	}
	sort.Strings(states)
	edge.WriteFamily(buf, name, "gauge", help)
	for _, s := range states {
		fmt.Fprintf(buf, "%s{status=%q} %d\n", name, s, counts[s])
	}
}
