package cluster

// The gateway's trace-plane read side: GET /v1/debug/traces/{id}
// assembles one cross-node trace document from the gateway's own
// retained spans plus the spans fetched from every node's Bearer-gated
// internal trace endpoint, and GET /v1/cluster/overview aggregates each
// process's rolling load series into one cluster picture.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/edge"
	"repro/internal/obs/tracestore"
	"repro/pkg/api"
)

// debugFetchTimeout bounds each per-node fetch on the debug paths. The
// debug sweep deliberately ignores the circuit breaker — a node whose
// breaker is open may hold the only copy of a failed attempt's spans, and
// that failure is exactly what the caller is debugging — so a hard
// per-node deadline keeps a truly dead member from stalling the page.
const debugFetchTimeout = 2 * time.Second

// internalGet performs one authenticated GET against a node's internal
// API, without touching the circuit breaker: debug reads must neither
// respect it (see debugFetchTimeout) nor open it (a failed trace fetch
// says nothing about the node's ability to serve queries).
func (g *Gateway) internalGet(ctx context.Context, st *nodeState, path string, out any) error {
	ctx, cancel := context.WithTimeout(ctx, debugFetchTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, st.node.URL+path, nil)
	if err != nil {
		return err
	}
	req.Header.Set("Authorization", "Bearer "+g.token)
	resp, err := g.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return fmt.Errorf("%s%s: %d: %s", st.node.ID, path, resp.StatusCode, body)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// handleTraceDebug assembles one cross-node trace: the gateway's own
// retained part first, then whatever each node still holds under the
// same edge request ID, merged into a single offset-ordered span tree.
// A request that failed over mid-flight shows both replicas' attempts in
// the one document. 404 only when no process retained anything.
func (g *Gateway) handleTraceDebug(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var parts []api.TraceResponse
	if part, ok := g.edge.Trace(id); ok {
		parts = append(parts, part)
	}
	if g.token != "" {
		var (
			mu        sync.Mutex
			wg        sync.WaitGroup
			nodeParts []api.TraceResponse
		)
		for _, st := range g.mem.nodes {
			wg.Add(1)
			go func(st *nodeState) {
				defer wg.Done()
				var part api.TraceResponse
				if err := g.internalGet(r.Context(), st, "/v1/internal/traces/"+id, &part); err != nil {
					return // sampled out there, or unreachable: merge what exists
				}
				mu.Lock()
				nodeParts = append(nodeParts, part)
				mu.Unlock()
			}(st)
		}
		wg.Wait()
		// Node answers land in goroutine-completion order; sort them so the
		// assembled document — including the route/status header MergeParts
		// takes from the first part when the gateway's own view was sampled
		// out — is identical across identical requests.
		sortTraceParts(nodeParts)
		parts = append(parts, nodeParts...)
	}
	if len(parts) == 0 {
		edge.WriteErr(w, http.StatusNotFound, api.CodeNotFound,
			fmt.Errorf("no retained trace %q on any cluster member (sampled out, evicted, or never seen)", id), nil)
		return
	}
	edge.WriteJSON(w, http.StatusOK, tracestore.MergeParts(id, parts))
}

// sortTraceParts orders fetched trace parts by origin (then start time,
// for the degenerate same-origin case) so cross-node assembly is
// deterministic regardless of response arrival order.
func sortTraceParts(parts []api.TraceResponse) {
	origin := func(p api.TraceResponse) string {
		if len(p.Origins) > 0 {
			return p.Origins[0]
		}
		return ""
	}
	sort.SliceStable(parts, func(i, j int) bool {
		if oi, oj := origin(parts[i]), origin(parts[j]); oi != oj {
			return oi < oj
		}
		return parts[i].StartedAt.Before(parts[j].StartedAt)
	})
}

// handleOverview aggregates the rolling load series: the gateway's own
// ring plus each node's, fetched via the Bearer-gated internal load
// endpoint. A node that cannot answer still appears, with its breaker
// state and the fetch error in place of samples.
func (g *Gateway) handleOverview(w http.ResponseWriter, r *http.Request) {
	out := api.ClusterOverviewResponse{
		Replication: g.rfactor,
		Gateway:     g.edge.LoadSeries(),
		Nodes:       make([]api.OverviewNode, len(g.mem.nodes)),
	}
	var wg sync.WaitGroup
	for i, st := range g.mem.nodes {
		out.Nodes[i] = api.OverviewNode{ID: st.node.ID, URL: st.node.URL, Alive: st.alive.Load()}
		if g.token == "" {
			out.Nodes[i].Error = "no cluster token configured; node load is not readable"
			continue
		}
		wg.Add(1)
		go func(i int, st *nodeState) {
			defer wg.Done()
			var series api.LoadSeries
			if err := g.internalGet(r.Context(), st, "/v1/internal/load", &series); err != nil {
				out.Nodes[i].Error = err.Error()
				return
			}
			out.Nodes[i].Load = &series
		}(i, st)
	}
	wg.Wait()
	edge.WriteJSON(w, http.StatusOK, out)
}
