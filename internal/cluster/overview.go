package cluster

// The gateway's trace-plane read side: GET /v1/debug/traces/{id}
// assembles one cross-node trace document from the gateway's own
// retained spans plus the spans fetched from every node's Bearer-gated
// internal trace endpoint, and GET /v1/cluster/overview aggregates each
// process's rolling load series into one cluster picture.

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"time"

	"repro/internal/edge"
	"repro/internal/obs/tracestore"
	"repro/pkg/api"
)

// debugFetchTimeout bounds the per-node fetches of the debug paths. The
// debug sweeps deliberately ignore the circuit breaker — a node whose
// breaker is open may hold the only copy of a failed attempt's spans,
// and that failure is exactly what the caller is debugging — so a hard
// deadline keeps a truly dead member from stalling the page. A fetch cut
// by this deadline never opens a breaker; a refused or reset connection
// does, as on every other node call.
const debugFetchTimeout = 2 * time.Second

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
	if g.mem.token != "" {
		ctx, cancel := context.WithTimeout(r.Context(), debugFetchTimeout)
		defer cancel()
		fetched := make([]*api.TraceResponse, len(g.mem.nodes))
		fanOut(len(g.mem.nodes), func(i int) {
			var part api.TraceResponse
			// An error means sampled out there, or unreachable: merge what exists.
			if g.mem.getJSON(ctx, g.mem.nodes[i], "/v1/internal/traces/"+id, &part) == nil {
				fetched[i] = &part
			}
		})
		var nodeParts []api.TraceResponse
		for _, part := range fetched {
			if part != nil {
				nodeParts = append(nodeParts, *part)
			}
		}
		// Sort by origin, not membership order, so the assembled document —
		// including the route/status header MergeParts takes from the first
		// part when the gateway's own view was sampled out — does not depend
		// on how the -nodes flag lists the members.
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
	ctx, cancel := context.WithTimeout(r.Context(), debugFetchTimeout)
	defer cancel()
	fanOut(len(g.mem.nodes), func(i int) {
		st, n := g.mem.nodes[i], &out.Nodes[i]
		*n = api.OverviewNode{ID: st.node.ID, URL: st.node.URL, Alive: st.alive.Load()}
		if g.mem.token == "" {
			n.Error = "no cluster token configured; node load is not readable"
			return
		}
		var series api.LoadSeries
		if err := g.mem.getJSON(ctx, st, "/v1/internal/load", &series); err != nil {
			n.Error = err.Error()
			return
		}
		n.Load = &series
	})
	edge.WriteJSON(w, http.StatusOK, out)
}
