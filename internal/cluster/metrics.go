package cluster

import (
	"bytes"
	"fmt"
	"sync/atomic"

	"repro/internal/edge"
	"repro/internal/obs"
)

// gatewayRole names the gateway's edge: gateway.<route> spans and the
// repro_gateway_* families.
var gatewayRole = edge.Role{
	Span:         "gateway",
	Requests:     "repro_gateway_requests_total",
	RequestsHelp: "Requests served by the gateway, by route and status code.",
	Duration:     "repro_gateway_request_duration_seconds",
	DurationHelp: "Gateway request latency, by route.",
	Prefix:       "repro_gateway_",
	UptimeHelp:   "Seconds since the gateway started.",
}

// counters are the gateway's own /metrics counters, beside the edge's
// per-route request families.
type counters struct {
	failovers  atomic.Uint64 // requests re-dispatched after a node failure
	subBatches atomic.Uint64 // sub-batches fanned out by scatter/gather
	replOK     atomic.Uint64 // snapshot replications completed
	replErr    atomic.Uint64 // snapshot replications failed (retried by reconcile)
	replSweeps atomic.Uint64 // reconcile sweeps run
	replBytes  atomic.Uint64 // envelope bytes shipped to replicas

	// stages holds the gateway-internal stage latencies (sub-batch
	// fan-out, merge, replication fetch/push).
	stages *obs.LabeledHistograms
}

func (c *counters) countReplication(bytes int, err error) {
	if err != nil {
		c.replErr.Add(1)
		return
	}
	c.replOK.Add(1)
	c.replBytes.Add(uint64(bytes))
}

// writeMetrics renders the gateway's own /metrics families: its
// counters, stage and probe latencies, and per-node gauges read live
// from the membership.
func (g *Gateway) writeMetrics(buf *bytes.Buffer, openMetrics bool) {
	edge.WriteScalar(buf, "repro_gateway_failovers_total", "counter", "Requests re-dispatched to another replica after a node failure.", g.failovers.Load())
	edge.WriteScalar(buf, "repro_gateway_subbatches_total", "counter", "Sub-batches dispatched by scatter/gather batch routing.", g.subBatches.Load())
	edge.WriteFamily(buf, "repro_gateway_replications_total", "counter", "Snapshot replications, by outcome.")
	fmt.Fprintf(buf, "repro_gateway_replications_total{outcome=\"ok\"} %d\n", g.replOK.Load())
	fmt.Fprintf(buf, "repro_gateway_replications_total{outcome=\"error\"} %d\n", g.replErr.Load())
	edge.WriteScalar(buf, "repro_gateway_replication_bytes_total", "counter", "Envelope bytes shipped to replicas.", g.replBytes.Load())
	edge.WriteScalar(buf, "repro_gateway_reconcile_sweeps_total", "counter", "Replication reconcile sweeps completed.", g.replSweeps.Load())

	obs.WriteHistograms(buf, "repro_gateway_stage_duration_seconds", "Per-stage latency inside a gateway request (fan-out, merge, replication).", "stage", openMetrics, g.stages)
	obs.WriteHistogram(buf, "repro_gateway_probe_duration_seconds", "Health-probe round-trip time across all nodes.", openMetrics, g.mem.probeLat)

	edge.WriteScalar(buf, "repro_gateway_replication_factor", "gauge", "Configured replication factor R.", g.rfactor)
	edge.WriteFamily(buf, "repro_gateway_node_up", "gauge", "Per-node circuit breaker state (1 = routable).")
	for _, st := range g.mem.nodes {
		up := 0
		if st.alive.Load() {
			up = 1
		}
		fmt.Fprintf(buf, "repro_gateway_node_up{node=%q} %d\n", st.node.ID, up)
	}
	edge.WriteFamily(buf, "repro_gateway_node_inflight", "gauge", "Requests currently outstanding against each node.")
	for _, st := range g.mem.nodes {
		fmt.Fprintf(buf, "repro_gateway_node_inflight{node=%q} %d\n", st.node.ID, st.inflight.Load())
	}
}
