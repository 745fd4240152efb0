package edge

import (
	"bytes"
	"fmt"
	"net/http"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/tracestore"
)

// MetricsHandler serves /metrics in the negotiated format: the classic
// 0.0.4 text format by default, which has no exemplar syntax, and
// OpenMetrics — bucket exemplars plus the "# EOF" terminator — only when
// the Accept header names application/openmetrics-text. The edge's
// request families come first, then own renders the role's families,
// then the in-flight, trace-store, runtime and uptime gauges. The
// exposition is rendered into a buffer first so no lock is held during
// the network write (a stalled scraper must not serialize request
// completion).
func (e *Edge) MetricsHandler(own func(buf *bytes.Buffer, openMetrics bool)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		contentType, openMetrics := obs.NegotiateExposition(r.Header.Get("Accept"))
		var buf bytes.Buffer
		e.writeRequests(&buf, openMetrics)
		own(&buf, openMetrics)
		// The scrape itself is in flight, so an idle process reports 1.
		WriteScalar(&buf, e.role.Prefix+"http_inflight_requests", "gauge",
			"Requests currently being served (includes this scrape).", e.inflight.Load())
		tracestore.WriteGauges(&buf, e.role.Prefix, e.traces.Stats())
		obs.WriteRuntimeMetrics(&buf, e.role.Prefix)
		WriteScalar(&buf, e.role.Prefix+"uptime_seconds", "gauge", e.role.UptimeHelp, time.Since(e.start).Seconds())
		if openMetrics {
			buf.WriteString(obs.ExpositionEOF)
		}
		w.Header().Set("Content-Type", contentType)
		_, _ = w.Write(buf.Bytes())
	}
}

// writeRequests renders the per-route request counter and latency
// histogram.
func (e *Edge) writeRequests(buf *bytes.Buffer, openMetrics bool) {
	e.mu.Lock()
	keys := make([]routeCode, 0, len(e.counts))
	for k := range e.counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].route != keys[j].route {
			return keys[i].route < keys[j].route
		}
		return keys[i].code < keys[j].code
	})
	WriteFamily(buf, e.role.Requests, "counter", e.role.RequestsHelp)
	for _, k := range keys {
		fmt.Fprintf(buf, "%s{route=%q,code=\"%d\"} %d\n", e.role.Requests, k.route, k.code, e.counts[k])
	}
	e.mu.Unlock()
	obs.WriteHistograms(buf, e.role.Duration, e.role.DurationHelp, "route", openMetrics, e.lat)
}

// WriteFamily writes a family's HELP and TYPE lines; its samples follow.
func WriteFamily(buf *bytes.Buffer, name, typ, help string) {
	fmt.Fprintf(buf, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// WriteScalar writes a family with one unlabeled sample.
func WriteScalar(buf *bytes.Buffer, name, typ, help string, v any) {
	WriteFamily(buf, name, typ, help)
	fmt.Fprintf(buf, "%s %v\n", name, v)
}
