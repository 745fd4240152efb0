// Package edge is the HTTP edge a node (internal/server) and the cluster
// gateway (internal/cluster) share: everything either role does around a
// route handler. Wrap resolves and echoes the request ID, carries the
// span trace, captures the response's status and error code, and feeds
// the per-route metrics, the slow-query and access logs, and the
// retained-trace store; the edge also samples the load ring, serves the
// /metrics families every role exposes, and owns the JSON, error-envelope
// and body-error writers. A role names its edge with a Role and keeps
// only its own families.
package edge

import (
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/tracestore"
	"repro/pkg/api"
)

// Role fixes one edge's names: its route-span prefix and the names and
// help texts of the families every edge exposes. Each serving role
// declares its Role once, in code.
type Role struct {
	// Span prefixes every route span: "node" records node.<route>.
	Span string
	// Requests and Duration name the per-route request counter and
	// latency histogram.
	Requests, RequestsHelp string
	Duration, DurationHelp string
	// Prefix namespaces the remaining shared families:
	// <Prefix>http_inflight_requests, <Prefix>tracestore_*, <Prefix>go_*
	// and <Prefix>uptime_seconds.
	Prefix     string
	UptimeHelp string
}

// Options configures an Edge.
type Options struct {
	// Node labels the route spans and names the process as the origin of
	// its traces and load series; "" falls back to Role.Span.
	Node string
	// Logger receives the access and slow-query lines; nil selects
	// slog.Default().
	Logger *slog.Logger
	// SlowQuery is the slow-query log threshold; ≤ 0 disables it. When
	// Trace.SlowThreshold is unset it doubles as the trace-retention one,
	// so the two surfaces agree on what "slow" means.
	SlowQuery time.Duration
	// Trace configures the retained-trace store.
	Trace tracestore.Options
	// LoadSampleInterval is the load ring's sampling cadence; 0 selects
	// 1s, < 0 disables sampling.
	LoadSampleInterval time.Duration
	// Work reports the role's completed-work counter, which the load
	// sampler turns into QPS, and its queue depth. nil counts requests
	// served and reports no queue.
	Work func() (completed uint64, queued int)
}

// Edge is one process's request plumbing. Wrap every route with Wrap and
// serve /metrics with MetricsHandler.
type Edge struct {
	role   Role
	node   string
	origin string
	logger *slog.Logger
	slow   obs.SlowQueryLogger
	traces *tracestore.Store

	loads    *obs.LoadRing
	sampler  *obs.LoadSampler
	inflight atomic.Int64
	start    time.Time

	mu       sync.Mutex
	counts   map[routeCode]uint64
	requests uint64
	lat      *obs.LabeledHistograms
}

type routeCode struct {
	route string
	code  int
}

// New builds an edge and starts its load sampler; Close stops it.
func New(role Role, opts Options) *Edge {
	e := &Edge{
		role:   role,
		node:   opts.Node,
		origin: opts.Node,
		logger: opts.Logger,
		start:  time.Now(),
		counts: make(map[routeCode]uint64),
		lat:    obs.NewLabeledHistograms(),
	}
	if e.origin == "" {
		e.origin = role.Span
	}
	if e.logger == nil {
		e.logger = slog.Default()
	}
	e.slow = obs.SlowQueryLogger{Logger: e.logger, Threshold: opts.SlowQuery}
	if opts.Trace.SlowThreshold == 0 && opts.SlowQuery > 0 {
		opts.Trace.SlowThreshold = opts.SlowQuery
	}
	e.traces = tracestore.New(opts.Trace)
	if opts.LoadSampleInterval >= 0 {
		e.loads = obs.NewLoadRing(0)
		e.sampler = obs.StartLoadSampler(e.loads, opts.LoadSampleInterval, e.loadSample(opts.Work))
	}
	return e
}

// Close stops the load sampler.
func (e *Edge) Close() { e.sampler.Close() }

// Wrap is the request wrapper: the request ID is set as the response
// header before h runs, so WriteErr can embed it in every error envelope;
// after h, the route span, the per-route metrics, the slow-query log, the
// trace store, and the debug access log all see the captured outcome.
func (e *Edge) Wrap(route string, h http.HandlerFunc) http.HandlerFunc {
	span := e.role.Span + "." + route
	return func(w http.ResponseWriter, r *http.Request) {
		e.inflight.Add(1)
		// Deferred, not inline after the handler: net/http recovers
		// handler panics, and an inline decrement would leak the gauge —
		// skewing every load sample — on each one.
		defer e.inflight.Add(-1)
		id, _ := obs.RequestIDFromHeaders(r.Header)
		tr := obs.NewTrace(id)
		// The route span anchors at the trace's own start so assembled
		// documents never show it at a negative offset.
		start := tr.Start()
		w.Header().Set(obs.HeaderRequestID, id)
		rec := &recorder{ResponseWriter: w, code: http.StatusOK}
		h(rec, r.WithContext(obs.WithTrace(r.Context(), tr)))
		total := time.Since(start)
		tr.AddSpan(span, e.node, start, total)
		e.observe(route, rec.code, total, id)
		e.slow.Observe(route, rec.code, total, tr)
		e.traces.Commit(tr, route, rec.code, rec.errCode, total)
		e.logger.Debug("request",
			"request_id", id,
			"route", route,
			"code", rec.code,
			"release_id", tr.ReleaseID(),
			"node", e.node,
			"total_us", total.Microseconds(),
		)
	}
}

// recorder captures the response code for the metrics and the api error
// code (set by WriteErr) for the retained trace.
type recorder struct {
	http.ResponseWriter
	code    int
	errCode string
}

func (r *recorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// observe records one completed request; requestID becomes the exemplar
// of the latency bucket it lands in, so a scrape's fat buckets link to
// retrievable traces.
func (e *Edge) observe(route string, code int, d time.Duration, requestID string) {
	e.mu.Lock()
	e.counts[routeCode{route, code}]++
	e.requests++
	e.mu.Unlock()
	e.lat.ObserveExemplar(route, d, requestID)
}

// Trace returns this process's retained part of trace id, stamped with
// the edge's origin; false when it was sampled out, evicted, or never
// seen here.
func (e *Edge) Trace(id string) (api.TraceResponse, bool) {
	t, ok := e.traces.Get(id)
	if !ok {
		return api.TraceResponse{}, false
	}
	return tracestore.ToAPI(t, e.origin), true
}

// HandleTrace serves GET .../traces/{id}: this process's retained part of
// the trace, 404 when the ID was sampled out or evicted (retention is
// best-effort by design).
func (e *Edge) HandleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	t, ok := e.Trace(id)
	if !ok {
		WriteErr(w, http.StatusNotFound, api.CodeNotFound,
			fmt.Errorf("no retained trace %q (sampled out, evicted, or never seen)", id), nil)
		return
	}
	WriteJSON(w, http.StatusOK, t)
}

// HandleLoad serves the rolling load series.
func (e *Edge) HandleLoad(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, e.LoadSeries())
}

// loadSample builds the sampler's self-observation: work throughput since
// the last tick, lifetime request-latency quantiles across all routes,
// in-flight requests, queue depth, and heap pressure.
func (e *Edge) loadSample(work func() (uint64, int)) func(elapsed time.Duration) obs.LoadSample {
	var last uint64
	return func(elapsed time.Duration) obs.LoadSample {
		var completed uint64
		var queued int
		if work != nil {
			completed, queued = work()
		} else {
			e.mu.Lock()
			completed = e.requests
			e.mu.Unlock()
		}
		qps := 0.0
		if secs := elapsed.Seconds(); secs > 0 {
			qps = float64(completed-last) / secs
		}
		last = completed
		// Merging the per-route histograms into a scratch one is cheap
		// enough for the 1 Hz sampler.
		var all obs.Histogram
		for _, route := range e.lat.Labels() {
			all.Merge(e.lat.Get(route))
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return obs.LoadSample{
			At:         time.Now(),
			QPS:        qps,
			P50:        all.Quantile(0.50),
			P95:        all.Quantile(0.95),
			P99:        all.Quantile(0.99),
			Inflight:   e.inflight.Load(),
			QueueDepth: queued,
			HeapBytes:  ms.HeapAlloc,
			Goroutines: runtime.NumGoroutine(),
		}
	}
}

// LoadSeries is the load ring in its wire form, named by the edge's
// origin; empty when sampling is disabled.
func (e *Edge) LoadSeries() api.LoadSeries {
	samples := e.loads.Samples()
	out := api.LoadSeries{Origin: e.origin, Samples: make([]api.LoadSample, len(samples))}
	for i, s := range samples {
		out.Samples[i] = api.LoadSample{
			UnixMillis: s.At.UnixMilli(),
			QPS:        s.QPS,
			P50Millis:  s.P50 * 1000,
			P95Millis:  s.P95 * 1000,
			P99Millis:  s.P99 * 1000,
			Inflight:   s.Inflight,
			QueueDepth: s.QueueDepth,
			HeapBytes:  s.HeapBytes,
			Goroutines: s.Goroutines,
		}
	}
	return out
}
