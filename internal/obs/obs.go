// Package obs is the zero-dependency observability core of the serving
// stack: request IDs minted at the edge and propagated hop to hop in
// W3C-traceparent form, per-request span timings collected on the
// request context, log-bucketed latency histograms rendered in
// Prometheus text exposition format, structured logging setup over
// log/slog, Go runtime gauges, a text-format exposition linter (used by
// tests and CI to reject malformed /metrics payloads), and Bearer-gated
// net/http/pprof endpoints.
//
// The package imports nothing from the rest of the repository, so every
// layer — gateway, HTTP server, batch engine, release store — can lean
// on it without import cycles. All hot-path types (Trace, Histogram)
// are safe for concurrent use; a nil *Trace is a valid no-op receiver,
// so uninstrumented call paths (direct store/engine use in tests and
// benchmarks) pay one nil check and no allocation.
package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"net/http"
	"sort"
	"sync"
	"time"
)

// HeaderRequestID is the request-correlation header: echoed on every
// response, accepted on requests from clients that already have an ID.
// pkg/api re-exports the same value as the public wire contract.
const HeaderRequestID = "X-Request-Id"

// HeaderTraceparent is the W3C trace-context header. The serving stack
// propagates the 00-<trace-id>-<parent-id>-<flags> form between hops and
// uses the 32-hex trace-id as the request ID.
const HeaderTraceparent = "traceparent"

// NewRequestID mints an edge request ID: 16 random bytes, hex-encoded —
// the exact shape of a W3C trace-id, so the same value travels in
// traceparent headers unchanged.
func NewRequestID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is a broken platform; a time-derived ID
		// keeps requests correlatable rather than crashing the edge.
		now := uint64(time.Now().UnixNano())
		for i := 0; i < 8; i++ {
			b[i] = byte(now >> (8 * i))
		}
	}
	return hex.EncodeToString(b[:])
}

// isLowerHex reports whether s is entirely lowercase hex. W3C
// trace-context §3.2 defines trace-id/parent-id/flags as lowercase
// base16; uppercase is malformed and must be rejected, not normalized.
func isLowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// ParseTraceparent extracts the trace-id of a traceparent header value,
// accepting the version-00 form 00-<32 hex>-<16 hex>-<2 hex>, lowercase
// hex only per the W3C grammar. An all-zero trace-id is invalid per the
// spec and rejected.
func ParseTraceparent(v string) (traceID string, ok bool) {
	if len(v) != 55 || v[2] != '-' || v[35] != '-' || v[52] != '-' {
		return "", false
	}
	if v[0] != '0' || v[1] != '0' {
		return "", false
	}
	id, parent, flags := v[3:35], v[36:52], v[53:55]
	if !isLowerHex(id) || !isLowerHex(parent) || !isLowerHex(flags) {
		return "", false
	}
	if id == "00000000000000000000000000000000" {
		return "", false
	}
	return id, true
}

// FormatTraceparent renders a traceparent header value carrying traceID,
// minting a fresh parent-id for this hop. traceID must be a 32-hex
// trace-id (the NewRequestID shape); anything else returns "".
func FormatTraceparent(traceID string) string {
	if len(traceID) != 32 || !isLowerHex(traceID) {
		return ""
	}
	var b [8]byte
	_, _ = rand.Read(b[:])
	return "00-" + traceID + "-" + hex.EncodeToString(b[:]) + "-01"
}

// sanitizeRequestID admits externally supplied request IDs that are safe
// to echo into headers and logs: non-empty, bounded, and restricted to a
// URL/log-safe alphabet.
func sanitizeRequestID(id string) (string, bool) {
	if id == "" || len(id) > 64 {
		return "", false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= '0' && c <= '9', c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z':
		case c == '-' || c == '_' || c == '.':
		default:
			return "", false
		}
	}
	return id, true
}

// RequestIDFromHeaders resolves the request ID of an incoming request:
// the traceparent trace-id when present and well-formed, else a sane
// X-Request-Id, else a freshly minted edge ID. minted reports that this
// hop is the edge (no upstream supplied an ID).
func RequestIDFromHeaders(h http.Header) (id string, minted bool) {
	if tid, ok := ParseTraceparent(h.Get(HeaderTraceparent)); ok {
		return tid, false
	}
	if rid, ok := sanitizeRequestID(h.Get(HeaderRequestID)); ok {
		return rid, false
	}
	return NewRequestID(), true
}

// PropagateHeaders stamps an outbound hop's headers with the request ID:
// always X-Request-Id, plus a traceparent when the ID has the trace-id
// shape (edge-minted IDs always do).
func PropagateHeaders(h http.Header, requestID string) {
	if requestID == "" {
		return
	}
	h.Set(HeaderRequestID, requestID)
	if tp := FormatTraceparent(requestID); tp != "" {
		h.Set(HeaderTraceparent, tp)
	}
}

// Span is one completed stage timing of a request.
type Span struct {
	// Stage names the hop, dot-namespaced by layer (e.g. "engine.estimate",
	// "gateway.subbatch").
	Stage string `json:"stage"`
	// Node is the cluster member the stage ran against, when the stage is
	// a cross-node hop ("" otherwise).
	Node string `json:"node,omitempty"`
	// Start is when the stage began.
	Start time.Time `json:"-"`
	// Dur is the stage's wall-clock duration.
	Dur time.Duration `json:"-"`
}

// SpanRecord is a Span shaped for structured logs: offsets and durations
// in microseconds relative to the trace start, so one slow-query line
// carries the whole breakdown.
type SpanRecord struct {
	Stage        string `json:"stage"`
	Node         string `json:"node,omitempty"`
	OffsetMicros int64  `json:"offset_us"`
	Micros       int64  `json:"us"`
}

// Trace accumulates the span timings of one request. It is created by
// the edge (or first instrumented hop) of a request and travels on the
// context; every layer appends its stages. A nil *Trace is a no-op on
// every method, so layers instrument unconditionally.
type Trace struct {
	// RequestID is the edge-minted (or upstream-propagated) request ID.
	RequestID string

	start time.Time

	mu        sync.Mutex
	releaseID string
	spans     []Span
}

// NewTrace starts a trace for one request.
func NewTrace(requestID string) *Trace {
	return &Trace{RequestID: requestID, start: time.Now()}
}

// Start returns when the trace began (zero time on a nil trace). Span
// offsets in Records are relative to this instant; cross-process trace
// assembly rebases them against it.
func (t *Trace) Start() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.start
}

// SetRelease annotates the trace with the release the request addresses,
// so slow-query log lines are correlatable by release too.
func (t *Trace) SetRelease(id string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.releaseID = id
	t.mu.Unlock()
}

// ReleaseID returns the annotated release ID ("" when unset).
func (t *Trace) ReleaseID() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.releaseID
}

// StartSpan opens a stage timing; the returned func records it. Usage:
//
//	done := tr.StartSpan("engine.estimate")
//	...work...
//	done()
func (t *Trace) StartSpan(stage string) func() { return t.StartSpanNode(stage, "") }

// StartSpanNode is StartSpan for cross-node hops, labeling the span with
// the member it ran against.
func (t *Trace) StartSpanNode(stage, node string) func() {
	if t == nil {
		return func() {}
	}
	start := time.Now()
	return func() {
		d := time.Since(start)
		t.mu.Lock()
		t.spans = append(t.spans, Span{Stage: stage, Node: node, Start: start, Dur: d})
		t.mu.Unlock()
	}
}

// AddSpan records an externally measured stage (e.g. a queue wait
// observed by a worker goroutine).
func (t *Trace) AddSpan(stage, node string, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, Span{Stage: stage, Node: node, Start: start, Dur: d})
	t.mu.Unlock()
}

// Spans returns a copy of the recorded spans in start order.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// Records returns the spans as log-ready records, offsets relative to
// the trace start, in start order.
func (t *Trace) Records() []SpanRecord {
	spans := t.Spans()
	out := make([]SpanRecord, len(spans))
	for i, sp := range spans {
		out[i] = SpanRecord{
			Stage:        sp.Stage,
			Node:         sp.Node,
			OffsetMicros: sp.Start.Sub(t.start).Microseconds(),
			Micros:       sp.Dur.Microseconds(),
		}
	}
	return out
}

// traceKey is the context key Trace travels under.
type traceKey struct{}

// WithTrace attaches a trace to a context.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, t)
}

// TraceFrom extracts the context's trace; nil when the request is not
// instrumented (every Trace method tolerates that).
func TraceFrom(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}

// RequestIDFrom extracts the context's request ID ("" when absent).
func RequestIDFrom(ctx context.Context) string {
	if t := TraceFrom(ctx); t != nil {
		return t.RequestID
	}
	return ""
}
