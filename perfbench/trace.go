package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/pkg/api"
)

// The traced run measures each layer from outside: wrappers around the
// gateway's and the nodes' http.Handlers, a wrapper around the gateway's
// node transport, and spans around the benchmark's own calls into
// pkg/client. Spans of one request share the X-Request-Id the gateway
// mints and forwards to the nodes.

type spanKind uint8

const (
	spanClient   spanKind = iota // a pkg/client call made by the benchmark
	spanGateway                  // the gateway's http.Handler
	spanExchange                 // one gateway → node round trip, body read included
	spanNode                     // a node's http.Handler
)

// span is one timed interval at a layer boundary.
type span struct {
	kind   spanKind
	node   string // node ID for exchange and node spans
	method string
	path   string
	// id joins the spans of one request: the request ID, or for a
	// replica's snapshot install the release ID the envelope carries.
	id         string
	start, end time.Time
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// recorder keeps spans in memory while it is on; the analysis runs after
// the traced window, so nothing is written while measuring.
type recorder struct {
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// take returns the recorded spans and starts a fresh list.
func (r *recorder) take() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.spans
	r.spans = nil
	return out
}

const installPath = "/v1/internal/snapshot"

// statusWriter captures a handler's status code.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// wrapHandler times every request h serves while the recorder is on.
// A successful snapshot install is recorded under the release ID its
// envelope names, which is when the release became ready on that replica.
func (r *recorder) wrapHandler(kind spanKind, node string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !r.on.Load() {
			h.ServeHTTP(w, req)
			return
		}
		install := kind == spanNode && req.Method == http.MethodPost && req.URL.Path == installPath
		var releaseID string
		if install {
			data, err := io.ReadAll(req.Body)
			if err == nil {
				releaseID, _, _, _ = cluster.DecodeEnvelope(data)
			}
			req.Body = io.NopCloser(bytes.NewReader(data))
		}
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		h.ServeHTTP(sw, req)
		end := time.Now()
		id := w.Header().Get(api.HeaderRequestID)
		if install {
			if sw.code/100 != 2 {
				return
			}
			id = releaseID
		}
		r.add(span{kind: kind, node: node, method: req.Method, path: req.URL.Path, id: id, start: start, end: end})
	})
}

// nodeTransport times the gateway's round trips to the nodes, from the
// request being sent until the gateway has read and closed the body.
type nodeTransport struct {
	rec    *recorder
	base   http.RoundTripper
	nodeOf map[string]string // host:port → node ID
}

func (t *nodeTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !t.rec.on.Load() {
		return t.base.RoundTrip(req)
	}
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	s := span{kind: spanExchange, node: t.nodeOf[req.URL.Host], method: req.Method, path: req.URL.Path,
		id: req.Header.Get(api.HeaderRequestID), start: start}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() { s.end = time.Now(); t.rec.add(s) }}
	return resp, nil
}

type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// idSlot receives the request ID of the response to a pkg/client call,
// so the benchmark's span around the call joins the gateway's span.
type idSlot struct{ id string }

type idSlotKey struct{}

func withIDSlot(ctx context.Context) (context.Context, *idSlot) {
	s := &idSlot{}
	return context.WithValue(ctx, idSlotKey{}, s), s
}

// idTransport copies each response's X-Request-Id into the call's slot.
type idTransport struct{ base http.RoundTripper }

func (t idTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(req)
	if err == nil {
		if s, ok := req.Context().Value(idSlotKey{}).(*idSlot); ok {
			s.id = resp.Header.Get(api.HeaderRequestID)
		}
	}
	return resp, err
}

// covered returns how much of [start, end) the intervals cover: the part
// of a parent span its children account for.
func covered(start, end time.Time, children []span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, c := range children {
		a, b := c.start, c.end
		if a.Before(start) {
			a = start
		}
		if b.After(end) {
			b = end
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	slices.SortFunc(ivs, func(x, y iv) int { return x.a.Compare(y.a) })
	var total time.Duration
	var curA, curB time.Time
	for i, v := range ivs {
		if i == 0 || v.a.After(curB) {
			total += curB.Sub(curA)
			curA, curB = v.a, v.b
			continue
		}
		if v.b.After(curB) {
			curB = v.b
		}
	}
	return total + curB.Sub(curA)
}

// spanIndex groups one window's spans for the self-time arithmetic.
type spanIndex struct {
	clients   []span
	gateway   map[string]span   // by request ID
	exchanges map[string][]span // by request ID
	nodes     map[string][]span // by request ID
	installs  []span
}

func indexSpans(spans []span) *spanIndex {
	ix := &spanIndex{gateway: map[string]span{}, exchanges: map[string][]span{}, nodes: map[string][]span{}}
	for _, s := range spans {
		switch {
		case s.kind == spanClient:
			ix.clients = append(ix.clients, s)
		case s.kind == spanGateway:
			ix.gateway[s.id] = s
		case s.kind == spanExchange && s.id != "":
			ix.exchanges[s.id] = append(ix.exchanges[s.id], s)
		case s.kind == spanNode && s.path == installPath:
			ix.installs = append(ix.installs, s)
		case s.kind == spanNode:
			ix.nodes[s.id] = append(ix.nodes[s.id], s)
		}
	}
	return ix
}

// layerTimes is the self-time ledger of one operation type (batches or
// creates): totals over its operations, divided by the base counts.
type layerTimes struct {
	ops, exchanges, nodeSpans int
	clientSelf, gatewaySelf   time.Duration
	transport, nodeTotal      time.Duration
}

// ledger costs every client span of the given path layer by layer.
func (ix *spanIndex) ledger(method, path string) layerTimes {
	var lt layerTimes
	for _, c := range ix.clients {
		if c.method != method || c.path != path {
			continue
		}
		g, ok := ix.gateway[c.id]
		if !ok {
			continue
		}
		lt.ops++
		lt.clientSelf += c.dur() - g.dur()
		exs := ix.exchanges[c.id]
		lt.gatewaySelf += g.dur() - covered(g.start, g.end, exs)
		for _, e := range exs {
			lt.exchanges++
			n, ok := matchNode(e, ix.nodes[c.id])
			if !ok {
				continue
			}
			lt.transport += e.dur() - n.dur()
			lt.nodeSpans++
			lt.nodeTotal += n.dur()
		}
	}
	return lt
}

// matchNode finds the node handler span an exchange carried: same node
// and route, inside the exchange's interval.
func matchNode(e span, nodes []span) (span, bool) {
	for _, n := range nodes {
		if n.node == e.node && n.path == e.path && !n.start.Before(e.start) && !n.end.After(e.end) {
			return n, true
		}
	}
	return span{}, false
}
