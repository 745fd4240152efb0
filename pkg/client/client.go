// Package client is the typed Go SDK for the anonymization/query service
// (internal/server, run by cmd/serve). It speaks the wire contract of
// repro/pkg/api and adds the client-side discipline callers would
// otherwise hand-roll:
//
//   - typed requests/responses for every route (CreateRelease, GetRelease,
//     ListReleases, WaitReady, Query, QueryBatch, Evaluate, GetEvaluation,
//     WaitEvaluated, Healthz);
//   - the structured error envelope decoded into *client.Error, so
//     callers branch on stable codes (client.IsNotFound, ...) instead of
//     string-matching bodies;
//   - bounded, Retry-After-honoring retry of 503 responses (a pending
//     release, a saturated build queue), with context cancellation
//     respected while waiting.
//
// A release's wire form carries Persisted: against a server running with
// -data-dir, a ready release's snapshot is on disk and survives a server
// restart with identical query answers (the release ID stays valid, so
// clients may cache IDs across restarts of a durable server).
//
// Method params are passed as any JSON-marshalable value; the canonical
// typed params live in repro/anon (e.g. anon.NewBURELParams(...)), and a
// plain map works for non-Go callers of this package's conventions.
//
//	c := client.New("http://localhost:8080")
//	rel, err := c.CreateRelease(ctx, client.CreateSpec{
//		Method: "burel",
//		Params: anon.NewBURELParams(anon.BURELBeta(4)),
//		CSV:    csvData,
//	})
//	rel, err = c.WaitReady(ctx, rel.ID, 0)
//	res, err := c.Query(ctx, rel.ID, api.Query{SALo: 0, SAHi: 3})
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/pkg/api"
)

// Defaults for options left zero.
const (
	// DefaultMaxRetries bounds the 503 retry loop: one initial attempt
	// plus up to this many retries.
	DefaultMaxRetries = 3
	// DefaultRetryWait is the backoff base used when a 503 carries no
	// Retry-After header; attempt n waits base·2ⁿ.
	DefaultRetryWait = 100 * time.Millisecond
	// DefaultMaxRetryWait caps any single retry sleep, including
	// server-suggested Retry-After values.
	DefaultMaxRetryWait = 5 * time.Second
	// DefaultPollInterval is WaitReady's polling cadence.
	DefaultPollInterval = 50 * time.Millisecond
)

// Client is a typed handle on one service instance. It is safe for
// concurrent use.
type Client struct {
	base         string
	hc           *http.Client
	maxRetries   int
	retryWait    time.Duration
	maxRetryWait time.Duration
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// transports, test doubles).
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithMaxRetries bounds the 503 retry loop; 0 disables retry.
func WithMaxRetries(n int) Option { return func(c *Client) { c.maxRetries = n } }

// WithRetryWait sets the backoff base for 503s without Retry-After.
func WithRetryWait(d time.Duration) Option { return func(c *Client) { c.retryWait = d } }

// WithMaxRetryWait caps any single retry sleep.
func WithMaxRetryWait(d time.Duration) Option { return func(c *Client) { c.maxRetryWait = d } }

// New builds a client for the service at baseURL (e.g.
// "http://localhost:8080").
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		base:         strings.TrimRight(baseURL, "/"),
		hc:           &http.Client{Timeout: 60 * time.Second},
		maxRetries:   DefaultMaxRetries,
		retryWait:    DefaultRetryWait,
		maxRetryWait: DefaultMaxRetryWait,
	}
	for _, o := range opts {
		o(c)
	}
	if c.maxRetries < 0 {
		c.maxRetries = 0
	}
	return c
}

// Error is the typed form of the service's error envelope, plus the HTTP
// status it arrived with. All failing SDK calls return one (wrapped), so
// callers classify with errors.As or the Is* helpers.
type Error struct {
	// StatusCode is the HTTP status of the response.
	StatusCode int
	// Code is the stable machine-readable class (api.Code... constants).
	Code string
	// Message is the server's human-readable description.
	Message string
	// Details carries optional error-specific context.
	Details map[string]any
	// RequestID is the server's ID for the failed request (from the
	// X-Request-Id response header, or details when the header was lost
	// in transit); quote it when reporting the failure — one grep on it
	// across gateway and node logs yields the request's full trace.
	RequestID string

	// retryAfter is the server-suggested delay of a 503, consumed by the
	// retry loop; transport state, not part of the error value.
	retryAfter time.Duration
}

func (e *Error) Error() string {
	if e.RequestID != "" {
		return fmt.Sprintf("%s (%d): %s [request_id=%s]", e.Code, e.StatusCode, e.Message, e.RequestID)
	}
	return fmt.Sprintf("%s (%d): %s", e.Code, e.StatusCode, e.Message)
}

// apiErrorCode extracts the wire code of err, or "" when err is not a
// service error.
func apiErrorCode(err error) string {
	var ae *Error
	if errors.As(err, &ae) {
		return ae.Code
	}
	return ""
}

// IsNotFound reports an unknown release ID.
func IsNotFound(err error) bool { return apiErrorCode(err) == api.CodeNotFound }

// IsNotReady reports a release still pending or building.
func IsNotReady(err error) bool { return apiErrorCode(err) == api.CodeNotReady }

// IsBuildFailed reports a release whose build failed permanently.
func IsBuildFailed(err error) bool { return apiErrorCode(err) == api.CodeBuildFailed }

// IsEvalFailed reports an evaluation that ended failed (from
// WaitEvaluated).
func IsEvalFailed(err error) bool { return apiErrorCode(err) == api.CodeEvalFailed }

// IsConflict reports an operation racing one already in flight, e.g. an
// Evaluate of a release whose evaluation is still running.
func IsConflict(err error) bool { return apiErrorCode(err) == api.CodeConflict }

// IsUnavailable reports a saturated or shutting-down server.
func IsUnavailable(err error) bool { return apiErrorCode(err) == api.CodeUnavailable }

// IsInvalid reports a request the server rejected as malformed: bad
// body, unknown method, invalid params, or invalid query.
func IsInvalid(err error) bool {
	switch apiErrorCode(err) {
	case api.CodeInvalidRequest, api.CodeInvalidQuery, api.CodeUnknownMethod, api.CodeInvalidParams:
		return true
	}
	return false
}

// CreateSpec describes one release to create: the method name, its
// params (any JSON-marshalable value — canonically a typed params value
// from repro/anon), the store-level knobs, and the CSV table.
type CreateSpec struct {
	Method    string
	Params    any
	QI        int
	GridCells int
	CSV       string
}

// CreateRelease submits an anonymization job and returns the accepted
// release's metadata (status pending). Poll with GetRelease or block
// with WaitReady.
func (c *Client) CreateRelease(ctx context.Context, spec CreateSpec) (api.Release, error) {
	req := api.CreateReleaseRequest{
		Method:    spec.Method,
		QI:        spec.QI,
		GridCells: spec.GridCells,
		CSV:       spec.CSV,
	}
	if spec.Params != nil {
		raw, err := json.Marshal(spec.Params)
		if err != nil {
			return api.Release{}, fmt.Errorf("client: marshaling params: %w", err)
		}
		req.Params = raw
	}
	var out api.Release
	err := c.do(ctx, http.MethodPost, "/v1/releases", req, &out)
	return out, err
}

// GetRelease fetches one release's metadata.
func (c *Client) GetRelease(ctx context.Context, id string) (api.Release, error) {
	var out api.Release
	err := c.do(ctx, http.MethodGet, "/v1/releases/"+id, nil, &out)
	return out, err
}

// ListReleases fetches every release's metadata, newest first.
func (c *Client) ListReleases(ctx context.Context) ([]api.Release, error) {
	var out api.ListReleasesResponse
	if err := c.do(ctx, http.MethodGet, "/v1/releases", nil, &out); err != nil {
		return nil, err
	}
	return out.Releases, nil
}

// WaitReady polls the release until it is terminal or ctx expires. A
// ready release returns nil error; a failed build returns the final
// metadata together with a *Error of code api.CodeBuildFailed. poll ≤ 0
// selects DefaultPollInterval.
func (c *Client) WaitReady(ctx context.Context, id string, poll time.Duration) (api.Release, error) {
	if poll <= 0 {
		poll = DefaultPollInterval
	}
	timer := time.NewTimer(poll)
	defer timer.Stop()
	for {
		rel, err := c.GetRelease(ctx, id)
		if err != nil {
			return rel, err
		}
		switch rel.Status {
		case api.StatusReady:
			return rel, nil
		case api.StatusFailed:
			return rel, &Error{
				StatusCode: http.StatusConflict,
				Code:       api.CodeBuildFailed,
				Message:    fmt.Sprintf("release %s failed: %s", id, rel.Error),
			}
		}
		// The timer may have fired during the HTTP round-trip; drain the
		// stale tick before Reset or the select below would pop it
		// immediately and the loop would poll back-to-back.
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(poll)
		select {
		case <-ctx.Done():
			return rel, ctx.Err()
		case <-timer.C:
		}
	}
}

// Query answers one aggregation query (COUNT(*) by default; set q.Agg
// for SUM/AVG/MIN/MAX and q.GroupBy for a grouped answer, whose per-cell
// estimates come back in the result's Groups) against a ready release. A
// 503 (release still building, server saturated) is retried within the
// client's retry budget. Use QueryDetailed when the response envelope —
// notably the server's request ID, the key into GetTrace — matters.
func (c *Client) Query(ctx context.Context, id string, q api.Query) (api.QueryResult, error) {
	resp, err := c.QueryDetailed(ctx, id, q)
	if err != nil {
		return api.QueryResult{}, err
	}
	return api.QueryResult{Estimate: resp.Estimate, Cached: resp.Cached, Groups: resp.Groups}, nil
}

// QueryDetailed is Query returning the full response envelope: the
// release ID echoed back plus the server's request ID — feed that ID to
// GetTrace to see where a slow answer spent its time.
func (c *Client) QueryDetailed(ctx context.Context, id string, q api.Query) (api.QueryResponse, error) {
	var out api.QueryResponse
	err := c.do(ctx, http.MethodPost, "/v1/releases/"+id+"/query", q, &out)
	return out, err
}

// QueryBatch answers up to the server's batch cap of queries against one
// release, in order.
func (c *Client) QueryBatch(ctx context.Context, id string, qs []api.Query) (*api.BatchQueryResponse, error) {
	var out api.BatchQueryResponse
	if err := c.do(ctx, http.MethodPost, "/v1/query:batch", api.BatchQueryRequest{ReleaseID: id, Queries: qs}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Evaluate submits an asynchronous privacy/utility evaluation of a ready
// release. The request re-uploads the release's original microdata CSV —
// the server never retains raw tables, and it verifies the upload
// actually reproduces the release before evaluating. Returns the job's
// pending state; poll with GetEvaluation or WaitEvaluated. A release
// whose evaluation is already in flight answers 409 (api.CodeConflict).
func (c *Client) Evaluate(ctx context.Context, id string, req api.EvaluateRequest) (api.Evaluation, error) {
	var out api.Evaluation
	err := c.do(ctx, http.MethodPost, "/v1/releases/"+id+":evaluate", req, &out)
	return out, err
}

// GetEvaluation fetches a release's evaluation state; the verdict is
// present once Status is done. Against a durable server the verdict is
// served from its persisted sidecar, surviving restarts with zero
// re-evaluation.
func (c *Client) GetEvaluation(ctx context.Context, id string) (api.Evaluation, error) {
	var out api.Evaluation
	err := c.do(ctx, http.MethodGet, "/v1/releases/"+id+"/evaluation", nil, &out)
	return out, err
}

// WaitEvaluated polls the evaluation until it is terminal or ctx
// expires. A done evaluation returns nil error; a failed one returns the
// final state together with a *Error of code api.CodeEvalFailed. poll
// ≤ 0 selects DefaultPollInterval.
func (c *Client) WaitEvaluated(ctx context.Context, id string, poll time.Duration) (api.Evaluation, error) {
	if poll <= 0 {
		poll = DefaultPollInterval
	}
	timer := time.NewTimer(poll)
	defer timer.Stop()
	for {
		ev, err := c.GetEvaluation(ctx, id)
		if err != nil {
			return ev, err
		}
		switch ev.Status {
		case api.EvalStatusDone:
			return ev, nil
		case api.EvalStatusFailed:
			return ev, &Error{
				StatusCode: http.StatusConflict,
				Code:       api.CodeEvalFailed,
				Message:    fmt.Sprintf("evaluation of %s failed: %s", id, ev.Error),
			}
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(poll)
		select {
		case <-ctx.Done():
			return ev, ctx.Err()
		case <-timer.C:
		}
	}
}

// GetTrace fetches a retained trace by request ID. Against a gateway the
// document is assembled cluster-wide: gateway spans plus the node-local
// spans of every member that touched the request, offset-ordered. Trace
// retention is tail-sampled and bounded, so a normal fast request is
// usually a *Error of code api.CodeNotFound — error and slow requests
// are always retained (within ring capacity).
func (c *Client) GetTrace(ctx context.Context, requestID string) (api.TraceResponse, error) {
	var out api.TraceResponse
	err := c.do(ctx, http.MethodGet, "/v1/debug/traces/"+requestID, nil, &out)
	return out, err
}

// ClusterOverview fetches the gateway's rolling load overview: its own
// load series plus one per node. Only gateways serve this route; a
// single node answers 404.
func (c *Client) ClusterOverview(ctx context.Context) (api.ClusterOverviewResponse, error) {
	var out api.ClusterOverviewResponse
	err := c.do(ctx, http.MethodGet, "/v1/cluster/overview", nil, &out)
	return out, err
}

// Healthz probes the service's liveness endpoint.
func (c *Client) Healthz(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil)
}

// do issues one logical call: marshal, POST/GET, decode — retrying 503
// responses with the server-suggested Retry-After (bounded by the retry
// budget and the per-sleep cap) before giving up. Non-2xx responses
// decode into *Error.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return fmt.Errorf("client: marshaling request: %w", err)
		}
	}
	for attempt := 0; ; attempt++ {
		apiErr, err := c.once(ctx, method, path, body, out)
		if err != nil {
			return err
		}
		if apiErr == nil {
			return nil
		}
		if apiErr.StatusCode != http.StatusServiceUnavailable || attempt >= c.maxRetries {
			return apiErr
		}
		if err := c.sleep(ctx, apiErr.retryAfter, attempt); err != nil {
			return err
		}
	}
}

// once performs a single HTTP exchange. A service-level failure comes
// back as (*Error, nil); transport and decoding failures as (nil, err).
func (c *Client) once(ctx context.Context, method, path string, body []byte, out any) (*Error, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	data, err := readBody(resp.Body, resp.ContentLength)
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("client: reading %s %s response: %w", method, path, err)
	}
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		if out != nil {
			if err := json.Unmarshal(data, out); err != nil {
				return nil, fmt.Errorf("client: decoding %s %s response: %w", method, path, err)
			}
		}
		return nil, nil
	}
	apiErr := &Error{
		StatusCode: resp.StatusCode,
		RequestID:  resp.Header.Get(api.HeaderRequestID),
		retryAfter: parseRetryAfter(resp.Header.Get("Retry-After"), resp.Header.Get("Date")),
	}
	var env api.Envelope
	if jsonErr := json.Unmarshal(data, &env); jsonErr == nil && env.Error.Code != "" {
		apiErr.Code = env.Error.Code
		apiErr.Message = env.Error.Message
		apiErr.Details = env.Error.Details
		if apiErr.RequestID == "" {
			if id, ok := env.Error.Details["request_id"].(string); ok {
				apiErr.RequestID = id
			}
		}
	} else {
		// Not the service's envelope (a proxy, a panic page): keep the
		// body so the failure is still diagnosable.
		apiErr.Code = api.CodeInternal
		apiErr.Message = strings.TrimSpace(string(data))
	}
	return apiErr, nil
}

// maxBodyReserve caps the buffer readBody reserves from a declared
// length before any byte arrives.
const maxBodyReserve = 1 << 20

// readBody reads a response body to EOF, as io.ReadAll does, into a
// buffer that starts at min(size, 1 MiB)+1 bytes, size being the
// declared Content-Length (-1 when unknown), and doubles as it fills: an
// honest body of up to 1 MiB costs one allocation, and a false length
// reserves at most 1 MiB+1. It restates the server's edge.ReadBody,
// which pkg/ may not import.
func readBody(r io.Reader, size int64) ([]byte, error) {
	reserve := int64(512)
	if size > 0 {
		reserve = min(size, maxBodyReserve)
	}
	// One byte past the declared length lets the read that finds EOF land
	// in the buffer instead of growing it.
	buf := make([]byte, 0, reserve+1)
	for {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, cap(buf))
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// sleep waits out one retry delay: the server's Retry-After when given,
// exponential backoff otherwise, both capped, and interruptible by ctx.
func (c *Client) sleep(ctx context.Context, retryAfter time.Duration, attempt int) error {
	d := retryAfter
	if d <= 0 {
		// Double per attempt, stopping at the cap before the shift can
		// overflow into a negative (and therefore zero-delay) sleep on
		// large retry budgets.
		d = c.retryWait
		for i := 0; i < attempt && d < c.maxRetryWait; i++ {
			d <<= 1
		}
	}
	if d > c.maxRetryWait || d <= 0 {
		d = c.maxRetryWait
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}

// parseRetryAfter reads a Retry-After header in either RFC 9110 form:
// delay-seconds, or an HTTP-date taken relative to the response's Date
// header (the server's clock, so a skewed client clock cannot stretch the
// wait; time.Now() only when Date is absent or unparseable). A date
// already in the past clamps to 0, as does garbage — both fall back to
// the client's own backoff.
func parseRetryAfter(v, date string) time.Duration {
	v = strings.TrimSpace(v)
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	at, err := http.ParseTime(v)
	if err != nil {
		return 0
	}
	now, err := http.ParseTime(date)
	if err != nil {
		now = time.Now()
	}
	if d := at.Sub(now); d > 0 {
		return d
	}
	return 0
}
