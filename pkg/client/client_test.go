package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/pkg/api"
)

// fakeService scripts one route's responses in order, then repeats the
// last one.
type fakeService struct {
	t        *testing.T
	calls    atomic.Int64
	handler  http.HandlerFunc
	ts       *httptest.Server
	lastBody atomic.Pointer[[]byte]
}

func newFake(t *testing.T, h http.HandlerFunc) (*fakeService, *Client) {
	t.Helper()
	f := &fakeService{t: t, handler: h}
	f.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		data, _ := io.ReadAll(r.Body)
		f.lastBody.Store(&data)
		f.calls.Add(1)
		h(w, r)
	}))
	t.Cleanup(f.ts.Close)
	c := New(f.ts.URL, WithRetryWait(time.Millisecond), WithMaxRetryWait(5*time.Millisecond))
	return f, c
}

func writeEnvelope(w http.ResponseWriter, status int, code, msg string, details map[string]any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(api.Envelope{Error: api.Error{Code: code, Message: msg, Details: details}})
}

func TestErrorEnvelopeDecoding(t *testing.T) {
	_, c := newFake(t, func(w http.ResponseWriter, r *http.Request) {
		writeEnvelope(w, http.StatusNotFound, api.CodeNotFound, `release not found: "r-000404"`, map[string]any{"id": "r-000404"})
	})
	_, err := c.GetRelease(context.Background(), "r-000404")
	var ae *Error
	if !errors.As(err, &ae) {
		t.Fatalf("error %T is not *client.Error: %v", err, err)
	}
	if ae.StatusCode != http.StatusNotFound || ae.Code != api.CodeNotFound || ae.Message == "" {
		t.Fatalf("decoded %+v", ae)
	}
	if ae.Details["id"] != "r-000404" {
		t.Fatalf("details %+v", ae.Details)
	}
	if !IsNotFound(err) || IsNotReady(err) || IsInvalid(err) {
		t.Fatal("code helpers misclassified the error")
	}
}

func TestNonEnvelopeErrorBody(t *testing.T) {
	_, c := newFake(t, func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "panic page", http.StatusBadGateway)
	})
	_, err := c.GetRelease(context.Background(), "r-000001")
	var ae *Error
	if !errors.As(err, &ae) {
		t.Fatalf("error %T: %v", err, err)
	}
	if ae.StatusCode != http.StatusBadGateway || ae.Message != "panic page" {
		t.Fatalf("decoded %+v", ae)
	}
}

// TestRetryAfterHonored: 503s with Retry-After are retried until the
// service recovers, within the budget.
func TestRetryAfterHonored(t *testing.T) {
	var n atomic.Int64
	f, c := newFake(t, func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			writeEnvelope(w, http.StatusServiceUnavailable, api.CodeNotReady, "release r-000001 is building", nil)
			return
		}
		w.WriteHeader(http.StatusOK)
		_ = json.NewEncoder(w).Encode(api.QueryResponse{ReleaseID: "r-000001", Estimate: 42})
	})
	res, err := c.Query(context.Background(), "r-000001", api.Query{SALo: 0, SAHi: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate != 42 {
		t.Fatalf("estimate %v", res.Estimate)
	}
	if got := f.calls.Load(); got != 3 {
		t.Fatalf("%d attempts, want 3 (2 retries)", got)
	}
}

// TestQueryDetailedEnvelope: QueryDetailed surfaces the response
// envelope — release ID echo and the server's request ID (the key into
// GetTrace) — that the back-compat Query projection drops.
func TestQueryDetailedEnvelope(t *testing.T) {
	_, c := newFake(t, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		_ = json.NewEncoder(w).Encode(api.QueryResponse{ReleaseID: "r-000001", Estimate: 42, RequestID: "ab12cd34"})
	})
	resp, err := c.QueryDetailed(context.Background(), "r-000001", api.Query{SALo: 0, SAHi: 1})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ReleaseID != "r-000001" || resp.Estimate != 42 || resp.RequestID != "ab12cd34" {
		t.Fatalf("envelope %+v", resp)
	}
	res, err := c.Query(context.Background(), "r-000001", api.Query{SALo: 0, SAHi: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate != 42 {
		t.Fatalf("projected estimate %v", res.Estimate)
	}
}

// TestRetryBounded: a service that never recovers fails after the retry
// budget with the final 503, not an infinite loop.
func TestRetryBounded(t *testing.T) {
	f, c := newFake(t, func(w http.ResponseWriter, r *http.Request) {
		writeEnvelope(w, http.StatusServiceUnavailable, api.CodeUnavailable, "queue full", nil)
	})
	_, err := c.Query(context.Background(), "r-000001", api.Query{})
	if !IsUnavailable(err) {
		t.Fatalf("err %v, want unavailable", err)
	}
	if got := f.calls.Load(); got != int64(DefaultMaxRetries)+1 {
		t.Fatalf("%d attempts, want %d", got, DefaultMaxRetries+1)
	}
}

// TestRetryDisabled: WithMaxRetries(0) surfaces the first 503.
func TestRetryDisabled(t *testing.T) {
	var n atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n.Add(1)
		writeEnvelope(w, http.StatusServiceUnavailable, api.CodeUnavailable, "later", nil)
	}))
	t.Cleanup(ts.Close)
	c := New(ts.URL, WithMaxRetries(0))
	if _, err := c.Query(context.Background(), "r-1", api.Query{}); !IsUnavailable(err) {
		t.Fatalf("err %v", err)
	}
	if n.Load() != 1 {
		t.Fatalf("%d attempts, want 1", n.Load())
	}
}

// TestRetryRespectsContext: cancellation during the retry sleep aborts
// with the context error.
func TestRetryRespectsContext(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "30")
		writeEnvelope(w, http.StatusServiceUnavailable, api.CodeNotReady, "building", nil)
	}))
	t.Cleanup(ts.Close)
	c := New(ts.URL, WithMaxRetryWait(time.Hour)) // let Retry-After dominate
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Query(ctx, "r-000001", api.Query{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err %v, want deadline exceeded", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("retry sleep ignored the context")
	}
}

// TestCreateReleaseMarshalsParams: the params value lands as a raw JSON
// object in the request body.
func TestCreateReleaseMarshalsParams(t *testing.T) {
	f, c := newFake(t, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		_ = json.NewEncoder(w).Encode(api.Release{ID: "r-000001", Status: api.StatusPending})
	})
	rel, err := c.CreateRelease(context.Background(), CreateSpec{
		Method: "burel",
		Params: map[string]any{"beta": 2.5, "seed": 7},
		QI:     3,
		CSV:    "Age\n1\n",
	})
	if err != nil {
		t.Fatal(err)
	}
	if rel.ID != "r-000001" {
		t.Fatalf("release %+v", rel)
	}
	var req api.CreateReleaseRequest
	if err := json.Unmarshal(*f.lastBody.Load(), &req); err != nil {
		t.Fatal(err)
	}
	if req.Method != "burel" || req.QI != 3 || req.CSV == "" {
		t.Fatalf("request %+v", req)
	}
	var params map[string]float64
	if err := json.Unmarshal(req.Params, &params); err != nil {
		t.Fatal(err)
	}
	if params["beta"] != 2.5 || params["seed"] != 7 {
		t.Fatalf("params %v", params)
	}
}

// TestWaitReady: polls through pending → ready, and surfaces failed
// builds as a typed build_failed error.
func TestWaitReady(t *testing.T) {
	var n atomic.Int64
	_, c := newFake(t, func(w http.ResponseWriter, r *http.Request) {
		rel := api.Release{ID: "r-000001", Status: api.StatusBuilding}
		if n.Add(1) >= 3 {
			rel.Status = api.StatusReady
		}
		_ = json.NewEncoder(w).Encode(rel)
	})
	rel, err := c.WaitReady(context.Background(), "r-000001", time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Status != api.StatusReady || n.Load() < 3 {
		t.Fatalf("status %s after %d polls", rel.Status, n.Load())
	}

	_, c2 := newFake(t, func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(api.Release{ID: "r-000002", Status: api.StatusFailed, Error: "ℓ too large"})
	})
	rel, err = c2.WaitReady(context.Background(), "r-000002", time.Millisecond)
	if !IsBuildFailed(err) {
		t.Fatalf("err %v, want build_failed", err)
	}
	if rel.Status != api.StatusFailed {
		t.Fatalf("final metadata %+v", rel)
	}
}

// TestBackoffNeverOverflows: with a large retry budget and no
// Retry-After, the doubling backoff must clamp at maxRetryWait instead
// of overflowing into a negative (zero-delay) sleep.
func TestBackoffNeverOverflows(t *testing.T) {
	c := New("http://unused", WithRetryWait(100*time.Millisecond), WithMaxRetryWait(10*time.Millisecond))
	start := time.Now()
	if err := c.sleep(context.Background(), 0, 62); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 8*time.Millisecond || d > 5*time.Second {
		t.Fatalf("attempt-62 backoff slept %v, want ≈ maxRetryWait", d)
	}
	// Zero-configured waits still sleep the cap, never a negative.
	c = New("http://unused", WithRetryWait(0), WithMaxRetryWait(5*time.Millisecond))
	start = time.Now()
	if err := c.sleep(context.Background(), 0, 3); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 3*time.Millisecond {
		t.Fatalf("zero-base backoff slept only %v", d)
	}
}

// TestWaitReadyPacingUnderSlowServer: a GetRelease round-trip longer
// than the poll interval must not collapse WaitReady into back-to-back
// polling (the fired timer's stale tick has to be drained).
func TestWaitReadyPacingUnderSlowServer(t *testing.T) {
	var n atomic.Int64
	_, c := newFake(t, func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(6 * time.Millisecond) // RTT > poll interval
		rel := api.Release{ID: "r-000001", Status: api.StatusBuilding}
		if n.Add(1) >= 4 {
			rel.Status = api.StatusReady
		}
		_ = json.NewEncoder(w).Encode(rel)
	})
	start := time.Now()
	if _, err := c.WaitReady(context.Background(), "r-000001", 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// 4 polls × (6ms RTT + 5ms pacing between polls); without pacing the
	// loop finishes in ~4 RTTs. Allow slack, but require the 3 sleeps.
	if d := time.Since(start); d < 6*time.Millisecond*4+5*time.Millisecond*3-5*time.Millisecond {
		t.Fatalf("4 polls finished in %v: pacing sleeps were skipped", d)
	}
}

func TestHealthz(t *testing.T) {
	_, c := newFake(t, func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"status":"ok"}`))
	})
	if err := c.Healthz(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestParseRetryAfterForms pins both RFC 9110 Retry-After forms: plain
// delay-seconds, and an HTTP-date interpreted relative to the response's
// Date header (so the server's clock defines "now", not the client's).
func TestParseRetryAfterForms(t *testing.T) {
	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	date := base.Format(http.TimeFormat)
	cases := []struct {
		name  string
		value string
		date  string
		want  time.Duration
	}{
		{"empty", "", date, 0},
		{"delay seconds", "7", date, 7 * time.Second},
		{"delay seconds padded", "  30 ", date, 30 * time.Second},
		{"negative delay clamps", "-5", date, 0},
		{"garbage", "soon", date, 0},
		{"http date ahead", base.Add(90 * time.Second).Format(http.TimeFormat), date, 90 * time.Second},
		{"http date in the past clamps", base.Add(-time.Hour).Format(http.TimeFormat), date, 0},
		{"http date equal to Date clamps", date, date, 0},
		{"rfc850 date form", base.Add(2 * time.Minute).Format("Monday, 02-Jan-06 15:04:05 MST"), date, 2 * time.Minute},
		{"asctime date form", base.Add(time.Minute).Format(time.ANSIC), date, time.Minute},
		{"unparseable date ignored", "Fri, 99 Zed 2026 12:00:00 GMT", date, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := parseRetryAfter(tc.value, tc.date); got != tc.want {
				t.Fatalf("parseRetryAfter(%q, %q) = %v, want %v", tc.value, tc.date, got, tc.want)
			}
		})
	}
}

// TestParseRetryAfterWithoutDate: an HTTP-date with no usable Date header
// falls back to the local clock — a date a minute out must land within
// the clamp-adjusted (0, minute] window rather than at a fixed value.
func TestParseRetryAfterWithoutDate(t *testing.T) {
	at := time.Now().Add(time.Minute).UTC().Format(http.TimeFormat)
	for _, date := range []string{"", "not a date"} {
		got := parseRetryAfter(at, date)
		if got <= 0 || got > time.Minute {
			t.Fatalf("parseRetryAfter(%q, %q) = %v, want within (0, 1m]", at, date, got)
		}
	}
	if got := parseRetryAfter(time.Now().Add(-time.Minute).UTC().Format(http.TimeFormat), ""); got != 0 {
		t.Fatalf("past date against local clock = %v, want 0", got)
	}
}

// TestRetryAfterHTTPDateHonored drives the date form end to end: the
// 503's Retry-After names a moment one millisecond past the response's
// own Date, so the retry happens promptly and succeeds.
func TestRetryAfterHTTPDateHonored(t *testing.T) {
	var n atomic.Int64
	f, c := newFake(t, func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 1 {
			now := time.Now().UTC()
			w.Header().Set("Date", now.Format(http.TimeFormat))
			w.Header().Set("Retry-After", now.Add(time.Second).Format(http.TimeFormat))
			writeEnvelope(w, http.StatusServiceUnavailable, api.CodeNotReady, "building", nil)
			return
		}
		w.WriteHeader(http.StatusOK)
		_ = json.NewEncoder(w).Encode(api.QueryResponse{ReleaseID: "r-000001", Estimate: 7})
	})
	res, err := c.Query(context.Background(), "r-000001", api.Query{SALo: 0, SAHi: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate != 7 || f.calls.Load() != 2 {
		t.Fatalf("estimate %v after %d calls", res.Estimate, f.calls.Load())
	}
}

// TestReadBody: an honest body of known length up to 1 MiB costs one
// allocation, a false Content-Length reserves at most 1 MiB+1 bytes, and
// an unknown or short length still reads the whole body.
func TestReadBody(t *testing.T) {
	for _, n := range []int{1, 511, 4096, maxBodyReserve} {
		body := bytes.Repeat([]byte{'x'}, n)
		rd := bytes.NewReader(body)
		var got []byte
		allocs := testing.AllocsPerRun(20, func() {
			rd.Reset(body)
			var err error
			if got, err = readBody(rd, int64(n)); err != nil {
				t.Fatal(err)
			}
		})
		if !bytes.Equal(got, body) {
			t.Fatalf("%d-byte body read back as %d bytes", n, len(got))
		}
		if allocs != 1 {
			t.Errorf("%d-byte body of declared length: %v allocations, want 1", n, allocs)
		}
	}

	got, err := readBody(strings.NewReader("short"), 64<<20)
	if err != nil || string(got) != "short" {
		t.Fatalf("false length: %q, %v", got, err)
	}
	if cap(got) > maxBodyReserve+1 {
		t.Fatalf("a false length reserved %d bytes, want at most %d", cap(got), maxBodyReserve+1)
	}

	body := bytes.Repeat([]byte("0123456789"), 300_000) // 3 MB, past the reserve
	for _, size := range []int64{-1, 10, int64(len(body))} {
		got, err := readBody(bytes.NewReader(body), size)
		if err != nil || !bytes.Equal(got, body) {
			t.Fatalf("declared %d: read %d of %d bytes, %v", size, len(got), len(body), err)
		}
	}
}
