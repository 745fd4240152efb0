package edge

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/pkg/api"
)

var testRole = Role{
	Span:         "node",
	Requests:     "repro_test_requests_total",
	RequestsHelp: "Requests served, by route and status code.",
	Duration:     "repro_test_request_duration_seconds",
	DurationHelp: "Request latency, by route.",
	Prefix:       "repro_test_",
	UptimeHelp:   "Seconds since the test edge started.",
}

// serve runs one request through h wrapped as route and returns the
// recorded response.
func serve(e *Edge, route string, h http.HandlerFunc, req *http.Request) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	e.Wrap(route, h)(w, req)
	return w
}

func decodeEnvelope(t *testing.T, w *httptest.ResponseRecorder) api.Envelope {
	t.Helper()
	var env api.Envelope
	if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
		t.Fatalf("body %q is not an error envelope: %v", w.Body.String(), err)
	}
	return env
}

// TestWrapCarriesRequestIDIntoEnvelopeAndTrace: the ID Wrap resolves is
// echoed as a header, mirrored into error envelopes, and keys a retained
// trace that records the route span, status, and error code.
func TestWrapCarriesRequestIDIntoEnvelopeAndTrace(t *testing.T) {
	e := New(testRole, Options{Node: "n7", LoadSampleInterval: -1})
	defer e.Close()
	const traceID = "4bf92f3577b34da6a3ce929d0e0e4736"
	req := httptest.NewRequest(http.MethodGet, "/x", nil)
	req.Header.Set("traceparent", obs.FormatTraceparent(traceID))
	w := serve(e, "get_x", func(w http.ResponseWriter, r *http.Request) {
		if got := obs.RequestIDFrom(r.Context()); got != traceID {
			t.Errorf("handler context request ID = %q, want %q", got, traceID)
		}
		WriteErr(w, http.StatusConflict, api.CodeConflict, errors.New("busy"), map[string]any{"k": "v"})
	}, req)

	if got := w.Header().Get(obs.HeaderRequestID); got != traceID {
		t.Fatalf("X-Request-Id = %q, want the adopted %q", got, traceID)
	}
	env := decodeEnvelope(t, w)
	if w.Code != http.StatusConflict || env.Error.Code != api.CodeConflict || env.Error.Message != "busy" {
		t.Fatalf("response %d %+v", w.Code, env.Error)
	}
	if env.Error.Details["request_id"] != traceID || env.Error.Details["k"] != "v" {
		t.Errorf("details %v: want request_id mirrored beside the caller's keys", env.Error.Details)
	}

	tr, ok := e.Trace(traceID)
	if !ok {
		t.Fatal("error trace not retained")
	}
	if tr.Route != "get_x" || tr.Status != http.StatusConflict || tr.ErrorCode != api.CodeConflict {
		t.Errorf("trace header %+v", tr)
	}
	var span *api.TraceSpan
	for i := range tr.Spans {
		if tr.Spans[i].Stage == "node.get_x" {
			span = &tr.Spans[i]
		}
	}
	if span == nil || span.Origin != "n7" || span.Node != "n7" {
		t.Errorf("route span %+v in %+v, want node.get_x labeled n7", span, tr.Spans)
	}
}

// TestWriteErrOutsideWrap: without a staged request ID the envelope
// carries the caller's details untouched.
func TestWriteErrOutsideWrap(t *testing.T) {
	w := httptest.NewRecorder()
	WriteErr(w, http.StatusBadRequest, api.CodeInvalidRequest, errors.New("bad"), nil)
	env := decodeEnvelope(t, w)
	if env.Error.Details != nil || w.Header().Get("Content-Type") != "application/json" {
		t.Errorf("envelope %+v, content type %q", env.Error, w.Header().Get("Content-Type"))
	}
}

func TestWriteBodyErr(t *testing.T) {
	for _, tc := range []struct {
		name   string
		body   string
		limit  int64
		status int
		code   string
	}{
		{"malformed", "{", 1 << 10, http.StatusBadRequest, api.CodeInvalidRequest},
		{"over the cap", `{"csv":"` + strings.Repeat("x", 64) + `"}`, 16, http.StatusRequestEntityTooLarge, api.CodeTooLarge},
	} {
		w := httptest.NewRecorder()
		var v map[string]any
		err := json.NewDecoder(http.MaxBytesReader(w, io.NopCloser(strings.NewReader(tc.body)), tc.limit)).Decode(&v)
		WriteBodyErr(w, fmt.Errorf("decoding request: %w", err))
		env := decodeEnvelope(t, w)
		if w.Code != tc.status || env.Error.Code != tc.code || !strings.HasPrefix(env.Error.Message, "decoding request: ") {
			t.Errorf("%s: %d %+v, want %d %s", tc.name, w.Code, env.Error, tc.status, tc.code)
		}
	}
}

func TestEvaluateTarget(t *testing.T) {
	mux := http.NewServeMux()
	var got string
	mux.HandleFunc("POST /v1/releases/{action}", func(w http.ResponseWriter, r *http.Request) {
		if id, ok := EvaluateTarget(w, r); ok {
			got = id
		}
	})
	for path, want := range map[string]string{
		"/v1/releases/n1-r-000003:evaluate": "n1-r-000003",
		"/v1/releases/r-000003:explode":     "",
		"/v1/releases/:evaluate":            "",
		"/v1/releases/r-000003":             "",
	} {
		got = ""
		w := httptest.NewRecorder()
		mux.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, nil))
		if got != want {
			t.Errorf("%s: id %q, want %q", path, got, want)
		}
		if want == "" && (w.Code != http.StatusNotFound || decodeEnvelope(t, w).Error.Code != api.CodeNotFound) {
			t.Errorf("%s: %d %s, want a 404 envelope", path, w.Code, w.Body)
		}
	}
}

// TestMetricsHandler: the role's names and its own families land in both
// negotiated formats, each lint-clean; only OpenMetrics carries
// exemplars and the EOF terminator.
func TestMetricsHandler(t *testing.T) {
	e := New(testRole, Options{LoadSampleInterval: -1})
	defer e.Close()
	ok := func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(http.StatusNoContent) }
	for i := 0; i < 3; i++ {
		serve(e, "ping", ok, httptest.NewRequest(http.MethodGet, "/ping", nil))
	}
	metrics := e.Wrap("metrics", e.MetricsHandler(func(buf *bytes.Buffer, openMetrics bool) {
		WriteScalar(buf, "repro_test_own_total", "counter", "A role-owned counter.", 42)
	}))
	scrape := func(accept string) (string, string) {
		req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
		req.Header.Set("Accept", accept)
		w := httptest.NewRecorder()
		metrics(w, req)
		if err := obs.LintExposition(w.Body.Bytes()); err != nil {
			t.Fatalf("Accept %q: exposition fails lint: %v\n%s", accept, err, w.Body)
		}
		return w.Header().Get("Content-Type"), w.Body.String()
	}

	ct, text := scrape("")
	if ct != obs.ContentTypeText {
		t.Errorf("default content type %q", ct)
	}
	for _, want := range []string{
		`repro_test_requests_total{route="ping",code="204"} 3`,
		`repro_test_request_duration_seconds_count{route="ping"} 3`,
		"repro_test_own_total 42",
		"# TYPE repro_test_http_inflight_requests gauge\nrepro_test_http_inflight_requests 1\n",
		"# TYPE repro_test_tracestore_capacity gauge",
		"# TYPE repro_test_go_goroutines gauge",
		"# HELP repro_test_uptime_seconds Seconds since the test edge started.",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("text exposition lacks %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, " # {") || strings.Contains(text, "# EOF") {
		t.Errorf("OpenMetrics syntax in the text exposition:\n%s", text)
	}

	ct, om := scrape("application/openmetrics-text; version=1.0.0")
	if ct != obs.ContentTypeOpenMetrics || !strings.Contains(om, " # {trace_id=") || !strings.HasSuffix(om, obs.ExpositionEOF) {
		t.Errorf("OpenMetrics scrape (%s) lacks exemplars or EOF:\n%s", ct, om)
	}
}

// TestLoadSeries: the sampler reads the role's work counter and queue
// depth when given one and the edge's request count otherwise, and the
// series names the origin.
func TestLoadSeries(t *testing.T) {
	sampled := func(e *Edge) api.LoadSeries {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			if s := e.LoadSeries(); len(s.Samples) > 0 {
				return s
			}
			if time.Now().After(deadline) {
				t.Fatal("no load sample taken")
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	worker := New(testRole, Options{Node: "n2", LoadSampleInterval: time.Millisecond,
		Work: func() (uint64, int) { return 1000, 7 }})
	defer worker.Close()
	s := sampled(worker)
	if s.Origin != "n2" || s.Samples[0].QueueDepth != 7 || s.Samples[0].QPS <= 0 {
		t.Errorf("work-driven series %+v", s)
	}

	gw := New(Role{Span: "gateway"}, Options{LoadSampleInterval: time.Millisecond})
	defer gw.Close()
	if s := sampled(gw); s.Origin != "gateway" || s.Samples[0].QueueDepth != 0 {
		t.Errorf("request-driven series %+v", s)
	}

	off := New(testRole, Options{LoadSampleInterval: -1})
	defer off.Close()
	if s := off.LoadSeries(); s.Origin != "node" || s.Samples == nil || len(s.Samples) != 0 {
		t.Errorf("disabled sampler series %+v, want an empty list", s)
	}
}

// TestReadBody: the buffer starts from the declared length, capped at
// 1 MiB, and doubles from there. An honest body of known length up to
// 1 MiB costs one allocation; a false Content-Length reserves at most
// 1 MiB; an unknown or short length still reads the whole body; and the
// reader's error, such as http.MaxBytesReader's, comes back as it is.
func TestReadBody(t *testing.T) {
	for _, n := range []int{0, 1, 511, 4096, maxBodyReserve} {
		body := bytes.Repeat([]byte{'x'}, n)
		rd := bytes.NewReader(body)
		var got []byte
		allocs := testing.AllocsPerRun(20, func() {
			rd.Reset(body)
			var err error
			if got, err = ReadBody(rd, int64(n)); err != nil {
				t.Fatal(err)
			}
		})
		if !bytes.Equal(got, body) {
			t.Fatalf("%d-byte body read back as %d bytes", n, len(got))
		}
		if n > 0 && allocs != 1 {
			t.Errorf("%d-byte body of declared length: %v allocations, want 1", n, allocs)
		}
	}

	got, err := ReadBody(strings.NewReader("short"), 64<<20)
	if err != nil || string(got) != "short" {
		t.Fatalf("false length: %q, %v", got, err)
	}
	if cap(got) > maxBodyReserve+1 {
		t.Fatalf("a false length reserved %d bytes, want at most %d", cap(got), maxBodyReserve+1)
	}

	body := bytes.Repeat([]byte("0123456789"), 300_000) // 3 MB, past the reserve
	for _, size := range []int64{-1, 10, int64(len(body))} {
		got, err := ReadBody(bytes.NewReader(body), size)
		if err != nil || !bytes.Equal(got, body) {
			t.Fatalf("declared %d: read %d of %d bytes, %v", size, len(got), len(body), err)
		}
	}

	w := httptest.NewRecorder()
	capped := http.MaxBytesReader(w, io.NopCloser(bytes.NewReader(body)), 1000)
	var tooLarge *http.MaxBytesError
	if _, err := ReadBody(capped, int64(len(body))); !errors.As(err, &tooLarge) {
		t.Fatalf("capped read: %v, want *http.MaxBytesError", err)
	}
}
