package obs

import (
	"context"
	"net/http"
	"testing"
	"time"
)

func TestNewRequestIDShape(t *testing.T) {
	a, b := NewRequestID(), NewRequestID()
	if len(a) != 32 || !isLowerHex(a) {
		t.Fatalf("request ID %q is not 32 lowercase hex chars", a)
	}
	if a == b {
		t.Fatalf("two minted IDs collided: %q", a)
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	id := NewRequestID()
	tp := FormatTraceparent(id)
	if tp == "" {
		t.Fatalf("FormatTraceparent rejected minted ID %q", id)
	}
	got, ok := ParseTraceparent(tp)
	if !ok || got != id {
		t.Fatalf("ParseTraceparent(%q) = %q, %v; want %q", tp, got, ok, id)
	}
}

func TestParseTraceparentRejects(t *testing.T) {
	bad := []string{
		"",
		"00-short-beef-01",
		"01-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",      // unknown version
		"00-00000000000000000000000000000000-b7ad6b7169203331-01",      // zero trace-id
		"00-0af7651916cd43dd8448eb211c80319g-b7ad6b7169203331-01",      // non-hex
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01-junk", // trailing
		"00-0AF7651916CD43DD8448EB211C80319C-b7ad6b7169203331-01",      // uppercase trace-id (W3C requires lowercase)
		"00-0af7651916cd43dd8448eb211c80319c-B7AD6B7169203331-01",      // uppercase parent-id
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-0A",      // uppercase flags
	}
	for _, v := range bad {
		if id, ok := ParseTraceparent(v); ok {
			t.Errorf("ParseTraceparent(%q) accepted as %q", v, id)
		}
	}
}

func TestRequestIDFromHeaders(t *testing.T) {
	h := http.Header{}
	h.Set(HeaderTraceparent, "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01")
	h.Set(HeaderRequestID, "other")
	id, minted := RequestIDFromHeaders(h)
	if minted || id != "0af7651916cd43dd8448eb211c80319c" {
		t.Fatalf("traceparent should win: got %q minted=%v", id, minted)
	}

	h = http.Header{}
	h.Set(HeaderRequestID, "my-request.1")
	id, minted = RequestIDFromHeaders(h)
	if minted || id != "my-request.1" {
		t.Fatalf("X-Request-Id should be used: got %q minted=%v", id, minted)
	}

	// Uppercase traceparent hex is malformed per W3C: fall through to the
	// X-Request-Id rather than adopting (or normalizing) the trace-id.
	h = http.Header{}
	h.Set(HeaderTraceparent, "00-0AF7651916CD43DD8448EB211C80319C-b7ad6b7169203331-01")
	h.Set(HeaderRequestID, "fallback-id")
	id, minted = RequestIDFromHeaders(h)
	if minted || id != "fallback-id" {
		t.Fatalf("uppercase traceparent should fall through to X-Request-Id: got %q minted=%v", id, minted)
	}

	h = http.Header{}
	h.Set(HeaderRequestID, "bad id with spaces\n")
	id, minted = RequestIDFromHeaders(h)
	if !minted || len(id) != 32 {
		t.Fatalf("unsafe upstream ID should be replaced by a minted one, got %q minted=%v", id, minted)
	}
}

func TestPropagateHeaders(t *testing.T) {
	h := http.Header{}
	id := NewRequestID()
	PropagateHeaders(h, id)
	if h.Get(HeaderRequestID) != id {
		t.Fatalf("X-Request-Id not set")
	}
	if got, ok := ParseTraceparent(h.Get(HeaderTraceparent)); !ok || got != id {
		t.Fatalf("traceparent %q does not carry %q", h.Get(HeaderTraceparent), id)
	}

	h = http.Header{}
	PropagateHeaders(h, "not-a-trace-id")
	if h.Get(HeaderRequestID) != "not-a-trace-id" || h.Get(HeaderTraceparent) != "" {
		t.Fatalf("non-trace-shaped ID should propagate via X-Request-Id only, got %q", h.Get(HeaderTraceparent))
	}
}

func TestTraceSpans(t *testing.T) {
	tr := NewTrace("req-1")
	done := tr.StartSpan("outer")
	time.Sleep(time.Millisecond)
	inner := tr.StartSpanNode("subbatch", "n2")
	inner()
	done()
	tr.SetRelease("n1-r-000001")

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("want 2 spans, got %d", len(spans))
	}
	if spans[0].Stage != "outer" || spans[1].Stage != "subbatch" || spans[1].Node != "n2" {
		t.Fatalf("spans out of order or mislabeled: %+v", spans)
	}
	if spans[0].Dur < time.Millisecond {
		t.Fatalf("outer span too short: %v", spans[0].Dur)
	}
	if tr.ReleaseID() != "n1-r-000001" {
		t.Fatalf("release annotation lost: %q", tr.ReleaseID())
	}
	recs := tr.Records()
	if len(recs) != 2 || recs[1].OffsetMicros < recs[0].OffsetMicros {
		t.Fatalf("records not offset-ordered: %+v", recs)
	}
}

func TestNilTraceIsNoOp(t *testing.T) {
	var tr *Trace
	tr.StartSpan("x")()
	tr.StartSpanNode("y", "n")()
	tr.AddSpan("z", "", time.Now(), time.Second)
	tr.SetRelease("r")
	if tr.Spans() != nil || tr.ReleaseID() != "" {
		t.Fatal("nil trace should be inert")
	}
}

func TestContextPlumbing(t *testing.T) {
	ctx := context.Background()
	if TraceFrom(ctx) != nil || RequestIDFrom(ctx) != "" {
		t.Fatal("empty context should carry no trace")
	}
	tr := NewTrace("abc")
	ctx = WithTrace(ctx, tr)
	if TraceFrom(ctx) != tr || RequestIDFrom(ctx) != "abc" {
		t.Fatal("trace lost in context")
	}
}

// TestHasBearer: only the exact configured token passes, and an empty
// token passes nothing — not even an empty Bearer credential.
func TestHasBearer(t *testing.T) {
	for _, tc := range []struct {
		header, token string
		want          bool
	}{
		{"Bearer s3cret", "s3cret", true},
		{"Bearer s3cret", "other", false},
		{"Bearer s3cre", "s3cret", false},
		{"bearer s3cret", "s3cret", false},
		{"s3cret", "s3cret", false},
		{"", "s3cret", false},
		{"Bearer ", "", false},
		{"", "", false},
	} {
		r, _ := http.NewRequest(http.MethodGet, "/", nil)
		if tc.header != "" {
			r.Header.Set("Authorization", tc.header)
		}
		if got := HasBearer(r, tc.token); got != tc.want {
			t.Errorf("HasBearer(%q, token %q) = %v, want %v", tc.header, tc.token, got, tc.want)
		}
	}
}
