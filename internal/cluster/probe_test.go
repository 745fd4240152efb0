package cluster

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// probedMembership is a one-node membership over a node whose /healthz
// runs handle before answering healthy.
func probedMembership(t *testing.T, handle func()) *Membership {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handle()
		fmt.Fprint(w, `{"status":"ok","node":"n1"}`)
	}))
	t.Cleanup(srv.Close)
	m, err := newMembership([]Node{{ID: "n1", URL: srv.URL}}, srv.Client(), "")
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestProbeIsNotLoad: a health probe in flight does not count in the
// node's in-flight load, which orders a release's replicas for each
// sub-batch (liveByLoad). A probe that counted would move a sub-batch to
// the replica whose cache is cold for it whenever the two overlapped.
func TestProbeIsNotLoad(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	m := probedMembership(t, func() {
		close(entered)
		<-release
	})
	done := make(chan struct{})
	go func() {
		m.probeAll(context.Background(), time.Minute)
		close(done)
	}()
	<-entered
	inflight := m.nodes[0].inflight.Load()
	close(release)
	<-done
	if inflight != 0 {
		t.Fatalf("a probe in flight counts as %d in-flight requests", inflight)
	}
	if !m.nodes[0].alive.Load() {
		t.Fatalf("the probe failed: %s", m.nodes[0].lastError())
	}
}

// TestSlowProbeKeepsNodeAlive: a healthy node whose /healthz answers
// later than a fast probe interval keeps its breaker closed; a probe's
// deadline is the interval, but never under minProbeTimeout.
func TestSlowProbeKeepsNodeAlive(t *testing.T) {
	const interval = 10 * time.Millisecond
	m := probedMembership(t, func() { time.Sleep(10 * interval) })
	ctx, cancel := context.WithCancel(context.Background())
	stopped := make(chan struct{})
	go func() {
		m.probeLoop(ctx, interval)
		close(stopped)
	}()
	st := m.nodes[0]
	deadline := time.Now().Add(10 * time.Second)
	for st.lastErr.Load() == nil && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	// The first probe has settled; the next is in flight until cancel.
	first, alive := st.lastErr.Load(), st.alive.Load()
	cancel()
	<-stopped
	if first == nil {
		t.Fatal("no probe completed")
	}
	if *first != "" || !alive {
		t.Fatalf("a node answering its probe in %v was marked down: %s", 10*interval, *first)
	}
}
