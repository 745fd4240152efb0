package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/pkg/api"
)

// replicator keeps every ready release present on its full replica set.
// Two triggers feed it: a watch per gateway-proxied create (replicate as
// soon as the build completes) and a periodic reconcile sweep that
// re-derives desired placement from the live catalogs — the convergence
// path after gateway restarts, node recoveries, and creates that bypassed
// this gateway. Replication is idempotent end to end (RegisterAs drops
// duplicates), so the two triggers need no coordination.
type replicator struct {
	g     *Gateway
	every time.Duration

	watches chan string
	stop    chan struct{}
	done    chan struct{}
}

// watchPollInterval is the cadence for polling a just-created release
// toward its terminal state.
const watchPollInterval = 150 * time.Millisecond

// maxWatch bounds how long one create is watched; a build slower than
// this is picked up by the reconcile sweep instead.
const maxWatch = 15 * time.Minute

func newReplicator(g *Gateway, every time.Duration) *replicator {
	r := &replicator{
		g:       g,
		every:   every,
		watches: make(chan string, 256),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	go r.run()
	return r
}

func (r *replicator) close() {
	close(r.stop)
	<-r.done
}

// watch enqueues a release for build-completion tracking. A full queue
// drops the watch — the reconcile sweep replicates it later.
func (r *replicator) watch(id string) {
	select {
	case r.watches <- id:
	default:
	}
}

// run multiplexes watches and sweeps on one goroutine: replication volume
// is bounded by build throughput, and a single writer keeps the
// fetch-once-ship-many path simple.
func (r *replicator) run() {
	defer close(r.done)
	if r.g.token == "" {
		// No token, no internal endpoints: drain triggers so creates do
		// not block, but ship nothing.
		for {
			select {
			case <-r.stop:
				return
			case <-r.watches:
			}
		}
	}
	ticker := time.NewTicker(r.every)
	defer ticker.Stop()
	pending := make(map[string]time.Time) // release ID → watch deadline
	poll := time.NewTicker(watchPollInterval)
	defer poll.Stop()
	for {
		select {
		case <-r.stop:
			return
		case id := <-r.watches:
			pending[id] = time.Now().Add(maxWatch)
		case <-poll.C:
			for id, deadline := range pending {
				if done := r.checkWatched(id); done || time.Now().After(deadline) {
					delete(pending, id)
				}
			}
		case <-ticker.C:
			r.reconcile()
		}
	}
}

// checkWatched polls one watched release; when it turns ready it is
// replicated. Returns true when the watch is finished: terminal state,
// or the release vanished — every live node answered and none has it,
// which means its node died with it and the reconcile sweep owns it
// from there (continuing to poll would hammer the whole membership for
// the full watch deadline).
func (r *replicator) checkWatched(id string) bool {
	missed, unreachable := false, false
	for _, st := range r.g.mem.placement(id) {
		if !st.alive.Load() {
			unreachable = true
			continue
		}
		rel, found, err := r.getRelease(st, id)
		if err != nil {
			unreachable = true
			continue
		}
		if !found {
			missed = true
			continue
		}
		switch rel.Status {
		case api.StatusReady:
			r.replicate(id, []*nodeState{st})
			return true
		case api.StatusFailed:
			return true // terminal: nothing to ship
		default:
			return false // still building; keep watching
		}
	}
	// Every member answered and none holds the release: vanished.
	// Unreachable members keep the watch alive — one of them may be the
	// owner, mid-build.
	return missed && !unreachable
}

// getRelease fetches one release's metadata directly from one node.
// found distinguishes a conclusive 404 from a node that answered; err
// reports a node that could not be asked.
func (r *replicator) getRelease(st *nodeState, id string) (rel api.Release, found bool, err error) {
	nr, err := r.g.exchange(context.Background(), st, http.MethodGet, "/v1/releases/"+id, "", nil)
	if err != nil {
		return api.Release{}, false, err
	}
	if nr.status == http.StatusNotFound {
		return api.Release{}, false, nil
	}
	if nr.status != http.StatusOK {
		return api.Release{}, false, fmt.Errorf("cluster: %s: %d", st.node.ID, nr.status)
	}
	if jerr := json.Unmarshal(nr.body, &rel); jerr != nil {
		return api.Release{}, false, jerr
	}
	return rel, true, nil
}

// reconcile re-derives desired placement from the live catalogs and ships
// every missing copy: the idempotent convergence sweep.
func (r *replicator) reconcile() {
	defer r.g.replSweeps.Add(1)
	holders := make(map[string][]*nodeState)
	for _, st := range r.g.mem.nodes {
		if !st.alive.Load() {
			continue
		}
		nr, err := r.g.exchange(context.Background(), st, http.MethodGet, "/v1/releases", "", nil)
		if err != nil || nr.status != http.StatusOK {
			continue
		}
		var out api.ListReleasesResponse
		if json.Unmarshal(nr.body, &out) != nil {
			continue
		}
		for _, rel := range out.Releases {
			if rel.Status == api.StatusReady {
				holders[rel.ID] = append(holders[rel.ID], st)
			}
		}
	}
	for id, hs := range holders {
		r.replicate(id, hs)
	}
}

// replicate brings one ready release up to its replica set: fetch the
// envelope once from a holder, ship it to every live target that lacks a
// copy. holders lists nodes known to serve the release ready.
func (r *replicator) replicate(id string, holders []*nodeState) {
	targets := r.g.mem.replicaSet(id, r.g.rfactor)
	holding := make(map[*nodeState]bool, len(holders))
	for _, h := range holders {
		holding[h] = true
	}
	var env []byte
	for _, st := range targets {
		if holding[st] || !st.alive.Load() {
			continue
		}
		// A target may hold a copy this gateway has not observed (another
		// gateway replicated it); the receiving RegisterAs drops the
		// duplicate, so shipping blind is correct, just not free.
		if env == nil {
			var err error
			fetchStart := time.Now()
			env, err = r.fetchEnvelope(id, holders)
			r.g.stages.Observe("gateway.replication_fetch", time.Since(fetchStart))
			if err != nil {
				r.g.countReplication(0, err)
				r.g.logger.Warn("fetching snapshot failed", "release_id", id, "err", err)
				return
			}
		}
		pushStart := time.Now()
		err := r.ship(id, st, env)
		r.g.stages.Observe("gateway.replication_push", time.Since(pushStart))
		if err != nil {
			r.g.countReplication(0, err)
			r.g.logger.Warn("replicating snapshot failed", "release_id", id, "node", st.node.ID, "err", err)
			continue
		}
		r.g.countReplication(len(env), nil)
		r.g.logger.Info("replicated snapshot", "release_id", id, "node", st.node.ID, "bytes", len(env))
	}
}

// fetchEnvelope retrieves a release's replication envelope from the first
// holder that can serve it, verifying the framed identity.
func (r *replicator) fetchEnvelope(id string, holders []*nodeState) ([]byte, error) {
	var lastErr error
	for _, st := range holders {
		if !st.alive.Load() {
			continue
		}
		env, err := r.internalRoundTrip(st, http.MethodGet, "/v1/internal/snapshot/"+id, nil)
		if err != nil {
			lastErr = err
			continue
		}
		gotID, _, _, err := DecodeEnvelope(env)
		if err != nil {
			lastErr = fmt.Errorf("from %s: %w", st.node.ID, err)
			continue
		}
		if gotID != id {
			lastErr = fmt.Errorf("from %s: envelope is for %q, want %q", st.node.ID, gotID, id)
			continue
		}
		return env, nil
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("cluster: no live holder for %s", id)
	}
	return nil, lastErr
}

// ship installs an envelope on one target node.
func (r *replicator) ship(id string, st *nodeState, env []byte) error {
	_, err := r.internalRoundTrip(st, http.MethodPost, "/v1/internal/snapshot", env)
	return err
}

// internalRoundTrip performs one authenticated internal-endpoint exchange
// and returns the response body; non-2xx statuses are errors.
func (r *replicator) internalRoundTrip(st *nodeState, method, path string, body []byte) ([]byte, error) {
	st.inflight.Add(1)
	defer st.inflight.Add(-1)
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, st.node.URL+path, rd)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Authorization", "Bearer "+r.g.token)
	if body != nil {
		req.Header.Set("Content-Type", "application/octet-stream")
	}
	resp, err := r.g.hc.Do(req)
	if err != nil {
		r.g.mem.markDown(st)
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		return nil, fmt.Errorf("%s %s on %s: %d: %s", method, path, st.node.ID, resp.StatusCode, truncateBody(data))
	}
	return data, nil
}

func truncateBody(b []byte) string {
	const max = 200
	if len(b) > max {
		b = b[:max]
	}
	return string(b)
}
