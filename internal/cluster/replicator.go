package cluster

import (
	"context"
	"encoding/json"
	"fmt"
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
	g       *Gateway
	every   time.Duration
	watches chan string
}

// watchPollInterval is the cadence for polling a just-created release
// toward its terminal state.
const watchPollInterval = 150 * time.Millisecond

// maxWatch bounds how long one create is watched; a build slower than
// this is picked up by the reconcile sweep instead.
const maxWatch = 15 * time.Minute

func newReplicator(g *Gateway, every time.Duration) *replicator {
	return &replicator{g: g, every: every, watches: make(chan string, 256)}
}

// watch enqueues a release for build-completion tracking. A full queue
// drops the watch — the reconcile sweep replicates it later.
func (r *replicator) watch(id string) {
	select {
	case r.watches <- id:
	default:
	}
}

// run multiplexes watches and sweeps on one goroutine until ctx ends:
// replication volume is bounded by build throughput, and a single writer
// keeps the fetch-once-ship-many path simple.
func (r *replicator) run(ctx context.Context) {
	if r.g.mem.token == "" {
		// No token, no internal endpoints: drain triggers so creates do
		// not block, but ship nothing.
		for {
			select {
			case <-ctx.Done():
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
		case <-ctx.Done():
			return
		case id := <-r.watches:
			pending[id] = time.Now().Add(maxWatch)
		case <-poll.C:
			for id, deadline := range pending {
				if done := r.checkWatched(ctx, id); done || time.Now().After(deadline) {
					delete(pending, id)
				}
			}
		case <-ticker.C:
			r.reconcile(ctx)
		}
	}
}

// checkWatched polls one watched release; when it turns ready it is
// replicated. Returns true when the watch is finished: terminal state,
// or the release vanished — every live node answered and none has it,
// which means its node died with it and the reconcile sweep owns it
// from there (continuing to poll would hammer the whole membership for
// the full watch deadline).
func (r *replicator) checkWatched(ctx context.Context, id string) bool {
	missed, unreachable := false, false
	for _, st := range r.g.mem.placement(id) {
		if !st.alive.Load() {
			unreachable = true
			continue
		}
		rel, found, err := r.getRelease(ctx, st, id)
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
			r.replicate(ctx, id, []*nodeState{st})
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
func (r *replicator) getRelease(ctx context.Context, st *nodeState, id string) (rel api.Release, found bool, err error) {
	nr, err := r.g.mem.call(ctx, st, http.MethodGet, "/v1/releases/"+id, nil)
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
func (r *replicator) reconcile(ctx context.Context) {
	defer r.g.replSweeps.Add(1)
	holders := make(map[string][]*nodeState)
	for i, cat := range r.g.mem.catalogs(ctx) {
		if cat == nil {
			continue
		}
		for _, rel := range cat.Releases {
			if rel.Status == api.StatusReady {
				holders[rel.ID] = append(holders[rel.ID], r.g.mem.nodes[i])
			}
		}
	}
	for id, hs := range holders {
		r.replicate(ctx, id, hs)
	}
}

// replicate brings one ready release up to its replica set: fetch the
// envelope once from a holder, ship it to every live target that lacks a
// copy. holders lists nodes known to serve the release ready.
func (r *replicator) replicate(ctx context.Context, id string, holders []*nodeState) {
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
			env, err = r.fetchEnvelope(ctx, id, holders)
			r.g.stages.Observe("gateway.replication_fetch", time.Since(fetchStart))
			if err != nil {
				r.g.countReplication(0, err)
				r.g.logger.Warn("fetching snapshot failed", "release_id", id, "err", err)
				return
			}
		}
		pushStart := time.Now()
		_, err := r.g.mem.callOK(ctx, st, http.MethodPost, "/v1/internal/snapshot", env)
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
func (r *replicator) fetchEnvelope(ctx context.Context, id string, holders []*nodeState) ([]byte, error) {
	var lastErr error
	for _, st := range holders {
		if !st.alive.Load() {
			continue
		}
		env, err := r.g.mem.callOK(ctx, st, http.MethodGet, "/v1/internal/snapshot/"+id, nil)
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
