// Cluster-internal endpoints: the snapshot replication surface a
// gateway (internal/cluster) uses to copy ready releases between nodes.
//
//	GET  /v1/internal/snapshot/{id}  a ready release's snapshot, framed
//	                                 in the replication envelope
//	POST /v1/internal/snapshot       install an envelope (idempotent;
//	                                 lands in Store.RegisterAs)
//
// Both require Options.ClusterToken as a Bearer token; with no token
// configured they answer 403, so a node not meant to join a cluster
// exposes nothing. The envelope travels verbatim between nodes — the
// bytes a replica installs are the bytes the owner encoded, so replicas
// answer queries bit-identically.
package server

import (
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/cluster"
	"repro/internal/edge"
	"repro/internal/obs"
	"repro/internal/release"
	"repro/pkg/api"
)

// requireCluster gates a handler behind the cluster token.
func (s *Server) requireCluster(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.clusterToken == "" {
			edge.WriteErr(w, http.StatusForbidden, api.CodeForbidden,
				fmt.Errorf("cluster endpoints are disabled: the server runs without a cluster token"), nil)
			return
		}
		if !obs.HasBearer(r, s.clusterToken) {
			edge.WriteErr(w, http.StatusForbidden, api.CodeForbidden,
				fmt.Errorf("missing or wrong cluster token"), nil)
			return
		}
		h(w, r)
	}
}

// handleSnapshotGet serves a ready release's replication envelope. The
// snapshot is re-encoded from the in-memory form (byte-deterministic, so
// it matches what a durable store persisted) rather than read from disk,
// which keeps memory-only nodes replicable too.
func (s *Server) handleSnapshotGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	meta, ok := s.store.Get(id)
	if !ok {
		edge.WriteErr(w, http.StatusNotFound, api.CodeNotFound, fmt.Errorf("%w: %q", release.ErrNotFound, id), nil)
		return
	}
	snap, ok := s.resolveSnapshot(w, id)
	if !ok {
		return
	}
	tr := obs.TraceFrom(r.Context())
	endEncode := tr.StartSpan("store.snapshot_encode")
	encodeStart := time.Now()
	data, err := release.EncodeSnapshot(snap, meta.Spec)
	s.store.Stages().Observe("store.snapshot_encode", time.Since(encodeStart))
	endEncode()
	if err != nil {
		edge.WriteErr(w, http.StatusInternalServerError, api.CodeInternal, err, nil)
		return
	}
	env, err := cluster.EncodeEnvelope(id, s.store.Node(), data)
	if err != nil {
		edge.WriteErr(w, http.StatusInternalServerError, api.CodeInternal, err, nil)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(env)
}

// handleSnapshotPut installs a replication envelope: decode, validate the
// snapshot (the full RPROSNAP checksum-and-consistency gauntlet), and
// register it under the owner's ID. Replays of an already-installed
// release are 200s, first installs 201s — both terminal successes for
// the shipping gateway.
func (s *Server) handleSnapshotPut(w http.ResponseWriter, r *http.Request) {
	body, err := edge.ReadBody(http.MaxBytesReader(w, r.Body, s.maxBody), r.ContentLength)
	if err != nil {
		edge.WriteBodyErr(w, fmt.Errorf("reading envelope: %w", err))
		return
	}
	id, _, snapBytes, err := cluster.DecodeEnvelope(body)
	if err != nil {
		edge.WriteErr(w, http.StatusBadRequest, api.CodeInvalidRequest, err, nil)
		return
	}
	tr := obs.TraceFrom(r.Context())
	endDecode := tr.StartSpan("store.snapshot_decode")
	decodeStart := time.Now()
	snap, spec, err := release.DecodeSnapshot(snapBytes)
	s.store.Stages().Observe("store.snapshot_decode", time.Since(decodeStart))
	endDecode()
	if err != nil {
		edge.WriteErr(w, http.StatusBadRequest, api.CodeInvalidRequest,
			fmt.Errorf("envelope for %s: %w", id, err), map[string]any{"release_id": id})
		return
	}
	meta, created, err := s.store.RegisterAs(id, snap, spec)
	if err != nil {
		// Closed store and mid-install collisions are both retriable: the
		// shipping gateway tries again on its next reconcile sweep.
		if errors.Is(err, release.ErrClosed) || errors.Is(err, release.ErrNotReady) {
			w.Header().Set("Retry-After", "1")
			edge.WriteErr(w, http.StatusServiceUnavailable, api.CodeUnavailable, err, nil)
			return
		}
		edge.WriteErr(w, http.StatusBadRequest, api.CodeInvalidRequest, err, nil)
		return
	}
	code := http.StatusOK
	if created {
		code = http.StatusCreated
	}
	edge.WriteJSON(w, code, metaToAPI(meta))
}
