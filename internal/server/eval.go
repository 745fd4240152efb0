package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"repro/internal/edge"
	"repro/internal/eval"
	"repro/internal/microdata"
	"repro/internal/obs"
	"repro/internal/release"
	"repro/pkg/api"
)

// evalToAPI converts an evaluation's service state to its wire form.
func evalToAPI(m eval.Meta) api.Evaluation {
	return api.Evaluation{
		ReleaseID:   m.ReleaseID,
		Status:      string(m.Status),
		Error:       m.Error,
		SubmittedAt: m.SubmittedAt,
		FinishedAt:  m.FinishedAt,
		EvalMillis:  m.EvalMillis,
		Persisted:   m.Persisted,
		Verdict:     m.Verdict,
	}
}

// handleEvaluate submits an asynchronous evaluation job on POST
// /v1/releases/{id}:evaluate: the body carries the release's original
// microdata (the store never retains it) plus workload knobs, and the 202
// response is the job's pending state. The client polls GET
// /v1/releases/{id}/evaluation to the terminal verdict.
func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	id, ok := edge.EvaluateTarget(w, r)
	if !ok {
		return
	}
	var req api.EvaluateRequest
	if !edge.DecodeJSON(w, r, s.maxBody, &req) {
		return
	}
	if strings.TrimSpace(req.CSV) == "" {
		edge.WriteErr(w, http.StatusBadRequest, api.CodeInvalidRequest,
			fmt.Errorf("csv field is empty: evaluation needs the release's original microdata re-uploaded"), nil)
		return
	}
	tr := obs.TraceFrom(r.Context())
	endResolve := tr.StartSpan("node.resolve")
	meta, ok := s.store.Get(id)
	endResolve()
	if !ok {
		edge.WriteErr(w, http.StatusNotFound, api.CodeNotFound, fmt.Errorf("%w: %q", release.ErrNotFound, id), nil)
		return
	}
	switch meta.Status {
	case release.StatusPending, release.StatusBuilding:
		w.Header().Set("Retry-After", "1")
		edge.WriteErr(w, http.StatusServiceUnavailable, api.CodeNotReady,
			fmt.Errorf("%w: release %s is %s", release.ErrNotReady, id, meta.Status),
			map[string]any{"status": string(meta.Status)})
		return
	case release.StatusFailed:
		edge.WriteErr(w, http.StatusConflict, api.CodeBuildFailed,
			fmt.Errorf("%w: release %s failed: %s", release.ErrNotReady, id, meta.Error), nil)
		return
	}
	// Parse the upload exactly as the create route parsed the original:
	// same schema projection, so a faithful re-upload reproduces the very
	// table the build consumed (the job verifies that before trusting it).
	schema := s.schema
	if meta.Spec.QI > 0 && meta.Spec.QI < len(schema.QI) {
		schema = schema.Project(meta.Spec.QI)
	}
	endParse := tr.StartSpan("node.parse_csv")
	tab, err := microdata.ReadCSV(strings.NewReader(req.CSV), schema)
	endParse()
	if err != nil {
		edge.WriteErr(w, http.StatusBadRequest, api.CodeInvalidRequest, err, nil)
		return
	}
	p := eval.Params{
		Queries:            req.Queries,
		Lambda:             req.Lambda,
		Theta:              req.Theta,
		Seed:               req.Seed,
		CorruptionFraction: req.CorruptionFraction,
		DeFinettiIters:     req.DeFinettiIters,
	}
	// Detached from the request context like release builds: the 202
	// contract means the client walks away while the job runs.
	em, err := s.eval.Submit(context.WithoutCancel(r.Context()), id, tab, p)
	if err != nil {
		switch {
		case errors.Is(err, eval.ErrRunning):
			edge.WriteErr(w, http.StatusConflict, api.CodeConflict, err, nil)
		case errors.Is(err, eval.ErrQueueFull), errors.Is(err, eval.ErrClosed):
			w.Header().Set("Retry-After", "1")
			edge.WriteErr(w, http.StatusServiceUnavailable, api.CodeUnavailable, err, nil)
		case errors.Is(err, release.ErrNotFound):
			edge.WriteErr(w, http.StatusNotFound, api.CodeNotFound, err, nil)
		case errors.Is(err, release.ErrNotReady):
			w.Header().Set("Retry-After", "1")
			edge.WriteErr(w, http.StatusServiceUnavailable, api.CodeNotReady, err, nil)
		default:
			edge.WriteErr(w, http.StatusBadRequest, api.CodeInvalidRequest, err, nil)
		}
		return
	}
	edge.WriteJSON(w, http.StatusAccepted, evalToAPI(em))
}

// handleGetEvaluation reports a release's evaluation state in any phase;
// clients poll it to done/failed. A recovered verdict is served from its
// persisted sidecar with zero re-evaluation.
func (s *Server) handleGetEvaluation(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	em, ok := s.eval.Get(id)
	if !ok {
		if _, exists := s.store.Get(id); !exists {
			edge.WriteErr(w, http.StatusNotFound, api.CodeNotFound, fmt.Errorf("%w: %q", release.ErrNotFound, id), nil)
			return
		}
		edge.WriteErr(w, http.StatusNotFound, api.CodeNotFound,
			fmt.Errorf("release %s has no evaluation; submit one with POST /v1/releases/%s:evaluate", id, id), nil)
		return
	}
	edge.WriteJSON(w, http.StatusOK, evalToAPI(em))
}
