// Package release is the serving layer of the repository: a versioned
// store of immutable published releases built asynchronously by a worker
// pool and addressable by ID, plus a query engine that answers COUNT(*)
// estimates against a release through a per-dimension grid index over EC
// bounding boxes instead of the linear EC scan of internal/query.
//
// The store is memory-only by default (NewStore); Open makes it durable
// over a data directory — ready releases persist as versioned,
// checksummed snapshot files (EncodeSnapshot/DecodeSnapshot) tracked by
// an append-only manifest, and reopening the directory recovers every
// release crash-safely with zero re-anonymization.
//
// Anonymization itself is dispatched through the public anon registry: a
// build names a method ("burel", "anatomy", "perturb", ...) plus its
// typed params, so a new publication scheme becomes a registry entry and
// the store serves it unchanged.
package release

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"time"

	"repro/anon"
	"repro/internal/anatomy"
	"repro/internal/microdata"
	"repro/internal/perturb"
	"repro/internal/query"
)

// Kind names the queryable shape of a release's payload, derived from the
// producing method's output.
type Kind string

const (
	// KindGeneralized is an EC-partition release (BUREL §4), served
	// through the grid index.
	KindGeneralized Kind = "generalized"
	// KindAnatomy is an Anatomy-style publication (§6.3): the Baseline
	// or the full ℓ-diverse two-table form.
	KindAnatomy Kind = "anatomy"
	// KindPerturbed is the (ρ1, ρ2)-privacy randomized response of §5.
	KindPerturbed Kind = "perturbed"
)

// Status is a release's lifecycle state.
type Status string

const (
	StatusPending  Status = "pending"
	StatusBuilding Status = "building"
	StatusReady    Status = "ready"
	StatusFailed   Status = "failed"
)

// Spec configures one anonymization job: the method name and typed params
// dispatched through the anon registry, plus the store-level knobs that
// are not the method's business — input projection and index resolution.
type Spec struct {
	// Method is the anon registry name of the scheme to run.
	Method string
	// Params configures the method; nil selects the method's defaults.
	Params anon.Params
	// QI projects the table to its first QI attributes before
	// anonymizing; 0 keeps all of them.
	QI int
	// GridCells overrides the per-dimension index resolution (0 = auto).
	GridCells int
}

// specJSON is the wire form of a Spec; Params stays raw until the method
// is known.
type specJSON struct {
	Method    string          `json:"method"`
	Params    json.RawMessage `json:"params,omitempty"`
	QI        int             `json:"qi,omitempty"`
	GridCells int             `json:"grid_cells,omitempty"`
}

// MarshalJSON implements json.Marshaler.
func (s Spec) MarshalJSON() ([]byte, error) {
	var raw json.RawMessage
	if s.Params != nil {
		data, err := json.Marshal(s.Params)
		if err != nil {
			return nil, err
		}
		raw = data
	}
	return json.Marshal(specJSON{Method: s.Method, Params: raw, QI: s.QI, GridCells: s.GridCells})
}

// UnmarshalJSON implements json.Unmarshaler, decoding params into the
// method's typed params value via the anon registry.
func (s *Spec) UnmarshalJSON(data []byte) error {
	var w specJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	// An empty method is a spec that was never filled in (snapshots planted
	// through Register carry one); keep it empty rather than failing the
	// registry lookup — Normalize still rejects it on any build path.
	if w.Method == "" && len(w.Params) == 0 {
		*s = Spec{QI: w.QI, GridCells: w.GridCells}
		return nil
	}
	p, err := anon.UnmarshalParams(w.Method, w.Params)
	if err != nil {
		return err
	}
	*s = Spec{Method: w.Method, Params: p, QI: w.QI, GridCells: w.GridCells}
	return nil
}

// Normalize fills nil Params with the method's defaults and validates the
// whole spec. It must pass before a build is accepted.
func (s *Spec) Normalize() error {
	if s.Params == nil {
		p, err := anon.NewParams(s.Method)
		if err != nil {
			return err
		}
		s.Params = p
	} else {
		if _, err := anon.Lookup(s.Method); err != nil {
			return err
		}
		if got := s.Params.Method(); got != s.Method {
			return fmt.Errorf("release: spec method %q carries params for %q", s.Method, got)
		}
		if err := s.Params.Validate(); err != nil {
			return fmt.Errorf("%w: %v", anon.ErrInvalidParams, err)
		}
	}
	if s.QI < 0 {
		return fmt.Errorf("release: qi must be ≥ 0, got %d", s.QI)
	}
	if s.GridCells < 0 || s.GridCells > MaxGridCells {
		return fmt.Errorf("release: grid_cells must be in [0,%d], got %d", MaxGridCells, s.GridCells)
	}
	return nil
}

// Meta is the externally visible state of a release: everything but the
// payload. Copies are safe to hand out; the store never mutates a Meta it
// has returned.
type Meta struct {
	ID      string `json:"id"`
	Version uint64 `json:"version"`
	Spec    Spec   `json:"spec"`
	Status  Status `json:"status"`
	// Error carries the build failure message when Status is failed.
	Error string `json:"error,omitempty"`
	// Rows is the input table size; NumECs the published group count
	// (generalized and ℓ-diverse anatomy kinds).
	Rows   int `json:"rows"`
	NumECs int `json:"num_ecs,omitempty"`
	// AIL is the average information loss of a generalized release.
	AIL       float64   `json:"ail,omitempty"`
	CreatedAt time.Time `json:"created_at"`
	ReadyAt   time.Time `json:"ready_at,omitzero"`
	// BuildMillis is the wall-clock build duration.
	BuildMillis int64 `json:"build_ms,omitempty"`
	// Persisted reports that the release's snapshot is durably on disk in
	// the store's data directory: it will survive a restart. Always false
	// on a memory-only store.
	Persisted bool `json:"persisted,omitempty"`
}

// Snapshot is the immutable queryable payload of a ready release: the
// release header plus the serving-side layout its kind's estimator reads
// — the grid index over the EC columns of a generalized release, the
// tuple blocks and calibrated scheme of a perturbed one, the publication
// of an Anatomy one. It holds no row form of a generalized release's ECs
// or of a perturbed release's tuples, and never the pre-publication
// partition.
// All fields are read-only after build; Estimate is safe for concurrent
// use.
type Snapshot struct {
	Kind   Kind
	Schema *microdata.Schema

	// Method is the anon registry name of the producing method, Rows the
	// input table size, and AIL the average information loss of a
	// generalized release (0 for other kinds).
	Method string
	Rows   int
	AIL    float64

	// Index is the serving-side grid index over a generalized release's
	// EC store (Index.Columns).
	Index *ECIndex

	// Tuples is the block layout of a perturbed release's tuples, and
	// Scheme the calibrated mechanism that reconstructs estimates from
	// them.
	Tuples *TupleBlocks
	Scheme *perturb.Scheme

	// Baseline or LDiverse is an Anatomy release's publication.
	Baseline *anatomy.Publication
	LDiverse *anatomy.LDiversePublication
}

// NewSnapshot wraps a method's release in its serving form, building the
// EC store and its grid index for generalized payloads and the canonical
// tuple blocks for perturbed ones. gridCells overrides the index's
// per-dimension resolution (0 = auto). The release is only read, except
// that a generalized release's ECs are put into canonical order in place.
func NewSnapshot(rel *anon.Release, gridCells int) (*Snapshot, error) {
	if rel == nil || rel.Schema == nil {
		return nil, fmt.Errorf("release: nil release")
	}
	s := &Snapshot{Schema: rel.Schema, Method: rel.Method, Rows: rel.Rows, AIL: rel.AIL}
	switch {
	case rel.ECs != nil:
		s.Kind = KindGeneralized
		cols, err := ecColumns(rel.Schema, rel.ECs)
		if err != nil {
			return nil, fmt.Errorf("release: %w", err)
		}
		s.Index = BuildIndex(rel.Schema, cols, gridCells)
	case rel.Baseline != nil || rel.LDiverse != nil:
		s.Kind = KindAnatomy
		s.Baseline, s.LDiverse = rel.Baseline, rel.LDiverse
	case rel.Perturbed != nil && rel.Scheme != nil:
		s.Kind = KindPerturbed
		tb, err := tableBlocks(rel.Perturbed)
		if err != nil {
			return nil, err
		}
		s.Tuples, s.Scheme = tb, rel.Scheme
	default:
		return nil, fmt.Errorf("release: method %q produced no queryable payload", rel.Method)
	}
	return s, nil
}

// Build runs the anonymization selected by spec over t, projected to
// spec.QI first, and returns the method's release with its queryable
// snapshot. The store's build workers serve the snapshot and drop the
// release; the evaluation service rebuilds a release through it to check
// an upload and attacks the release's groups. ctx aborts the run.
func Build(ctx context.Context, t *microdata.Table, spec Spec) (*anon.Release, *Snapshot, error) {
	if spec.QI > 0 && spec.QI < len(t.Schema.QI) {
		t = t.Project(spec.QI)
	}
	m, err := anon.Lookup(spec.Method)
	if err != nil {
		return nil, nil, err
	}
	rel, err := m.Anonymize(ctx, t, spec.Params)
	if err != nil {
		return nil, nil, err
	}
	snap, err := NewSnapshot(rel, spec.GridCells)
	if err != nil {
		return nil, nil, err
	}
	return rel, snap, nil
}

// SamePublication reports whether a and b publish the same release: they
// encode to the same bytes under EncodeSnapshot, the spec aside. A
// perturbed release's tuples are compared in canonical order, on a copy,
// so a snapshot written in anonymizer order before that order existed
// still matches its rebuild.
func SamePublication(a, b *Snapshot) (bool, error) {
	ea, err := publicationBytes(a)
	if err != nil {
		return false, err
	}
	eb, err := publicationBytes(b)
	if err != nil {
		return false, err
	}
	return bytes.Equal(ea, eb), nil
}

// publicationBytes encodes s under an empty spec, a perturbed release's
// tuples put into canonical order on a copy first.
func publicationBytes(s *Snapshot) ([]byte, error) {
	if err := checkRegistrable(s); err != nil {
		return nil, err
	}
	if s.Kind == KindPerturbed {
		qi := make([][]float64, len(s.Tuples.QI))
		for j, col := range s.Tuples.QI {
			qi[j] = slices.Clone(col)
		}
		sa := slices.Clone(s.Tuples.SA)
		canonicalizeTuples(s.Schema, qi, sa)
		c := *s
		c.Tuples = &TupleBlocks{QI: qi, SA: sa}
		s = &c
	}
	return EncodeSnapshot(s, Spec{})
}

// NumECs returns the number of published groups, 0 for kinds without them.
func (s *Snapshot) NumECs() int {
	switch {
	case s.Index != nil:
		return s.Index.NumECs()
	case s.LDiverse != nil:
		return len(s.LDiverse.Groups)
	}
	return 0
}

// Estimate answers one aggregate query against the release using the
// estimator matching its kind: the indexed intersection estimator for
// generalized releases, per-group intersection for ℓ-diverse Anatomy,
// distribution scaling for the Baseline, and PM⁻¹ reconstruction over
// the tuple blocks for perturbed releases.
func (s *Snapshot) Estimate(q query.Query) (float64, error) {
	if err := s.ValidateQuery(q); err != nil {
		return 0, err
	}
	return s.EstimateUnchecked(q, nil)
}

// EstimateUnchecked answers without re-running ValidateQuery: the entry
// point for batch executors that validate a whole batch up front. The
// caller must have validated q against this snapshot — a malformed query
// may panic an estimator. sc is reusable scratch state for the indexed
// estimator; nil falls back to the index's internal pool, and kinds other
// than generalized ignore it. The query is estimated in its canonical
// predicate order (query.Canonical), so every spelling of it gives the
// same bits.
func (s *Snapshot) EstimateUnchecked(q query.Query, sc *Scratch) (float64, error) {
	if len(q.GroupBy) != 0 {
		// Grouped queries are expanded into per-cell scalar queries by the
		// batch engine; a single scalar return cannot carry their results.
		return 0, fmt.Errorf("release: grouped queries are executed by the batch engine")
	}
	q = query.Canonical(q)
	switch s.Kind {
	case KindGeneralized:
		if sc != nil {
			return s.Index.EstimateScratch(q, sc), nil
		}
		return s.Index.Estimate(q), nil
	case KindAnatomy:
		if s.LDiverse != nil {
			return query.EstimateLDiverse(s.LDiverse, q), nil
		}
		return query.EstimateBaseline(s.Baseline, q)
	case KindPerturbed:
		return s.Tuples.Estimate(s.Scheme, q)
	}
	return 0, fmt.Errorf("release: kind %q is not queryable", s.Kind)
}

// ValidateQuery bounds-checks predicate dimensions and the SA range so a
// malformed network query cannot panic an estimator. Estimate runs it on
// every call; batch executors may run it separately to reject a bad
// query before any fan-out.
func (s *Snapshot) ValidateQuery(q query.Query) error {
	return query.Validate(s.Schema, q)
}
