package anon

import (
	"fmt"

	"repro/internal/anatomy"
	"repro/internal/perturb"
	"repro/internal/query"
)

// Release is the shared result of every Method: the published artifact
// plus whatever the matching estimator needs to answer COUNT(*) queries.
// Exactly one payload group is set, according to the method:
//
//   - generalization (BUREL): ECs (+ Partition, AIL)
//   - anatomy: Baseline or LDiverse
//   - perturbation: Perturbed + Scheme
//
// A Release is immutable after Anonymize returns; Estimate is safe for
// concurrent use.
type Release struct {
	// Method is the registry name of the producing method.
	Method string
	// Schema describes the (possibly projected) table the release was
	// built from.
	Schema *Schema
	// Rows is the input table size.
	Rows int

	// ECs is the generalized publication: one entry per equivalence
	// class, QI bounding box plus SA multiset.
	ECs []PublishedEC
	// Partition is the pre-publication partition behind ECs, retained so
	// evaluation tooling (information-loss and achieved-privacy metrics,
	// generalized-CSV output) can inspect the exact row groups.
	Partition *Partition
	// AIL is the average information loss of a generalized release
	// (Eq. 5); 0 for other methods.
	AIL float64

	// Baseline is the Anatomy baseline publication (ℓ = 0).
	Baseline *anatomy.Publication
	// LDiverse is the full ℓ-diverse Anatomy publication (ℓ ≥ 2).
	LDiverse *anatomy.LDiversePublication

	// Perturbed is the SA-randomized table of the perturbation method.
	Perturbed *Table
	// Scheme is the calibrated perturbation mechanism, needed to
	// reconstruct estimates from Perturbed.
	Scheme *perturb.Scheme
}

// NumECs returns the number of published groups, 0 for methods without
// them.
func (r *Release) NumECs() int {
	switch {
	case r.ECs != nil:
		return len(r.ECs)
	case r.LDiverse != nil:
		return len(r.LDiverse.Groups)
	}
	return 0
}

// Estimate answers one COUNT(*) query with the estimator matching the
// release's method: intersection over generalized ECs (§6.2), per-group
// intersection for ℓ-diverse Anatomy, distribution scaling for the
// Baseline, and PM⁻¹ reconstruction for perturbed releases (§5). The
// query is bounds-checked against the schema first, so malformed input
// errors instead of panicking. Estimates may be negative for perturbed
// releases; the reconstruction estimator is unbiased, not non-negative.
//
// This is the linear in-process path; the serving layer answers the same
// queries through a per-release index (internal/release).
func (r *Release) Estimate(q Query) (float64, error) {
	if err := query.Validate(r.Schema, q); err != nil {
		return 0, err
	}
	if len(q.GroupBy) != 0 {
		// A grouped query is a set of scalar queries, one per cell; the
		// batch engine expands and fans them out. A single-estimate API
		// has no place to put the per-cell results.
		return 0, fmt.Errorf("anon: grouped queries are executed by the batch engine, not Estimate")
	}
	// Every spelling of a query gives the same bits, as on the serving
	// layer's indexed path.
	q = query.Canonical(q)
	switch {
	case r.ECs != nil:
		return query.EstimateGeneralized(r.Schema, r.ECs, q), nil
	case r.LDiverse != nil:
		return query.EstimateLDiverse(r.LDiverse, q), nil
	case r.Baseline != nil:
		return query.EstimateBaseline(r.Baseline, q)
	case r.Perturbed != nil:
		return query.EstimatePerturbed(r.Perturbed, r.Scheme, q)
	}
	return 0, fmt.Errorf("anon: release of method %q has no queryable payload", r.Method)
}
