// Package eval is the privacy/utility evaluation subsystem: it measures
// what a published release is actually worth, by running the §7 attack
// suite (de Finetti, Naïve Bayes, corruption) and a seeded COUNT/SUM
// utility workload against a served snapshot, given the original
// microdata.
//
// The serving store deliberately never retains raw microdata — snapshots
// hold only the published artifact — so an evaluation job takes the
// original table re-uploaded by the caller. The job does not trust the
// upload: it re-runs the release's recorded spec over it (every
// registered method is seeded and deterministic) and verifies the rebuilt
// publication is identical to the served snapshot. That both
// authenticates the upload as the true original and recovers the
// row-to-group partition the attacks need, which snapshots do not
// persist.
//
// Evaluate is the synchronous core, shared by the async Service behind
// POST /v1/releases/{id}:evaluate and by cmd/evalgen's offline curve
// sweeps. Given identical release content and Params, it produces a
// byte-identical verdict: all randomness flows from Params.Seed, and the
// verdict carries no timestamps.
package eval

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"

	"repro/anon"
	"repro/internal/attack"
	"repro/internal/likeness"
	"repro/internal/metrics"
	"repro/internal/microdata"
	"repro/internal/query"
	"repro/internal/release"
	"repro/pkg/api"
)

// Verdict is the evaluation result, in its wire form: pkg/api owns the
// shape so the server, SDK, sidecar codec, and evalgen artifacts all
// agree byte-for-byte.
type Verdict = api.EvalVerdict

// Params tunes one evaluation job. The zero value selects defaults.
type Params struct {
	// Queries is the utility workload size per aggregate.
	Queries int `json:"queries,omitempty"`
	// Lambda is the predicate count per workload query (§6.2), clamped
	// to the schema's QI dimensionality.
	Lambda int `json:"lambda,omitempty"`
	// Theta is the expected workload selectivity.
	Theta float64 `json:"theta,omitempty"`
	// Seed drives every random choice of the job.
	Seed int64 `json:"seed,omitempty"`
	// CorruptionFraction is the corruption adversary's known share.
	CorruptionFraction float64 `json:"corruption_fraction,omitempty"`
	// DeFinettiIters is the de Finetti attack's iteration count.
	DeFinettiIters int `json:"definetti_iters,omitempty"`
}

// Defaults, applied by normalize.
const (
	DefaultQueries            = 200
	DefaultLambda             = 2
	DefaultTheta              = 0.1
	DefaultSeed               = 1
	DefaultCorruptionFraction = 0.1
	DefaultDeFinettiIters     = 3
)

// normalize fills zero fields with defaults and validates ranges. d is
// the schema's QI dimensionality, which caps Lambda.
func (p *Params) normalize(d int) error {
	if p.Queries == 0 {
		p.Queries = DefaultQueries
	}
	if p.Lambda == 0 {
		p.Lambda = DefaultLambda
	}
	if p.Theta == 0 {
		p.Theta = DefaultTheta
	}
	if p.Seed == 0 {
		p.Seed = DefaultSeed
	}
	if p.CorruptionFraction == 0 {
		p.CorruptionFraction = DefaultCorruptionFraction
	}
	if p.DeFinettiIters == 0 {
		p.DeFinettiIters = DefaultDeFinettiIters
	}
	if p.Queries < 0 || p.Queries > 100000 {
		return fmt.Errorf("eval: queries must be in [1,100000], got %d", p.Queries)
	}
	if p.Lambda < 0 {
		return fmt.Errorf("eval: lambda must be ≥ 0, got %d", p.Lambda)
	}
	if p.Lambda > d {
		p.Lambda = d
	}
	if p.Theta < 0 || p.Theta >= 1 {
		return fmt.Errorf("eval: theta must be in (0,1), got %v", p.Theta)
	}
	if p.CorruptionFraction < 0 || p.CorruptionFraction >= 1 {
		return fmt.Errorf("eval: corruption_fraction must be in [0,1), got %v", p.CorruptionFraction)
	}
	if p.DeFinettiIters < 0 || p.DeFinettiIters > 100 {
		return fmt.Errorf("eval: definetti_iters must be in [1,100], got %d", p.DeFinettiIters)
	}
	return nil
}

// Evaluate measures snap against the original microdata tab under the
// spec the release was built from. ctx cancels the job mid-attack. The
// spec's QI projection is applied to tab, matching the build path.
func Evaluate(ctx context.Context, tab *microdata.Table, snap *release.Snapshot, spec release.Spec, p Params) (*Verdict, error) {
	if tab == nil || snap == nil {
		return nil, fmt.Errorf("eval: nil table or snapshot")
	}
	if err := spec.Normalize(); err != nil {
		return nil, err
	}
	if spec.QI > 0 && spec.QI < len(tab.Schema.QI) {
		tab = tab.Project(spec.QI)
	}
	if err := p.normalize(len(tab.Schema.QI)); err != nil {
		return nil, err
	}
	if tab.Len() != snap.Rows {
		return nil, fmt.Errorf("eval: uploaded table has %d rows, release was built from %d", tab.Len(), snap.Rows)
	}

	// Re-run the recorded anonymization over the upload and insist the
	// result is the served publication. Every registered method is
	// seeded, so a genuine original reproduces the release exactly; a
	// tampered or unrelated table fails here instead of producing a
	// verdict about data the release was never built from.
	m, err := anon.Lookup(spec.Method)
	if err != nil {
		return nil, err
	}
	rebuilt, err := m.Anonymize(ctx, tab, spec.Params)
	if err != nil {
		return nil, fmt.Errorf("eval: re-anonymizing upload: %w", err)
	}
	if err := verifyRebuild(rebuilt, snap); err != nil {
		return nil, err
	}

	v := &Verdict{
		Method: snap.Method,
		Kind:   string(snap.Kind),
		Rows:   tab.Len(),
		Seed:   p.Seed,
	}

	// Recover the row-to-group structure the attacks and achieved-privacy
	// metrics need. Kinds without per-group SA information skip the
	// attack suite with a recorded reason.
	var part *microdata.Partition
	var grouped *attack.GroupedRelease
	switch {
	case rebuilt.Partition != nil:
		part = rebuilt.Partition
		grouped = attack.FromPartition(part)
	case rebuilt.LDiverse != nil:
		pub := rebuilt.LDiverse
		part = &microdata.Partition{Table: tab, ECs: pub.Groups}
		grouped = &attack.GroupedRelease{Table: tab, Groups: pub.Groups, SACounts: pub.SACounts}
	case rebuilt.Baseline != nil:
		v.AttacksSkipped = "baseline anatomy publishes only the table-wide SA distribution: group attacks reduce to the population prior"
	case rebuilt.Perturbed != nil:
		v.AttacksSkipped = "perturbation randomizes each tuple independently: corruption gains nothing (§7) and no groups exist to attack"
	default:
		return nil, fmt.Errorf("eval: release of method %q has no evaluable payload", rebuilt.Method)
	}

	if part != nil {
		ev := metrics.Evaluate(spec.Method, part, likeness.OrderedEMD, 0)
		v.Privacy = &api.EvalPrivacy{
			NumECs:       ev.NumECs,
			MinECSize:    ev.MinECSize,
			AIL:          ev.AIL,
			AchievedBeta: ev.AchievedBeta,
			MaxT:         ev.MaxT,
			AvgT:         ev.AvgT,
			MinL:         ev.MinL,
			AvgL:         ev.AvgL,
		}
		modal := 0.0
		for _, share := range tab.SADistribution() {
			modal = math.Max(modal, share)
		}
		df, err := attack.DeFinetti(ctx, grouped, p.DeFinettiIters)
		if err != nil {
			return nil, err
		}
		nb := attack.BuildNaiveBayes(part).Accuracy(tab)
		corrAvg, corrMax, err := attack.CorruptionPosterior(ctx, part, p.CorruptionFraction, rand.New(rand.NewSource(p.Seed)))
		if err != nil {
			return nil, err
		}
		v.Attacks = &api.EvalAttacks{
			Baseline:           modal,
			DeFinetti:          df,
			NaiveBayes:         nb,
			CorruptionFraction: p.CorruptionFraction,
			CorruptionAvg:      corrAvg,
			CorruptionMax:      corrMax,
		}
	}

	util, err := utility(ctx, tab, snap, p)
	if err != nil {
		return nil, err
	}
	v.Utility = *util
	return v, nil
}

// utility runs the seeded COUNT and SUM workloads: estimates served from
// the snapshot against exact answers on the original table. Each
// aggregate gets its own derived seed so adding one workload never
// perturbs the other's queries.
func utility(ctx context.Context, tab *microdata.Table, snap *release.Snapshot, p Params) (*api.EvalUtility, error) {
	out := &api.EvalUtility{Queries: p.Queries}

	countGen, err := query.NewGenerator(tab.Schema, p.Lambda, p.Theta, rand.New(rand.NewSource(p.Seed+1)))
	if err != nil {
		return nil, err
	}
	med, used, err := query.MedianRelativeError(tab, countGen, func(q query.Query) (float64, error) {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		return snap.Estimate(q)
	}, p.Queries)
	if err != nil {
		return nil, err
	}
	out.CountQueries, out.CountMedianRelErr = used, med

	sumGen, err := query.NewGenerator(tab.Schema, p.Lambda, p.Theta, rand.New(rand.NewSource(p.Seed+2)))
	if err != nil {
		return nil, err
	}
	errs := make([]float64, 0, p.Queries)
	for i := 0; i < p.Queries; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		q := sumGen.Next()
		q.Agg = query.AggSum
		exact := query.ExactAgg(tab, q)
		if exact == 0 {
			continue
		}
		est, err := snap.Estimate(q)
		if err != nil {
			return nil, err
		}
		errs = append(errs, math.Abs(est-exact)/math.Abs(exact))
	}
	out.SumQueries = len(errs)
	out.SumMedianRelErr = median(errs)
	return out, nil
}

// median of a slice; 0 when empty. Sorts in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	mid := len(xs) / 2
	if len(xs)%2 == 0 {
		return (xs[mid-1] + xs[mid]) / 2
	}
	return xs[mid]
}

// verifyRebuild checks that the publication rebuilt from the upload is
// exactly the one the snapshot serves. The comparison is kind-specific
// and strict: seeded methods are deterministic, so any divergence means
// the upload is not the microdata the release was built from (or the
// binary's method implementation changed — equally disqualifying for a
// verdict claiming to describe the served artifact).
func verifyRebuild(rebuilt *anon.Release, snap *release.Snapshot) error {
	mismatch := func(what string) error {
		return fmt.Errorf("eval: upload does not reproduce the release: %s differs (is this the original microdata?)", what)
	}
	switch snap.Kind {
	case release.KindGeneralized:
		if rebuilt.ECs == nil {
			return mismatch("publication kind")
		}
		// The served ECs sit in the order their snapshot was built in, the
		// canonical one; the anonymizer's raw output is in discovery order.
		// NewSnapshot puts the rebuilt side into the same order as it turns
		// the rows into columns, so the positional comparison tests
		// content, not bookkeeping.
		rs, err := release.NewSnapshot(rebuilt, 0)
		if err != nil {
			return err
		}
		a, b := rs.Index.Columns(), snap.Index.Columns()
		if a.N != b.N {
			return mismatch("equivalence-class count")
		}
		if !reflect.DeepEqual(a, b) {
			return mismatch("equivalence classes")
		}
	case release.KindAnatomy:
		switch {
		case snap.LDiverse != nil:
			if rebuilt.LDiverse == nil {
				return mismatch("publication kind")
			}
			a, b := rebuilt.LDiverse, snap.LDiverse
			if a.L != b.L || len(a.Groups) != len(b.Groups) || !reflect.DeepEqual(a.SACounts, b.SACounts) {
				return mismatch("group structure")
			}
			for i := range a.Groups {
				if !reflect.DeepEqual(a.Groups[i].Rows, b.Groups[i].Rows) {
					return mismatch(fmt.Sprintf("group %d membership", i))
				}
			}
			if !reflect.DeepEqual(a.Table.Tuples, b.Table.Tuples) {
				return mismatch("published tuples")
			}
		case snap.Baseline != nil:
			if rebuilt.Baseline == nil {
				return mismatch("publication kind")
			}
			if !reflect.DeepEqual([]float64(rebuilt.Baseline.P), []float64(snap.Baseline.P)) {
				return mismatch("published SA distribution")
			}
			if !reflect.DeepEqual(rebuilt.Baseline.Table.Tuples, snap.Baseline.Table.Tuples) {
				return mismatch("published tuples")
			}
		default:
			return fmt.Errorf("eval: anatomy snapshot without publication")
		}
	case release.KindPerturbed:
		if rebuilt.Perturbed == nil || rebuilt.Scheme == nil {
			return mismatch("publication kind")
		}
		if snap.Tuples == nil || snap.Scheme == nil || snap.Scheme.Model == nil || rebuilt.Scheme.Model == nil {
			return fmt.Errorf("eval: perturbed snapshot without tuples or scheme")
		}
		am, bm := rebuilt.Scheme.Model, snap.Scheme.Model
		if am.Beta != bm.Beta || !reflect.DeepEqual(am.P, bm.P) {
			return mismatch("perturbation model")
		}
		if rebuilt.Perturbed.Len() != snap.Tuples.Len() {
			return mismatch("perturbed table size")
		}
		// The rebuilt snapshot lays its tuples out in canonical order. The
		// served ones sit in that order too, unless their snapshot was
		// written before the order existed; a copy of them is put in it,
		// so the positional comparison tests content, not row order.
		rs, err := release.NewSnapshot(rebuilt, 0)
		if err != nil {
			return err
		}
		qi := make([][]float64, len(snap.Tuples.QI))
		for j := range qi {
			qi[j] = slices.Clone(snap.Tuples.QI[j])
		}
		sa := slices.Clone(snap.Tuples.SA)
		release.CanonicalizeTuples(snap.Schema, qi, sa)
		if !reflect.DeepEqual(rs.Tuples.QI, qi) || !reflect.DeepEqual(rs.Tuples.SA, sa) {
			return mismatch("perturbed tuples")
		}
	default:
		return fmt.Errorf("eval: unknown release kind %q", snap.Kind)
	}
	return nil
}
