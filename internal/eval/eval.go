// Package eval is the privacy/utility evaluation subsystem: it measures
// what a published release is actually worth, by running the §7 attack
// suite (de Finetti, Naïve Bayes, corruption) and a seeded COUNT/SUM
// utility workload against a served snapshot, given the original
// microdata.
//
// The serving store deliberately never retains raw microdata — snapshots
// hold only the published artifact — so an evaluation job takes the
// original table re-uploaded by the caller. The job does not trust the
// upload: it re-runs the release's recorded spec over it with the store's
// own build, release.Build (every registered method is seeded and
// deterministic), and requires the rebuilt snapshot to encode to the
// served one's bytes (release.SamePublication). That both
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

	// Re-run the recorded build over the upload and insist the result is
	// the served publication. Every registered method is seeded, so a
	// genuine original reproduces the release exactly; a tampered or
	// unrelated table fails here instead of producing a verdict about data
	// the release was never built from, and so does a method whose output
	// changed since the release was built.
	rebuilt, rs, err := release.Build(ctx, tab, spec)
	if err != nil {
		return nil, fmt.Errorf("eval: re-anonymizing upload: %w", err)
	}
	same, err := release.SamePublication(rs, snap)
	if err != nil {
		return nil, err
	}
	if !same {
		return nil, fmt.Errorf("eval: upload does not reproduce the release (is this the original microdata?)")
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
	workload := func(agg query.Aggregate, seed int64) (float64, int, error) {
		gen, err := query.NewGenerator(tab.Schema, p.Lambda, p.Theta, rand.New(rand.NewSource(seed)))
		if err != nil {
			return 0, 0, err
		}
		gen.Agg = agg
		return query.MedianRelativeError(tab, gen, func(q query.Query) (float64, error) {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
			return snap.Estimate(q)
		}, p.Queries)
	}
	out := &api.EvalUtility{Queries: p.Queries}
	var err error
	if out.CountMedianRelErr, out.CountQueries, err = workload(query.AggCount, p.Seed+1); err != nil {
		return nil, err
	}
	if out.SumMedianRelErr, out.SumQueries, err = workload(query.AggSum, p.Seed+2); err != nil {
		return nil, err
	}
	return out, nil
}
