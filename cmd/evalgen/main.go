// Command evalgen generates privacy/utility trade-off curves over the
// benchmark corpus (internal/corpus): for every registered anonymization
// method it sweeps the method's privacy knob, runs the full evaluation
// job of internal/eval on each point — the same attack suite and utility
// workload the serving :evaluate endpoint runs — and emits the curves as
// machine-readable JSON.
//
// The output is deterministic byte for byte for fixed flags: datasets
// are pure functions of (name, n, seed), evaluations derive every random
// choice from -eval-seed, and no timestamps are recorded. CI exploits
// that as a semantic regression gate: a checked-in reference file plus
// -check fails the build when any curve drifts beyond -tol.
//
// Usage:
//
//	evalgen [-n 2000] [-seed 1] [-eval-seed 1] [-queries 100]
//	        [-datasets census,healthcare,salary] [-o curves.json]
//	        [-check reference.json] [-tol 0.25]
//
// Structural guarantees are asserted on every run, independent of
// -check: BUREL's achieved β must stay within the target β, ℓ-diverse
// anatomy must deliver min ℓ ≥ ℓ, and each method's information-loss
// curve must fall (with slack) as its privacy knob loosens. A violated
// guarantee is a failed run — these are the monotone trade-off shapes
// the paper reports, and losing one is a correctness bug, not noise.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"

	"repro/anon"
	"repro/internal/corpus"
	"repro/internal/eval"
	"repro/internal/microdata"
	"repro/internal/release"
	"repro/pkg/api"
)

// Point is one sweep sample: a knob value and its evaluation verdict, or
// the error that made the point infeasible (e.g. an ℓ beyond the
// dataset's eligibility bound — recorded, never silently dropped).
type Point struct {
	Param   string           `json:"param"`
	Value   float64          `json:"value"`
	Error   string           `json:"error,omitempty"`
	Verdict *api.EvalVerdict `json:"verdict,omitempty"`
}

// Curves is the output document: per dataset, per method, the sweep.
type Curves struct {
	N        int                           `json:"n"`
	Seed     int64                         `json:"seed"`
	EvalSeed int64                         `json:"eval_seed"`
	Queries  int                           `json:"queries"`
	Datasets map[string]map[string][]Point `json:"datasets"`
}

// sweep is one method's knob schedule.
type sweep struct {
	method string
	param  string
	values []float64
	params func(v float64) anon.Params
}

// sweeps returns the per-method schedules, privacy loosening (or, for
// anatomy, tightening) left to right.
func sweeps(seed int64) []sweep {
	return []sweep{
		{anon.MethodBUREL, "beta", []float64{1, 2, 4, 8}, func(v float64) anon.Params {
			return anon.NewBURELParams(anon.BURELBeta(v), anon.BURELSeed(seed))
		}},
		// SABRE's bucket count is a rounding function of t, so some t
		// values degenerate to a single EC; this schedule avoids them
		// while still spanning tight to loose closeness.
		{anon.MethodSABRE, "t", []float64{0.1, 0.2, 0.4, 0.6}, func(v float64) anon.Params {
			return anon.NewSABREParams(anon.SABRET(v), anon.SABRESeed(seed))
		}},
		{anon.MethodAnatomy, "l", []float64{2, 3}, func(v float64) anon.Params {
			return anon.NewAnatomyParams(anon.AnatomyL(int(v)), anon.AnatomySeed(seed))
		}},
		{anon.MethodPerturb, "beta", []float64{1, 2, 4, 8}, func(v float64) anon.Params {
			return anon.NewPerturbParams(anon.PerturbBeta(v), anon.PerturbSeed(seed))
		}},
	}
}

func main() {
	n := flag.Int("n", 2000, "rows per corpus table")
	seed := flag.Int64("seed", 1, "corpus generation and anonymization seed")
	evalSeed := flag.Int64("eval-seed", 1, "evaluation workload seed")
	queries := flag.Int("queries", 100, "utility workload size per aggregate")
	datasets := flag.String("datasets", strings.Join(corpus.Datasets(), ","), "comma-separated corpus datasets")
	out := flag.String("o", "", "write curves JSON here (default stdout)")
	check := flag.String("check", "", "compare against this reference curves file")
	tol := flag.Float64("tol", 0.25, "relative tolerance for -check")
	flag.Parse()

	curves := Curves{N: *n, Seed: *seed, EvalSeed: *evalSeed, Queries: *queries, Datasets: map[string]map[string][]Point{}}
	ctx := context.Background()
	failed := false
	for _, ds := range strings.Split(*datasets, ",") {
		ds = strings.TrimSpace(ds)
		if ds == "" {
			continue
		}
		tab, err := corpus.Generate(ds, *n, *seed)
		if err != nil {
			fatal(err)
		}
		curves.Datasets[ds] = map[string][]Point{}
		for _, sw := range sweeps(*seed) {
			points := make([]Point, 0, len(sw.values))
			for _, v := range sw.values {
				pt := Point{Param: sw.param, Value: v}
				verdict, err := evaluatePoint(ctx, tab, sw, v, eval.Params{Queries: *queries, Seed: *evalSeed})
				if err != nil {
					pt.Error = err.Error()
					fmt.Fprintf(os.Stderr, "evalgen: %s/%s %s=%g: dropped: %v\n", ds, sw.method, sw.param, v, err)
				} else {
					pt.Verdict = verdict
				}
				points = append(points, pt)
			}
			curves.Datasets[ds][sw.method] = points
			if err := assertCurveShape(ds, sw, points); err != nil {
				fmt.Fprintf(os.Stderr, "evalgen: GUARANTEE VIOLATED: %v\n", err)
				failed = true
			}
		}
	}

	data, err := json.MarshalIndent(curves, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
	} else if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatal(err)
	}

	if *check != "" {
		refData, err := os.ReadFile(*check)
		if err != nil {
			fatal(err)
		}
		var ref Curves
		if err := json.Unmarshal(refData, &ref); err != nil {
			fatal(fmt.Errorf("parsing %s: %w", *check, err))
		}
		diffs := compare(curves, ref, *tol)
		for _, d := range diffs {
			fmt.Fprintf(os.Stderr, "evalgen: CURVE DRIFT: %s\n", d)
		}
		if len(diffs) > 0 {
			failed = true
		} else {
			fmt.Fprintf(os.Stderr, "evalgen: curves match %s within tol %g\n", *check, *tol)
		}
	}
	if failed {
		os.Exit(1)
	}
}

// evaluatePoint runs one sweep sample through the exact pipeline the
// serving evaluation uses: build the release as the store does
// (release.Build), and hand the original table plus the recorded spec to
// eval.Evaluate — which re-runs and verifies the build before attacking.
func evaluatePoint(ctx context.Context, tab *microdata.Table, sw sweep, v float64, p eval.Params) (*api.EvalVerdict, error) {
	spec := release.Spec{Method: sw.method, Params: sw.params(v)}
	if err := spec.Normalize(); err != nil {
		return nil, err
	}
	_, snap, err := release.Build(ctx, tab, spec)
	if err != nil {
		return nil, err
	}
	return eval.Evaluate(ctx, tab, snap, spec, p)
}

// assertCurveShape checks the structural guarantees a correct sweep
// cannot violate. Infeasible points (recorded errors) are skipped.
func assertCurveShape(ds string, sw sweep, points []Point) error {
	ok := points[:0:0]
	for _, pt := range points {
		if pt.Verdict != nil {
			ok = append(ok, pt)
		}
	}
	if len(ok) == 0 {
		return fmt.Errorf("%s/%s: every sweep point failed", ds, sw.method)
	}
	const slack = 1.10 // falling curves may wobble 10% per step, not rise
	switch sw.method {
	case anon.MethodBUREL:
		for _, pt := range ok {
			if pt.Verdict.Privacy == nil {
				return fmt.Errorf("%s/burel beta=%g: no privacy block", ds, pt.Value)
			}
			if pt.Verdict.Privacy.AchievedBeta > pt.Value+1e-9 {
				return fmt.Errorf("%s/burel beta=%g: achieved β %g exceeds the target", ds, pt.Value, pt.Verdict.Privacy.AchievedBeta)
			}
		}
		return assertFalling(ds, sw, ok, slack, func(v *api.EvalVerdict) float64 { return v.Privacy.AIL })
	case anon.MethodSABRE:
		for _, pt := range ok {
			if pt.Verdict.Privacy == nil {
				return fmt.Errorf("%s/sabre t=%g: no privacy block", ds, pt.Value)
			}
			if pt.Verdict.Privacy.MaxT > pt.Value+1e-9 {
				return fmt.Errorf("%s/sabre t=%g: max EMD %g exceeds the closeness threshold", ds, pt.Value, pt.Verdict.Privacy.MaxT)
			}
		}
		return assertFalling(ds, sw, ok, slack, func(v *api.EvalVerdict) float64 { return v.Privacy.AIL })
	case anon.MethodAnatomy:
		for _, pt := range ok {
			if pt.Verdict.Privacy == nil || pt.Verdict.Privacy.MinL < int(pt.Value) {
				return fmt.Errorf("%s/anatomy l=%g: release is not %g-diverse (%+v)", ds, pt.Value, pt.Value, pt.Verdict.Privacy)
			}
		}
		return nil
	case anon.MethodPerturb:
		// Perturbation's workload error is sampling-noisy at small
		// magnitudes, so only the endpoint trend is asserted: the loosest
		// β must not be worse for utility than the tightest.
		first, last := ok[0], ok[len(ok)-1]
		if last.Verdict.Utility.CountMedianRelErr > first.Verdict.Utility.CountMedianRelErr*slack+1e-9 {
			return fmt.Errorf("%s/perturb: COUNT error rises across the sweep: beta=%g gives %g, beta=%g gives %g",
				ds, first.Value, first.Verdict.Utility.CountMedianRelErr, last.Value, last.Verdict.Utility.CountMedianRelErr)
		}
		return nil
	}
	return nil
}

// assertFalling requires the measured curve to fall (within slack) as
// the knob loosens left to right — the monotone trade-off the paper
// reports.
func assertFalling(ds string, sw sweep, points []Point, slack float64, y func(*api.EvalVerdict) float64) error {
	for i := 1; i < len(points); i++ {
		prev, cur := y(points[i-1].Verdict), y(points[i].Verdict)
		if cur > prev*slack+1e-9 {
			return fmt.Errorf("%s/%s: curve rises at %s=%g: %g -> %g", ds, sw.method, sw.param, points[i].Value, prev, cur)
		}
	}
	return nil
}

// compare diffs two curve documents: identical shape, and every measured
// value within max(0.02, tol·|ref|). The shape fields compared are the
// ones the paper's figures plot.
func compare(got, ref Curves, tol float64) []string {
	var diffs []string
	if got.N != ref.N || got.Seed != ref.Seed || got.EvalSeed != ref.EvalSeed || got.Queries != ref.Queries {
		diffs = append(diffs, fmt.Sprintf("run config (n=%d seed=%d eval_seed=%d queries=%d) differs from reference (n=%d seed=%d eval_seed=%d queries=%d); regenerate the reference with matching flags",
			got.N, got.Seed, got.EvalSeed, got.Queries, ref.N, ref.Seed, ref.EvalSeed, ref.Queries))
		return diffs
	}
	names := make([]string, 0, len(ref.Datasets))
	for ds := range ref.Datasets {
		names = append(names, ds)
	}
	sort.Strings(names)
	for _, ds := range names {
		gotDS, ok := got.Datasets[ds]
		if !ok {
			diffs = append(diffs, fmt.Sprintf("dataset %s missing from this run", ds))
			continue
		}
		methods := make([]string, 0, len(ref.Datasets[ds]))
		for m := range ref.Datasets[ds] {
			methods = append(methods, m)
		}
		sort.Strings(methods)
		for _, m := range methods {
			refPts, gotPts := ref.Datasets[ds][m], gotDS[m]
			if len(refPts) != len(gotPts) {
				diffs = append(diffs, fmt.Sprintf("%s/%s: %d points vs %d in reference", ds, m, len(gotPts), len(refPts)))
				continue
			}
			for i, rp := range refPts {
				gp := gotPts[i]
				at := fmt.Sprintf("%s/%s %s=%g", ds, m, rp.Param, rp.Value)
				if gp.Value != rp.Value || gp.Param != rp.Param {
					diffs = append(diffs, at+": sweep schedule changed")
					continue
				}
				if (rp.Verdict == nil) != (gp.Verdict == nil) {
					diffs = append(diffs, fmt.Sprintf("%s: feasibility changed (error %q vs %q)", at, gp.Error, rp.Error))
					continue
				}
				if rp.Verdict == nil {
					continue
				}
				for _, f := range verdictFields(rp.Verdict, gp.Verdict) {
					if !within(f.got, f.ref, tol) {
						diffs = append(diffs, fmt.Sprintf("%s: %s = %g, reference %g (tol %g)", at, f.name, f.got, f.ref, tol))
					}
				}
			}
		}
	}
	return diffs
}

type fieldDiff struct {
	name     string
	ref, got float64
}

// verdictFields pairs the compared measurements of two verdicts.
func verdictFields(ref, got *api.EvalVerdict) []fieldDiff {
	out := []fieldDiff{
		{"utility.count_median_rel_err", ref.Utility.CountMedianRelErr, got.Utility.CountMedianRelErr},
		{"utility.sum_median_rel_err", ref.Utility.SumMedianRelErr, got.Utility.SumMedianRelErr},
	}
	if ref.Privacy != nil && got.Privacy != nil {
		out = append(out,
			fieldDiff{"privacy.ail", ref.Privacy.AIL, got.Privacy.AIL},
			fieldDiff{"privacy.achieved_beta", ref.Privacy.AchievedBeta, got.Privacy.AchievedBeta},
			fieldDiff{"privacy.max_t", ref.Privacy.MaxT, got.Privacy.MaxT},
		)
	}
	if ref.Attacks != nil && got.Attacks != nil {
		out = append(out,
			fieldDiff{"attacks.definetti", ref.Attacks.DeFinetti, got.Attacks.DeFinetti},
			fieldDiff{"attacks.naive_bayes", ref.Attacks.NaiveBayes, got.Attacks.NaiveBayes},
			fieldDiff{"attacks.corruption_avg", ref.Attacks.CorruptionAvg, got.Attacks.CorruptionAvg},
		)
	}
	return out
}

// within: coarse tolerance — absolute floor 0.02, else relative.
func within(got, ref, tol float64) bool {
	return math.Abs(got-ref) <= math.Max(0.02, tol*math.Abs(ref))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "evalgen: %v\n", err)
	os.Exit(1)
}
