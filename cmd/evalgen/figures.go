package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/anon"
	"repro/internal/dist"
	"repro/internal/likeness"
	"repro/internal/microdata"
	"repro/internal/mondrian"
	"repro/internal/query"
)

// Figure is one of the paper's evaluation figures as a curve: the x grid
// and, per scheme, one y value at each x.
type Figure struct {
	X      []float64            `json:"x"`
	Series map[string][]float64 `json:"series"`
}

// builder builds one scheme's release of t at a knob value: β, a
// closeness threshold t, or an AIL budget, as the figure's x axis says.
type builder func(t *microdata.Table, knob float64) (*anon.Release, error)

// scheme is one series of a figure.
type scheme struct {
	name  string
	build builder
}

// instance is one x value of a figure: the table and knob every scheme
// is built at and, for the error figures, the workload's λ and θ.
type instance struct {
	t      *microdata.Table
	knob   float64
	lambda int
	theta  float64
}

// measure reads one release's y value at x index i.
type measure func(in instance, i int, rel *anon.Release) (float64, error)

// figureRun holds what every figure shares, the figures measured so far,
// and the first error, after which nothing more is measured.
type figureRun struct {
	ctx      context.Context
	seed     int64
	evalSeed int64
	queries  int
	figs     map[string]Figure
	err      error
}

// §6's defaults: a sweep over one axis keeps the others here.
const (
	defaultQI     = 3
	defaultBeta   = 4
	defaultLambda = 3
	defaultTheta  = 0.1
)

// figures reproduces Figs. 4–9 of the paper's evaluation (§6). full is
// a CENSUS table with all five QI attributes: Figs. 4–7 keep the first
// three, and Figs. 8–9 use all five unless the QI count is their axis.
// Every release is built with seed; every query workload is drawn from
// evalSeed.
func figures(ctx context.Context, full *microdata.Table, seed, evalSeed int64, queries int) (map[string]Figure, error) {
	f := &figureRun{ctx: ctx, seed: seed, evalSeed: evalSeed, queries: queries, figs: map[string]Figure{}}
	t3 := full.Project(defaultQI)
	oneToFive := []float64{1, 2, 3, 4, 5}
	thetas := []float64{0.05, 0.1, 0.15, 0.2, 0.25}
	// Fig. 7's |DB| axis: samples of N/5 … N rows, as the paper samples
	// 100K … 500K of its 500K table.
	sizes := make([]float64, 5)
	samples := make([]*microdata.Table, 5)
	rng := rand.New(rand.NewSource(seed))
	for i := range samples {
		n := full.Len() * (i + 1) / 5
		sizes[i], samples[i] = float64(n), full.Sample(n, rng).Project(defaultQI)
	}
	at := func(t *microdata.Table, x []float64) func(int) instance {
		return func(i int) instance { return instance{t: t, knob: x[i]} }
	}
	qiAt := func(i int) instance { return instance{t: full.Project(i + 1), knob: defaultBeta} }

	// Fig. 4: the real β of BUREL and of the t-closeness schemes, matched
	// (a) at the closeness BUREL's release at β achieves, (b) at t, with
	// BUREL searched to the β as close, and (c) at an AIL budget, each
	// scheme searched to its most private release within it.
	fig4 := func(name string, x []float64, b, m, s builder) {
		f.sweep(name, x, []scheme{{"BUREL", b}, {"tMondrian", m}, {"SABRE", s}}, realBeta, at(t3, x))
	}
	releaseAIL := func(rel *anon.Release) float64 { return rel.AIL }
	sabreForT := search(f.sabre, maxEMD, true, 1e-4, 1, 16)
	fig4("fig4a", []float64{2, 3, 4, 5}, f.burel, f.atClosenessOfBUREL(tMondrian), f.atClosenessOfBUREL(sabreForT))
	fig4("fig4b", []float64{0.05, 0.1, 0.15, 0.2}, search(f.burel, maxEMD, true, 0.05, 32, 18), tMondrian, sabreForT)
	fig4("fig4c", []float64{0.30, 0.35, 0.40, 0.45}, search(f.burel, releaseAIL, false, 0.05, 32, 16),
		search(tMondrian, releaseAIL, false, 0.005, 1, 16), search(f.sabre, releaseAIL, false, 0.005, 1, 16))

	// Figs. 5–7: AIL over β, QI count and |DB|.
	generalization := []scheme{{"BUREL", f.burel}, {"LMondrian", lMondrian}, {"DMondrian", dMondrian}}
	f.sweep("fig5", oneToFive, generalization, ail, at(t3, oneToFive))
	f.sweep("fig6", oneToFive, generalization, ail, qiAt)
	f.sweep("fig7", sizes, generalization, ail, func(i int) instance { return instance{t: samples[i], knob: defaultBeta} })

	// Figs. 8–9: workload error over λ, β, QI count and θ, for the
	// generalization schemes and for perturbation against the Baseline.
	perturbation := []scheme{{"perturbation", f.perturb}, {"Baseline", f.baseline}}
	for _, ax := range []struct {
		name string
		x    []float64
		at   func(i int) instance
	}{
		{"a", oneToFive, func(i int) instance { return instance{full, defaultBeta, i + 1, defaultTheta} }},
		{"b", oneToFive, func(i int) instance { return instance{full, oneToFive[i], defaultLambda, defaultTheta} }},
		{"c", oneToFive, func(i int) instance {
			in := qiAt(i)
			in.lambda, in.theta = min(defaultLambda, i+1), defaultTheta
			return in
		}},
		{"d", thetas, func(i int) instance { return instance{full, defaultBeta, defaultLambda, thetas[i]} }},
	} {
		f.sweep("fig8"+ax.name, ax.x, generalization, f.workloadError, ax.at)
		f.sweep("fig9"+ax.name, ax.x, perturbation, f.workloadError, ax.at)
	}
	return f.figs, f.err
}

// sweep measures figure name: every scheme built at each x's instance,
// each release measured with y.
func (f *figureRun) sweep(name string, x []float64, schemes []scheme, y measure, at func(i int) instance) {
	if f.err != nil {
		return
	}
	fig := Figure{X: x, Series: make(map[string][]float64, len(schemes))}
	for i := range x {
		in := at(i)
		for _, s := range schemes {
			rel, err := s.build(in.t, in.knob)
			var v float64
			if err == nil {
				v, err = y(in, i, rel)
			}
			if err != nil {
				f.err = fmt.Errorf("%s: %s at x=%g: %w", name, s.name, x[i], err)
				return
			}
			fig.Series[s.name] = append(fig.Series[s.name], v)
		}
	}
	f.figs[name] = fig
}

// realBeta is Fig. 4's y: the β-likeness a release actually provides.
func realBeta(_ instance, _ int, rel *anon.Release) (float64, error) {
	return likeness.AchievedBeta(rel.Partition), nil
}

// ail is Figs. 5–7's y: the average information loss (Eq. 5).
func ail(_ instance, _ int, rel *anon.Release) (float64, error) { return rel.AIL, nil }

// workloadError is Figs. 8–9's y: the median relative error of rel's
// COUNT estimates. The workload is drawn from evalSeed and the x index,
// so every series at one x answers the same queries.
func (f *figureRun) workloadError(in instance, i int, rel *anon.Release) (float64, error) {
	gen, err := query.NewGenerator(in.t.Schema, in.lambda, in.theta, rand.New(rand.NewSource(f.evalSeed*7919+int64(i))))
	if err != nil {
		return 0, err
	}
	med, _, err := query.MedianRelativeError(in.t, gen, rel.Estimate, f.queries)
	return med, err
}

// maxEMD is a generalized release's closeness: the largest ordered EMD
// of an EC's SA distribution from the table's.
func maxEMD(rel *anon.Release) float64 {
	t, _ := likeness.AchievedT(rel.Partition, likeness.OrderedEMD)
	return t
}

func (f *figureRun) burel(t *microdata.Table, beta float64) (*anon.Release, error) {
	return anon.Anonymize(f.ctx, t, anon.NewBURELParams(anon.BURELBeta(beta), anon.BURELSeed(f.seed)))
}

// sabre's knob is its internal, equal-distance closeness budget.
func (f *figureRun) sabre(t *microdata.Table, tv float64) (*anon.Release, error) {
	return anon.Anonymize(f.ctx, t, anon.NewSABREParams(anon.SABRET(tv), anon.SABRESeed(f.seed)))
}

func (f *figureRun) perturb(t *microdata.Table, beta float64) (*anon.Release, error) {
	return anon.Anonymize(f.ctx, t, anon.NewPerturbParams(anon.PerturbBeta(beta), anon.PerturbSeed(f.seed)))
}

// baseline is the Anatomy Baseline, which has no knob: Fig. 9 plots it
// flat.
func (f *figureRun) baseline(t *microdata.Table, _ float64) (*anon.Release, error) {
	return anon.Anonymize(f.ctx, t, anon.NewAnatomyParams(anon.AnatomySeed(f.seed)))
}

// atClosenessOfBUREL builds with build at the closeness BUREL's release
// at β achieves.
func (f *figureRun) atClosenessOfBUREL(build builder) builder {
	return func(t *microdata.Table, beta float64) (*anon.Release, error) {
		b, err := f.burel(t, beta)
		if err != nil {
			return nil, err
		}
		return build(t, maxEMD(b))
	}
}

// lMondrian is Mondrian under β-likeness (§6.2).
func lMondrian(t *microdata.Table, beta float64) (*anon.Release, error) {
	model, err := likeness.NewModel(beta, t)
	if err != nil {
		return nil, err
	}
	return mondrianRelease(t, mondrian.BetaLikeness{Model: model}), nil
}

// dMondrian is Mondrian under δ-disclosure, δ calibrated from β (§6.2).
func dMondrian(t *microdata.Table, beta float64) (*anon.Release, error) {
	overall := dist.Distribution(t.SADistribution())
	dd := &likeness.DeltaDisclosure{Delta: likeness.DeltaForBeta(beta, overall), P: overall}
	return mondrianRelease(t, mondrian.DeltaDisclosure{Model: dd}), nil
}

// tMondrian is Mondrian under t-closeness with the ordered EMD: CENSUS's
// salary classes are ordinal (§6.1).
func tMondrian(t *microdata.Table, tv float64) (*anon.Release, error) {
	overall := dist.Distribution(t.SADistribution())
	return mondrianRelease(t, mondrian.TCloseness{T: tv, P: overall, Metric: likeness.OrderedEMD}), nil
}

// mondrianRelease wraps a Mondrian partition as a generalized release,
// so it is measured and queried as BUREL's is.
func mondrianRelease(t *microdata.Table, c mondrian.Constraint) *anon.Release {
	p := mondrian.Anonymize(t, c)
	return &anon.Release{Method: "mondrian", Schema: t.Schema, Rows: t.Len(), ECs: p.Publish(), Partition: p, AIL: p.AIL()}
}

// search returns a builder that searches build's knob over [lo, hi] for
// a release whose m is within the bound it is called with: the loosest
// such release when m grows with the knob, the most private one when it
// falls. Matched this way, SABRE meets an ordered-EMD threshold without
// enforcing it as its equal-distance budget, which is about m× stricter
// and would overdeliver privacy at ruinous information loss.
func search(build builder, m func(*anon.Release) float64, grows bool, lo, hi float64, iters int) builder {
	return func(t *microdata.Table, bound float64) (*anon.Release, error) {
		return bisect(lo, hi, iters, grows, func(knob float64) (*anon.Release, error) { return build(t, knob) },
			func(rel *anon.Release) bool { return m(rel) <= bound })
	}
}

// bisect searches knob values in [lo, hi] for the boundary of a monotone
// test, geometrically because the knobs span decades. With below, ok
// holds under the boundary and the release of the largest passing probe
// is returned; otherwise ok holds above it and the smallest passing
// probe's is. When no probe passes, it returns the release at the end of
// the range where ok should hold.
func bisect(lo, hi float64, iters int, below bool, probe func(knob float64) (*anon.Release, error), ok func(*anon.Release) bool) (*anon.Release, error) {
	var best *anon.Release
	for i := 0; i < iters; i++ {
		mid := math.Sqrt(lo * hi)
		rel, err := probe(mid)
		if err != nil {
			return nil, err
		}
		pass := ok(rel)
		if pass {
			best = rel
		}
		if pass == below {
			lo = mid
		} else {
			hi = mid
		}
	}
	switch {
	case best != nil:
		return best, nil
	case below:
		return probe(lo)
	default:
		return probe(hi)
	}
}

// assertFigure checks the trends the paper's figures show.
func assertFigure(name string, fig Figure) error {
	s, last := fig.Series, len(fig.X)-1
	for _, k := range sortedKeys(s) {
		if len(s[k]) != len(fig.X) {
			return fmt.Errorf("%s/%s: %d values for %d x values", name, k, len(s[k]), len(fig.X))
		}
		for i, y := range s[k] {
			if math.IsNaN(y) || math.IsInf(y, 0) || y < 0 {
				return fmt.Errorf("%s/%s at x=%g: %g is not a finite value ≥ 0", name, k, fig.X[i], y)
			}
		}
	}
	// ends compares a series' first and last values: rising or falling.
	ends := func(k string, rises bool) error {
		ys := s[k]
		if rises && ys[last] > ys[0] || !rises && ys[last] < ys[0] {
			return nil
		}
		return fmt.Errorf("%s: %s goes from %g at x=%g to %g at x=%g", name, k, ys[0], fig.X[0], ys[last], fig.X[last])
	}
	switch name {
	case "fig4a", "fig4b", "fig4c":
		// The t-closeness schemes leak more β than BUREL. Matched at
		// BUREL's own closeness, both leak more and one at least 3×,
		// while BUREL honors its budget.
		for i, x := range fig.X {
			b, tm, sa := s["BUREL"][i], s["tMondrian"][i], s["SABRE"][i]
			ok := b > 0 && max(tm, sa) >= b
			if name == "fig4a" {
				ok = ok && b <= x+1e-9 && min(tm, sa) >= b && max(tm, sa) >= 3*b
			}
			if !ok {
				return fmt.Errorf("%s x=%g: real β of BUREL %g, tMondrian %g, SABRE %g", name, x, b, tm, sa)
			}
		}
	case "fig5":
		b, lm, dm := s["BUREL"], s["LMondrian"], s["DMondrian"]
		var sb, sl float64
		for i, x := range fig.X {
			if lm[i] > dm[i]+1e-9 {
				return fmt.Errorf("fig5 β=%g: LMondrian's AIL %g is above DMondrian's %g", x, lm[i], dm[i])
			}
			sb, sl = sb+b[i], sl+lm[i]
		}
		if sb >= sl {
			return fmt.Errorf("fig5: BUREL's mean AIL %g is not below LMondrian's %g", sb/float64(len(b)), sl/float64(len(lm)))
		}
		return ends("BUREL", false)
	case "fig6":
		for i, y := range s["BUREL"] {
			if y > 1 {
				return fmt.Errorf("fig6 QI %g: BUREL's AIL %g is above 1", fig.X[i], y)
			}
		}
		return ends("BUREL", true)
	case "fig8b":
		return ends("BUREL", false)
	case "fig9b":
		// The Baseline has no β: its spread stays small beside its level.
		lo, hi := slices.Min(s["Baseline"]), slices.Max(s["Baseline"])
		if hi-lo > 0.5*hi {
			return fmt.Errorf("fig9b: the Baseline's error varies with β over [%g, %g]", lo, hi)
		}
		return ends("perturbation", false)
	}
	return nil
}
