package experiments

import (
	"math"
	"testing"

	"repro/internal/metrics"
)

// tiny returns a config small enough for unit testing; trends are asserted
// loosely.
func tiny() Config {
	c := Quick()
	c.N = 20000
	c.Queries = 200
	return c
}

func TestFig4a(t *testing.T) {
	fig, err := Fig4a(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.X) != 4 {
		t.Fatalf("x points = %d", len(fig.X))
	}
	for i := range fig.X {
		b, tm, sa := fig.Series[0].Y[i], fig.Series[1].Y[i], fig.Series[2].Y[i]
		// BUREL must honor its budget.
		if b > fig.X[i]+1e-9 {
			t.Errorf("β=%v: BUREL real β %v over budget", fig.X[i], b)
		}
		// The t-closeness schemes must leak far more in β terms —
		// the paper's headline (log-scale gap).
		if tm < b || sa < b {
			t.Errorf("β=%v: t-closeness schemes (%v, %v) not above BUREL (%v)", fig.X[i], tm, sa, b)
		}
		if math.Max(tm, sa) < 3*b {
			t.Errorf("β=%v: expected a wide real-β gap, got BUREL %v vs max %v", fig.X[i], b, math.Max(tm, sa))
		}
	}
	if fig.Render() == "" {
		t.Error("empty render")
	}
}

func TestFig4b(t *testing.T) {
	fig, err := Fig4b(tiny())
	if err != nil {
		t.Fatal(err)
	}
	for i := range fig.X {
		b, tm, sa := fig.Series[0].Y[i], fig.Series[1].Y[i], fig.Series[2].Y[i]
		if tm < b && sa < b {
			t.Errorf("t=%v: both t-closeness schemes below BUREL in real β (%v, %v vs %v)", fig.X[i], tm, sa, b)
		}
	}
}

func TestFig4c(t *testing.T) {
	fig, err := Fig4c(tiny())
	if err != nil {
		t.Fatal(err)
	}
	for i := range fig.X {
		b := fig.Series[0].Y[i]
		tm, sa := fig.Series[1].Y[i], fig.Series[2].Y[i]
		if b <= 0 {
			t.Errorf("AIL=%v: BUREL real β = %v", fig.X[i], b)
		}
		if math.Max(tm, sa) < b {
			t.Errorf("AIL=%v: t-closeness schemes (%v, %v) both below BUREL (%v)", fig.X[i], tm, sa, b)
		}
	}
}

func TestFig5Trends(t *testing.T) {
	res, err := Fig5(tiny())
	if err != nil {
		t.Fatal(err)
	}
	bu := res.AIL.Series[0].Y
	lm := res.AIL.Series[1].Y
	dm := res.AIL.Series[2].Y
	// Headline ordering: BUREL's AIL is below both Mondrian adaptations
	// on average, and DMondrian never beats LMondrian.
	var sb, sl, sd float64
	for i := range bu {
		sb += bu[i]
		sl += lm[i]
		sd += dm[i]
		if lm[i] > dm[i]+1e-9 {
			t.Errorf("β=%v: LMondrian AIL %v above DMondrian %v", res.AIL.X[i], lm[i], dm[i])
		}
	}
	if sb >= sl {
		t.Errorf("BUREL mean AIL %v not below LMondrian %v", sb/5, sl/5)
	}
	// AIL relaxes (broadly) as β grows for BUREL.
	if bu[len(bu)-1] >= bu[0] {
		t.Errorf("BUREL AIL did not fall from β=1 (%v) to β=5 (%v)", bu[0], bu[len(bu)-1])
	}
	// Times are recorded and positive.
	for s := range res.Time.Series {
		for i, v := range res.Time.Series[s].Y {
			if v <= 0 {
				t.Errorf("series %d point %d: time %v", s, i, v)
			}
		}
	}
}

func TestFig6Trend(t *testing.T) {
	res, err := Fig6(tiny())
	if err != nil {
		t.Fatal(err)
	}
	bu := res.AIL.Series[0].Y
	// Information quality degrades with QI dimensionality (§6.2).
	if bu[4] <= bu[0] {
		t.Errorf("BUREL AIL at QI=5 (%v) not above QI=1 (%v)", bu[4], bu[0])
	}
	for i, v := range bu {
		if v < 0 || v > 1 {
			t.Errorf("AIL out of range at %d: %v", i, v)
		}
	}
}

func TestFig7Runs(t *testing.T) {
	res, err := Fig7(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.AIL.Series[0].Y) != 5 {
		t.Fatalf("points = %d", len(res.AIL.Series[0].Y))
	}
	// The paper: no clear AIL trend with |DB|, but time grows. Check the
	// largest instance takes at least as long as the smallest for the
	// slowest algorithm (generous, timing noise allowed via factor).
	times := res.Time.Series[1].Y // LMondrian, the heaviest
	if times[4] < times[0]/2 {
		t.Errorf("time at N (%v) implausibly below time at N/5 (%v)", times[4], times[0])
	}
}

func TestFig8bTrend(t *testing.T) {
	c := tiny()
	fig, err := Fig8b(c)
	if err != nil {
		t.Fatal(err)
	}
	bu := fig.Series[0].Y
	// Error falls as β relaxes (Fig. 8b); compare the extremes.
	if bu[len(bu)-1] >= bu[0] {
		t.Errorf("BUREL error did not fall from β=1 (%v) to β=5 (%v)", bu[0], bu[len(bu)-1])
	}
	for i := range fig.X {
		if bu[i] < 0 {
			t.Errorf("negative error at %d", i)
		}
	}
}

func TestFig9bTrend(t *testing.T) {
	c := tiny()
	fig, err := Fig9b(c)
	if err != nil {
		t.Fatal(err)
	}
	pe := fig.Series[0].Y
	be := fig.Series[1].Y
	// Perturbation error falls with β; Baseline is flat (β-independent)
	// — compare its spread against its level rather than exact equality.
	if pe[len(pe)-1] >= pe[0] {
		t.Errorf("perturbation error did not fall from β=1 (%v) to β=5 (%v)", pe[0], pe[len(pe)-1])
	}
	var bMin, bMax float64 = be[0], be[0]
	for _, v := range be {
		bMin = math.Min(bMin, v)
		bMax = math.Max(bMax, v)
	}
	if bMax-bMin > 0.5*bMax {
		t.Errorf("Baseline error varies too much with β: [%v, %v]", bMin, bMax)
	}
}

// TestErrorSweepFigures smoke-runs the error sweeps no other test or
// command calls: Fig. 8(a), 8(c), 8(d) (generalized releases) and 9(a),
// 9(c), 9(d) (perturbation against the Baseline, through the
// query.EstimatePerturbed row scan). Each must return five x values and,
// in every series, five finite, non-negative errors. The config is
// smaller than tiny() so the six sweeps stay cheap.
func TestErrorSweepFigures(t *testing.T) {
	c := tiny()
	c.N = 5000
	c.Queries = 100
	for name, fig := range map[string]func(Config) (metrics.Figure, error){
		"Fig8a": Fig8a, "Fig8c": Fig8c, "Fig8d": Fig8d,
		"Fig9a": Fig9a, "Fig9c": Fig9c, "Fig9d": Fig9d,
	} {
		t.Run(name, func(t *testing.T) {
			f, err := fig(c)
			if err != nil {
				t.Fatal(err)
			}
			if len(f.X) != 5 || len(f.Series) == 0 {
				t.Fatalf("%d x values and %d series, want 5 and at least 1", len(f.X), len(f.Series))
			}
			for _, s := range f.Series {
				if len(s.Y) != 5 {
					t.Fatalf("series %q has %d values, want 5", s.Label, len(s.Y))
				}
				for i, y := range s.Y {
					if math.IsNaN(y) || math.IsInf(y, 0) || y < 0 {
						t.Errorf("series %q at x=%v: error %v", s.Label, f.X[i], y)
					}
				}
			}
		})
	}
}

func TestTable7(t *testing.T) {
	rows, err := Table7(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	// t grows with β overall (looser likeness ⇒ looser closeness); the
	// max-EMD statistic is noisy point to point, so compare the extremes.
	if rows[len(rows)-1].T <= rows[0].T {
		t.Errorf("t did not grow from β=%v (%v) to β=%v (%v)",
			rows[0].Beta, rows[0].T, rows[len(rows)-1].Beta, rows[len(rows)-1].T)
	}
	for i, r := range rows {
		if r.L < 1 || r.AvgL < float64(r.L) {
			t.Errorf("row %d: ℓ=%d avg=%v inconsistent", i, r.L, r.AvgL)
		}
		// The §7 argument: achieved ℓ stays at deFinetti-resistant
		// levels (≥ 6 in the paper for β ≤ 5).
		if r.L < 3 {
			t.Errorf("row %d: achieved ℓ = %d too low", i, r.L)
		}
	}
	if RenderTable7(rows) == "" {
		t.Error("empty render")
	}
}

func TestFigNB(t *testing.T) {
	fig, err := FigNB(tiny())
	if err != nil {
		t.Fatal(err)
	}
	for i := range fig.X {
		acc, modal := fig.Series[0].Y[i], fig.Series[1].Y[i]
		// §7: accuracy remains remarkably close to the modal frequency.
		if acc > 3*modal {
			t.Errorf("β=%v: NB accuracy %v ≫ modal %v", fig.X[i], acc, modal)
		}
	}
}

func TestConfigs(t *testing.T) {
	p, q := Paper(), Quick()
	if p.N != 500000 || p.Queries != 10000 {
		t.Errorf("Paper config: %+v", p)
	}
	if q.N >= p.N || q.Queries >= p.Queries {
		t.Errorf("Quick config not smaller: %+v", q)
	}
	if len(p.Betas) != 5 {
		t.Errorf("Betas = %v", p.Betas)
	}
}
