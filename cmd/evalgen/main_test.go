package main

import (
	"strings"
	"testing"

	"repro/anon"
)

// TestCompareFigures: compare reports a figure value past tol, a changed
// x grid, and a figure or series missing from the run, and nothing for a
// run within tol.
func TestCompareFigures(t *testing.T) {
	ref := Curves{N: 10, Seed: 1, EvalSeed: 1, Queries: 5, Figures: map[string]Figure{
		"fig5": {X: []float64{1, 2}, Series: map[string][]float64{"BUREL": {0.5, 0.4}, "LMondrian": {0.6, 0.5}}},
		"fig6": {X: []float64{1, 2}, Series: map[string][]float64{"BUREL": {0.1, 0.2}}},
	}}
	run := func(edit func(figs map[string]Figure)) []string {
		got := ref
		got.Figures = map[string]Figure{}
		for name, fig := range ref.Figures {
			series := map[string][]float64{}
			for s, ys := range fig.Series {
				series[s] = append([]float64(nil), ys...)
			}
			got.Figures[name] = Figure{X: append([]float64(nil), fig.X...), Series: series}
		}
		edit(got.Figures)
		return compare(got, ref, 0.25)
	}
	if diffs := run(func(figs map[string]Figure) { figs["fig5"].Series["BUREL"][1] = 0.45 }); len(diffs) != 0 {
		t.Errorf("a drift within tol is reported: %v", diffs)
	}
	for name, tc := range map[string]struct {
		edit func(figs map[string]Figure)
		want string
	}{
		"drift":          {func(figs map[string]Figure) { figs["fig5"].Series["BUREL"][1] = 0.6 }, "fig5/BUREL at x=2: 0.6, reference 0.4"},
		"x grid":         {func(figs map[string]Figure) { figs["fig6"].X[1] = 3 }, "fig6: x grid [1 3], reference [1 2]"},
		"missing figure": {func(figs map[string]Figure) { delete(figs, "fig6") }, "figure fig6 missing from this run"},
		"missing series": {func(figs map[string]Figure) { delete(figs["fig5"].Series, "LMondrian") }, "fig5/LMondrian: 0 values vs 2 in reference"},
	} {
		diffs := run(tc.edit)
		if len(diffs) != 1 || !strings.Contains(diffs[0], tc.want) {
			t.Errorf("%s: diffs %q, want one containing %q", name, diffs, tc.want)
		}
	}
}

// TestBisect runs the search on a synthetic monotone scheme whose
// release records its knob as its AIL: from below and from above it
// closes in on the boundary at 3, and with no passing probe it falls
// back to the end of the range where the test should hold.
func TestBisect(t *testing.T) {
	probes := 0
	probe := func(knob float64) (*anon.Release, error) {
		probes++
		return &anon.Release{AIL: knob}, nil
	}
	atMost3 := func(r *anon.Release) bool { return r.AIL <= 3 }
	atLeast3 := func(r *anon.Release) bool { return r.AIL >= 3 }
	never := func(*anon.Release) bool { return false }
	for _, tc := range []struct {
		name   string
		below  bool
		ok     func(*anon.Release) bool
		lo, hi float64 // the returned release's knob lies in [lo, hi]
		probes int
	}{
		{"below", true, atMost3, 3 * 0.999, 3, 18},
		{"above", false, atLeast3, 3, 3 * 1.001, 18},
		{"fallback below", true, never, 0.05, 0.05, 19},
		{"fallback above", false, never, 32, 32, 19},
	} {
		probes = 0
		rel, err := bisect(0.05, 32, 18, tc.below, probe, tc.ok)
		if err != nil {
			t.Fatal(err)
		}
		if rel.AIL < tc.lo || rel.AIL > tc.hi {
			t.Errorf("%s: knob %v, want in [%v, %v]", tc.name, rel.AIL, tc.lo, tc.hi)
		}
		if probes != tc.probes {
			t.Errorf("%s: %d probes, want %d", tc.name, probes, tc.probes)
		}
	}
}
