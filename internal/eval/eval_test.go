package eval

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/anon"
	"repro/internal/census"
	"repro/internal/hierarchy"
	"repro/internal/microdata"
	"repro/internal/release"
)

// servedSnapshot builds spec over tab and returns the snapshot as a store
// serves it after a restart or on a replica: encoded and decoded.
func servedSnapshot(t *testing.T, tab *microdata.Table, spec release.Spec) *release.Snapshot {
	t.Helper()
	rel, err := anon.Anonymize(context.Background(), tab, spec.Params)
	if err != nil {
		t.Fatal(err)
	}
	built, err := release.NewSnapshot(rel, 0)
	if err != nil {
		t.Fatal(err)
	}
	data, err := release.EncodeSnapshot(built, spec)
	if err != nil {
		t.Fatal(err)
	}
	snap, _, err := release.DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestEvaluateRejectsTamperedQI: every kind that publishes tuples
// publishes their QI values, so an upload whose QI values differ from the
// original's does not reproduce the release — even where the SA column,
// the perturbation model, the SA distribution or the group structure
// (which the anonymizers derive from the SA column alone) all match.
// Every age of the tampered upload is moved by one year.
func TestEvaluateRejectsTamperedQI(t *testing.T) {
	tab := census.Generate(census.Options{N: 900, Seed: 5}).Project(3)
	tampered := tab.Clone()
	age := tab.Schema.QI[0]
	for i := range tampered.Tuples {
		if v := &tampered.Tuples[i].QI[0]; *v+1 <= age.Max {
			*v++
		} else {
			*v--
		}
	}
	for name, params := range map[string]anon.Params{
		"perturb":          anon.NewPerturbParams(anon.PerturbBeta(4), anon.PerturbSeed(7)),
		"anatomy_baseline": anon.NewAnatomyParams(anon.AnatomySeed(7)),
		"anatomy_ldiverse": anon.NewAnatomyParams(anon.AnatomyL(2), anon.AnatomySeed(7)),
	} {
		t.Run(name, func(t *testing.T) {
			spec := release.Spec{Method: params.Method(), Params: params}
			snap := servedSnapshot(t, tab, spec)
			if _, err := Evaluate(context.Background(), tab, snap, spec, Params{Queries: 20}); err != nil {
				t.Fatalf("the original table does not evaluate: %v", err)
			}
			_, err := Evaluate(context.Background(), tampered, snap, spec, Params{Queries: 20})
			if err == nil || !strings.Contains(err.Error(), "does not reproduce") {
				t.Fatalf("tampered ages: got %v, want a reproduce failure", err)
			}
		})
	}
}

// TestEvaluateFrozenPerturbSnapshot evaluates the original table against
// a perturbed snapshot written before the canonical tuple order existed
// (release's testdata/v3/perturb.snap, anonymizer order). The reproduce
// check orders a copy of the served tuples, so the old file verifies.
func TestEvaluateFrozenPerturbSnapshot(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "release", "testdata", "v3", "perturb.snap"))
	if err != nil {
		t.Fatal(err)
	}
	snap, spec, err := release.DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	// The release package's codec fixture table, row for row.
	h := hierarchy.MustNew(hierarchy.N("any",
		hierarchy.N("manual", hierarchy.N("farm"), hierarchy.N("factory")),
		hierarchy.N("office", hierarchy.N("clerk"), hierarchy.N("exec")),
	))
	tab := microdata.NewTable(&microdata.Schema{
		QI: []microdata.Attribute{
			microdata.NumericAttr("age", 10, 90),
			microdata.CategoricalAttr("work", h),
		},
		SA: microdata.SensitiveAttr{Name: "salary", Values: []string{"low", "mid", "high", "top"}},
	})
	for _, r := range [][3]float64{{23, 0, 0}, {31, 1, 1}, {47, 2, 2}, {52, 3, 3}, {64, 0, 0}, {78, 2, 1}} {
		tab.MustAppend(microdata.Tuple{QI: []float64{r[0], r[1]}, SA: int(r[2])})
	}
	v, err := Evaluate(context.Background(), tab, snap, spec, Params{Queries: 10})
	if err != nil {
		t.Fatalf("frozen perturbed snapshot does not verify: %v", err)
	}
	if v.Kind != string(release.KindPerturbed) || v.Rows != 6 {
		t.Fatalf("verdict %+v", v)
	}
}
