package anon_test

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/anon"
	"repro/internal/census"
	"repro/internal/query"
)

func censusTable(t *testing.T, n int) *anon.Table {
	t.Helper()
	return census.Generate(census.Options{N: n, Seed: 42}).Project(3)
}

// TestAnonymizeAllMethods: every built-in method is reachable through the
// registry dispatch and yields a queryable release whose estimates match
// the direct estimator of internal/query.
func TestAnonymizeAllMethods(t *testing.T) {
	tab := censusTable(t, 1200)
	ctx := context.Background()
	cases := []struct {
		params anon.Params
		check  func(t *testing.T, r *anon.Release)
	}{
		{anon.NewBURELParams(anon.BURELBeta(4), anon.BURELSeed(1)), func(t *testing.T, r *anon.Release) {
			if r.NumECs() == 0 || r.Partition == nil || r.AIL <= 0 {
				t.Fatalf("generalized release incomplete: ecs=%d ail=%v", r.NumECs(), r.AIL)
			}
		}},
		{anon.NewAnatomyParams(anon.AnatomySeed(1)), func(t *testing.T, r *anon.Release) {
			if r.Baseline == nil || r.LDiverse != nil {
				t.Fatal("baseline anatomy release incomplete")
			}
		}},
		{anon.NewAnatomyParams(anon.AnatomyL(3), anon.AnatomySeed(1)), func(t *testing.T, r *anon.Release) {
			if r.LDiverse == nil || r.NumECs() == 0 {
				t.Fatal("ℓ-diverse anatomy release incomplete")
			}
		}},
		{anon.NewPerturbParams(anon.PerturbBeta(4), anon.PerturbSeed(1)), func(t *testing.T, r *anon.Release) {
			if r.Perturbed == nil || r.Scheme == nil {
				t.Fatal("perturbed release incomplete")
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.params.Method(), func(t *testing.T) {
			rel, err := anon.Anonymize(ctx, tab, tc.params)
			if err != nil {
				t.Fatal(err)
			}
			if rel.Method != tc.params.Method() || rel.Rows != tab.Len() || rel.Schema != tab.Schema {
				t.Fatalf("release header: %+v", rel)
			}
			tc.check(t, rel)
			gen, err := query.NewGenerator(tab.Schema, 2, 0.1, rand.New(rand.NewSource(7)))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 20; i++ {
				q := gen.Next()
				est, err := rel.Estimate(q)
				if err != nil {
					t.Fatalf("query %d: %v", i, err)
				}
				if math.IsNaN(est) || math.IsInf(est, 0) {
					t.Fatalf("query %d: estimate %v", i, est)
				}
			}
		})
	}
}

// TestEstimateMatchesDirectEstimators pins Release.Estimate to the query
// package's estimators for the generalized case (the other methods call
// the estimator functions directly).
func TestEstimateMatchesDirectEstimators(t *testing.T) {
	tab := censusTable(t, 800)
	rel, err := anon.Anonymize(context.Background(), tab, anon.NewBURELParams(anon.BURELSeed(3)))
	if err != nil {
		t.Fatal(err)
	}
	gen, err := query.NewGenerator(tab.Schema, 2, 0.1, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		q := gen.Next()
		got, err := rel.Estimate(q)
		if err != nil {
			t.Fatal(err)
		}
		want := query.EstimateGeneralized(rel.Schema, rel.ECs, q)
		if got != want {
			t.Fatalf("query %d: Estimate %v, direct %v", i, got, want)
		}
	}
}

func TestEstimateValidatesQueries(t *testing.T) {
	tab := censusTable(t, 200)
	rel, err := anon.Anonymize(context.Background(), tab, anon.NewAnatomyParams())
	if err != nil {
		t.Fatal(err)
	}
	bad := []anon.Query{
		{Dims: []int{99}, Lo: []float64{0}, Hi: []float64{1}},
		{Dims: []int{0}}, // missing bounds
		{SALo: 3, SAHi: 1},
		{SALo: 0, SAHi: 100000},
	}
	for i, q := range bad {
		if _, err := rel.Estimate(q); err == nil {
			t.Errorf("bad query %d accepted", i)
		}
	}
}

// TestAnonymizeCancellation: a canceled context aborts the run with the
// context's error, both before the run starts and mid-run.
func TestAnonymizeCancellation(t *testing.T) {
	tab := censusTable(t, 5000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, p := range []anon.Params{
		anon.NewBURELParams(),
		anon.NewAnatomyParams(),
		anon.NewPerturbParams(),
	} {
		if _, err := anon.Anonymize(ctx, tab, p); !errors.Is(err, context.Canceled) {
			t.Errorf("%s with canceled ctx: %v, want context.Canceled", p.Method(), err)
		}
	}
}

func TestAnonymizeRejectsBadInput(t *testing.T) {
	ctx := context.Background()
	tab := censusTable(t, 100)
	if _, err := anon.Anonymize(ctx, tab, nil); !errors.Is(err, anon.ErrInvalidParams) {
		t.Fatalf("nil params: %v", err)
	}
	if _, err := anon.Anonymize(ctx, nil, anon.NewBURELParams()); !errors.Is(err, anon.ErrInvalidParams) {
		t.Fatalf("nil table: %v", err)
	}
	if _, err := anon.Anonymize(ctx, tab, anon.NewBURELParams(anon.BURELBeta(-2))); !errors.Is(err, anon.ErrInvalidParams) {
		t.Fatalf("invalid beta: %v", err)
	}
	// Typed-nil params slip past interface nil checks; they must come
	// back as ErrInvalidParams, not a nil-pointer panic.
	for _, p := range []anon.Params{(*anon.BURELParams)(nil), (*anon.AnatomyParams)(nil), (*anon.PerturbParams)(nil)} {
		if _, err := anon.Anonymize(ctx, tab, p); !errors.Is(err, anon.ErrInvalidParams) {
			t.Fatalf("typed-nil %T: %v", p, err)
		}
	}
	// Params of one method handed to another: the registry dispatches on
	// Params.Method(), so this can only be provoked by calling a method
	// directly.
	m, err := anon.Lookup(anon.MethodBUREL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Anonymize(ctx, tab, anon.NewPerturbParams()); !errors.Is(err, anon.ErrInvalidParams) {
		t.Fatalf("cross-method params: %v", err)
	}
}

// TestAnonymizeRejectsZeroQI: a table whose schema has no QI attribute is
// invalid input for every registered method, refused with
// ErrInvalidParams rather than a panic deep inside the scheme.
func TestAnonymizeRejectsZeroQI(t *testing.T) {
	tab := census.Generate(census.Options{N: 100, Seed: 42}).Project(0)
	for _, name := range anon.Methods() {
		p, err := anon.NewParams(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := anon.Anonymize(context.Background(), tab, p); !errors.Is(err, anon.ErrInvalidParams) {
			t.Errorf("%s on a zero-QI table: %v, want ErrInvalidParams", name, err)
		}
	}
}

// TestParamsJSONRoundTrip: every params type survives marshal →
// UnmarshalParams unchanged, so wire transport is lossless.
func TestParamsJSONRoundTrip(t *testing.T) {
	cases := []anon.Params{
		anon.NewBURELParams(anon.BURELBeta(2.5), anon.BURELBasic(), anon.BURELBoundNegative(), anon.BURELSeed(7)),
		anon.NewAnatomyParams(anon.AnatomyL(4), anon.AnatomySeed(3)),
		anon.NewPerturbParams(anon.PerturbBeta(1.5), anon.PerturbSeed(11)),
	}
	for _, p := range cases {
		data, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := anon.UnmarshalParams(p.Method(), data)
		if err != nil {
			t.Fatalf("%s: %v", p.Method(), err)
		}
		if !reflect.DeepEqual(got, p) {
			t.Fatalf("%s round trip: %+v != %+v", p.Method(), got, p)
		}
	}
}

// TestDeterminism: a fixed seed and input give identical releases.
func TestDeterminism(t *testing.T) {
	tab := censusTable(t, 600)
	ctx := context.Background()
	a, err := anon.Anonymize(ctx, tab, anon.NewBURELParams(anon.BURELSeed(5)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := anon.Anonymize(ctx, tab, anon.NewBURELParams(anon.BURELSeed(5)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.ECs, b.ECs) {
		t.Fatal("same seed produced different generalized releases")
	}
}
