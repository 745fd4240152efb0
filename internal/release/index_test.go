package release

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/census"
	"repro/internal/microdata"
	"repro/internal/query"
)

// TestIndexMatchesLinear: the indexed estimator must agree with the linear
// scan on every query, across λ and θ shapes, including λ=0 (SA-only).
func TestIndexMatchesLinear(t *testing.T) {
	schema := census.Schema().Project(3)
	rng := rand.New(rand.NewSource(7))
	ecs := SyntheticECs(schema, 2000, rng)
	ix := BuildIndex(schema, ecs, 0)

	for _, shape := range []struct {
		lambda int
		theta  float64
	}{{0, 0.1}, {1, 0.1}, {2, 0.01}, {3, 0.05}} {
		gen, err := query.NewGenerator(schema, shape.lambda, shape.theta, rng)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			q := gen.Next()
			want := query.EstimateGeneralized(schema, ecs, q)
			got := ix.Estimate(q)
			if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
				t.Fatalf("λ=%d θ=%v query %d: indexed %v != linear %v", shape.lambda, shape.theta, i, got, want)
			}
		}
	}
}

// TestIndexMatchesLinearOnBurel repeats the agreement check on a real
// BUREL release, whose boxes are correlated rather than uniform.
func TestIndexMatchesLinearOnBurel(t *testing.T) {
	tab := census.Generate(census.Options{N: 3000, Seed: 5}).Project(3)
	snap, err := build(context.Background(), tab, burelSpec(4, 1))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	gen, err := query.NewGenerator(tab.Schema, 2, 0.05, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		q := gen.Next()
		want := query.EstimateGeneralized(tab.Schema, snap.Release.ECs, q)
		got, err := snap.Estimate(q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("query %d: indexed %v != linear %v", i, got, want)
		}
	}
}

// TestIndexPrunes: at low selectivity the index must examine a small
// fraction of the ECs — the deterministic counterpart of the wall-clock
// benchmark (≥3× fewer candidates than the linear scan's |ECs|).
func TestIndexPrunes(t *testing.T) {
	schema := census.Schema().Project(3)
	rng := rand.New(rand.NewSource(3))
	ecs := SyntheticECs(schema, 10000, rng)
	ix := BuildIndex(schema, ecs, 0)
	gen, err := query.NewGenerator(schema, 2, 0.01, rng)
	if err != nil {
		t.Fatal(err)
	}
	totalCand := 0
	n := 100
	for i := 0; i < n; i++ {
		totalCand += ix.Candidates(gen.Next())
	}
	avg := float64(totalCand) / float64(n)
	if ratio := float64(len(ecs)) / avg; ratio < 3 {
		t.Fatalf("index examines %0.f of %d ECs on average (%.1f× pruning); want ≥3×", avg, len(ecs), ratio)
	}
}

// TestQueryValidation: malformed network queries must error, not panic.
func TestQueryValidation(t *testing.T) {
	tab := census.Generate(census.Options{N: 500, Seed: 9}).Project(3)
	snap, err := build(context.Background(), tab, burelSpec(4, 1))
	if err != nil {
		t.Fatal(err)
	}
	bad := []query.Query{
		{Dims: []int{0}, Lo: nil, Hi: nil, SALo: 0, SAHi: 0},                            // missing bounds
		{Dims: []int{9}, Lo: []float64{0}, Hi: []float64{1}, SALo: 0, SAHi: 0},          // dim out of range
		{Dims: []int{0, 0}, Lo: []float64{0, 0}, Hi: []float64{1, 1}, SALo: 0, SAHi: 0}, // duplicate dim
		{Dims: []int{0}, Lo: []float64{5}, Hi: []float64{1}, SALo: 0, SAHi: 0},          // inverted range
		{SALo: -1, SAHi: 0},                                      // SA below domain
		{SALo: 0, SAHi: len(tab.Schema.SA.Values)},               // SA past domain
		{SALo: 3, SAHi: 1},                                       // inverted SA
		{Dims: []int{1}, Lo: []float64{0.5}, Hi: []float64{1.5}}, // fractional categorical bounds
	}
	for i, q := range bad {
		if _, err := snap.Estimate(q); err == nil {
			t.Errorf("bad query %d accepted", i)
		}
	}
}

// TestIndexWideBoxes: ECs spanning most of the domain must neither blow
// up the directory (the grid coarsens to keep ~O(|ECs|) entries per
// dimension) nor break agreement with the linear estimator.
func TestIndexWideBoxes(t *testing.T) {
	schema := census.Schema().Project(3)
	rng := rand.New(rand.NewSource(13))
	n := 5000
	ecs := make([]microdata.PublishedEC, n)
	m := len(schema.SA.Values)
	for i := range ecs {
		lo := make([]float64, len(schema.QI))
		hi := make([]float64, len(schema.QI))
		for d, a := range schema.QI {
			var dlo, dhi float64
			if a.Kind == microdata.Numeric {
				dlo, dhi = a.Min, a.Max
			} else {
				dlo, dhi = 0, float64(a.Hierarchy.NumLeaves()-1)
			}
			w := (dhi - dlo) * (0.5 + 0.4*rng.Float64()) // 50-90% of the domain
			c := dlo + rng.Float64()*(dhi-dlo-w)
			lo[d], hi[d] = c, c+w
		}
		counts := make([]int, m)
		counts[rng.Intn(m)] = 3
		ecs[i] = microdata.PublishedEC{Box: microdata.Box{Lo: lo, Hi: hi}, SACounts: counts, Size: 3}
	}
	ix := BuildIndex(schema, ecs, MaxGridCells)
	for d := range ix.dims {
		entries := len(ix.dims[d].ids)
		// At the 16-cell floor a 90%-wide box spans ≤ 16 cells; the
		// budget bounds well under the requested 4096-cell blowup.
		if entries > 16*n {
			t.Fatalf("dim %d holds %d entries for %d ECs; coarsening failed", d, entries, n)
		}
	}
	gen, err := query.NewGenerator(schema, 2, 0.05, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		q := gen.Next()
		want := query.EstimateGeneralized(schema, ecs, q)
		if got := ix.Estimate(q); math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("query %d: indexed %v != linear %v", i, got, want)
		}
	}
}

// permute returns q with its predicates listed in the order perm gives.
func permute(q query.Query, perm []int) query.Query {
	p := q
	p.Dims, p.Lo, p.Hi = make([]int, len(perm)), make([]float64, len(perm)), make([]float64, len(perm))
	for i, j := range perm {
		p.Dims[i], p.Lo[i], p.Hi[i] = q.Dims[j], q.Lo[j], q.Hi[j]
	}
	return p
}

// TestEstimateIgnoresPredicateOrder: every listing order of a query's
// predicates is the same query, so the indexed Snapshot.Estimate and the
// linear anon.Release.Estimate must each answer all of them with the same
// bits. Multiplying overlap fractions, and breaking the planner's load
// ties, in listing order made some permutations differ in their last bits.
func TestEstimateIgnoresPredicateOrder(t *testing.T) {
	tab := census.Generate(census.Options{N: 20000, Seed: 5})
	snap, err := build(context.Background(), tab, burelSpec(4, 1))
	if err != nil {
		t.Fatal(err)
	}
	gen, err := query.NewGenerator(tab.Schema, 3, 0.1, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	perms := [][]int{{0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	aggs := []query.Aggregate{query.AggCount, query.AggSum, query.AggAvg}
	for i := 0; i < 300; i++ {
		q := gen.Next()
		q.Agg = aggs[i%len(aggs)]
		indexed, err := snap.Estimate(q)
		if err != nil {
			t.Fatal(err)
		}
		linear, err := snap.Release.Estimate(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, perm := range perms {
			p := permute(q, perm)
			if got, _ := snap.Estimate(p); math.Float64bits(got) != math.Float64bits(indexed) {
				t.Fatalf("query %d dims %v: Snapshot.Estimate %v, %v in order", i, p.Dims, got, indexed)
			}
			if got, _ := snap.Release.Estimate(p); math.Float64bits(got) != math.Float64bits(linear) {
				t.Fatalf("query %d dims %v: anon.Release.Estimate %v, %v in order", i, p.Dims, got, linear)
			}
		}
	}
}
