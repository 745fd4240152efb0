package release

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/census"
	"repro/internal/microdata"
	"repro/internal/query"
)

// TestHilbertOrderDeterministicIdempotent pins the two properties the
// codec fixpoint and golden files rely on: ordering the same set twice
// from different starting permutations converges to one sequence, and
// re-ordering an already-ordered set is the identity.
func TestHilbertOrderDeterministicIdempotent(t *testing.T) {
	schema := census.Schema().Project(3)
	rng := rand.New(rand.NewSource(7))
	ecs := SyntheticECs(schema, 500, rng)

	a := append([]microdata.PublishedEC(nil), ecs...)
	b := append([]microdata.PublishedEC(nil), ecs...)
	// Shuffle b so the two runs start from different permutations.
	rand.New(rand.NewSource(9)).Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })

	hilbertOrder(schema, a)
	hilbertOrder(schema, b)
	for i := range a {
		if &a[i].Box.Lo[0] == &b[i].Box.Lo[0] {
			continue // same underlying EC
		}
		if a[i].Box.Lo[0] != b[i].Box.Lo[0] || a[i].Size != b[i].Size {
			t.Fatalf("position %d differs between the two orderings", i)
		}
	}

	c := append([]microdata.PublishedEC(nil), a...)
	hilbertOrder(schema, c)
	for i := range a {
		if a[i].Box.Lo[0] != c[i].Box.Lo[0] || a[i].Box.Hi[0] != c[i].Box.Hi[0] {
			t.Fatalf("re-ordering moved EC at position %d: not idempotent", i)
		}
	}
}

// TestHilbertOrderPreservesEstimates: turning rows into the EC store
// permutes them, and every estimate must equal, bit for bit, a linear
// scan of the same (permuted) set — the permutation is pure bookkeeping.
func TestHilbertOrderPreservesEstimates(t *testing.T) {
	schema := census.Schema().Project(3)
	rng := rand.New(rand.NewSource(3))
	ecs := SyntheticECs(schema, 800, rng)
	ix := indexECs(t, schema, ecs, 0)
	gen, err := query.NewGenerator(schema, 2, 0.05, rng)
	if err != nil {
		t.Fatal(err)
	}
	aggs := []query.Aggregate{query.AggCount, query.AggSum, query.AggAvg, query.AggMin, query.AggMax}
	for i := 0; i < 200; i++ {
		q := gen.Next()
		q.Agg = aggs[i%len(aggs)]
		want := query.EstimateGeneralized(schema, ecs, q)
		if got := ix.Estimate(q); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("query %d agg %v: indexed %v, linear %v", i, q.Agg, got, want)
		}
	}
}
