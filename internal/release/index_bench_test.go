package release

import (
	"math/rand"
	"testing"

	"repro/internal/census"
	"repro/internal/microdata"
	"repro/internal/query"
)

// benchSetup builds a 10k-EC release and a λ=2, θ=0.01 workload — the
// acceptance configuration: the indexed estimator must beat the linear
// scan by ≥3× here. Run both with:
//
//	go test ./internal/release/ -bench 'Estimate(Linear|Indexed)' -benchtime 2s
func benchSetup(b *testing.B, numECs int) (*ECIndex, []microdata.PublishedEC, []query.Query) {
	b.Helper()
	schema := benchSchema()
	rng := rand.New(rand.NewSource(99))
	ecs := SyntheticECs(schema, numECs, rng)
	ix := indexECs(b, schema, ecs, 0)
	gen, err := query.NewGenerator(schema, 2, 0.01, rng)
	if err != nil {
		b.Fatal(err)
	}
	queries := make([]query.Query, 256)
	for i := range queries {
		queries[i] = gen.Next()
	}
	return ix, ecs, queries
}

func benchSchema() *microdata.Schema {
	return census.Schema().Project(3)
}

func BenchmarkEstimateLinear10kECs(b *testing.B) {
	_, ecs, queries := benchSetup(b, 10000)
	schema := benchSchema()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		query.EstimateGeneralized(schema, ecs, queries[i%len(queries)])
	}
}

func BenchmarkEstimateIndexed10kECs(b *testing.B) {
	ix, _, queries := benchSetup(b, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Estimate(queries[i%len(queries)])
	}
}

func BenchmarkEstimateLinear50kECs(b *testing.B) {
	_, ecs, queries := benchSetup(b, 50000)
	schema := benchSchema()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		query.EstimateGeneralized(schema, ecs, queries[i%len(queries)])
	}
}

func BenchmarkEstimateIndexed50kECs(b *testing.B) {
	ix, _, queries := benchSetup(b, 50000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Estimate(queries[i%len(queries)])
	}
}

func BenchmarkBuildIndex10kECs(b *testing.B) {
	schema := benchSchema()
	rng := rand.New(rand.NewSource(99))
	cols, err := ecColumns(schema, SyntheticECs(schema, 10000, rng))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildIndex(schema, cols, 0)
	}
}
