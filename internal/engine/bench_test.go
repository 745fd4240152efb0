package engine

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/query"
	"repro/internal/release"
)

// benchEngine plants a 10k-EC synthetic release and a λ=2/θ=0.01 pool —
// the same shape as the HTTP-level acceptance benchmarks in
// internal/server, minus the network and JSON costs, so the engine's own
// overhead (signatures, cache, fan-out) is visible in isolation.
func benchEngine(b *testing.B, opts Options) (*Engine, *release.Snapshot, []query.Query) {
	b.Helper()
	snap, schema := syntheticSnapshot(10000, 99)
	e := New(opts)
	b.Cleanup(e.Close)
	gen, err := query.NewGenerator(schema, 2, 0.01, rand.New(rand.NewSource(7)))
	if err != nil {
		b.Fatal(err)
	}
	pool := make([]query.Query, 256)
	for i := range pool {
		pool[i] = gen.Next()
	}
	return e, snap, pool
}

func BenchmarkEngineSingleUncached10kECs(b *testing.B) {
	e, snap, pool := benchEngine(b, Options{CacheCapacity: -1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(pool)
		if _, err := e.Execute(context.Background(), "r-000001", snap, pool[j:j+1]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineBatch64Cold10kECs(b *testing.B) {
	e, snap, pool := benchEngine(b, Options{CacheCapacity: -1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Execute(context.Background(), "r-000001", snap, pool[:64]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N*64)/b.Elapsed().Seconds(), "queries/sec")
}

// BenchmarkEngineGroupByBatch16Cold10kECs: a batch of 16 grouped SUM
// queries (2×4 cells each → 128 scalar units) with the cache off, so the
// cost of cell expansion plus the per-cell estimations is visible.
func BenchmarkEngineGroupByBatch16Cold10kECs(b *testing.B) {
	e, snap, pool := benchEngine(b, Options{CacheCapacity: -1})
	grouped := make([]query.Query, 16)
	for i := range grouped {
		grouped[i] = query.Query{
			SALo: pool[i].SALo, SAHi: pool[i].SAHi, Agg: query.AggSum,
			GroupBy: []int{1, 2}, GroupBuckets: []int{0, 4},
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Execute(context.Background(), "r-000001", snap, grouped); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N*16*8)/b.Elapsed().Seconds(), "cells/sec")
}

func BenchmarkEngineBatch64WarmCache10kECs(b *testing.B) {
	e, snap, pool := benchEngine(b, Options{})
	if _, err := e.Execute(context.Background(), "r-000001", snap, pool[:64]); err != nil { // warm
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Execute(context.Background(), "r-000001", snap, pool[:64]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N*64)/b.Elapsed().Seconds(), "queries/sec")
}
