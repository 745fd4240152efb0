package release

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/anon"
	"repro/internal/census"
	"repro/internal/query"
)

// perturbRelease runs the perturbation method (β = 4) over n CENSUS rows
// projected to qi dimensions.
func perturbRelease(tb testing.TB, n, qi int, seed int64) *anon.Release {
	tb.Helper()
	tab := census.Generate(census.Options{N: n, Seed: seed}).Project(qi)
	rel, err := anon.Anonymize(context.Background(), tab, anon.NewPerturbParams(anon.PerturbBeta(4), anon.PerturbSeed(seed)))
	if err != nil {
		tb.Fatal(err)
	}
	return rel
}

// TestTupleBlocksSkip pins that the block path skips, not merely that it
// answers: a lost canonical order still answers exactly, through a full
// scan, and would show only as lost speed. On a 50k-row CENSUS
// perturbation release (QI = 5) the owner-built and the decoded snapshot
// must hold identical blocks, answer 400 λ=3, θ=0.1 queries with the row
// scan's bits, and skip at least 75% of the blocks.
func TestTupleBlocksSkip(t *testing.T) {
	if testing.Short() {
		t.Skip("50k-row release")
	}
	rel := perturbRelease(t, 50000, 5, 1)
	owner := mustSnapshot(t, rel, 0)
	if rel.Perturbed == nil {
		t.Fatal("NewSnapshot cleared the caller's table")
	}
	data, err := EncodeSnapshot(owner, Spec{Method: anon.MethodPerturb})
	if err != nil {
		t.Fatal(err)
	}
	decoded, _, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(owner.Tuples, decoded.Tuples) {
		t.Fatal("owner-built and decoded snapshots hold different blocks")
	}

	gen, err := query.NewGenerator(rel.Schema, 3, 0.1, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	aggs := []query.Aggregate{query.AggCount, query.AggSum, query.AggAvg, query.AggMin, query.AggMax}
	var total BlockCounts
	for i := 0; i < 400; i++ {
		q := gen.Next()
		q.Agg = aggs[i%len(aggs)]
		want, err := query.EstimatePerturbed(rel.Perturbed, rel.Scheme, q)
		if err != nil {
			t.Fatal(err)
		}
		for name, snap := range map[string]*Snapshot{"owner": owner, "decoded": decoded} {
			got, err := snap.Estimate(q)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s query %d %+v: blocks %v, row scan %v", name, i, q, got, want)
			}
		}
		bc := owner.Tuples.Blocks(q)
		total.Skipped += bc.Skipped
		total.Summarized += bc.Summarized
		total.Scanned += bc.Scanned
	}
	all := total.Skipped + total.Summarized + total.Scanned
	if want := 400 * ((50000 + blockRows - 1) / blockRows); all != want {
		t.Fatalf("block census covers %d blocks, want %d", all, want)
	}
	skipped := float64(total.Skipped) / float64(all)
	t.Logf("blocks per query: %.1f%% skipped, %.1f%% summarized, %.1f%% scanned",
		100*skipped, 100*float64(total.Summarized)/float64(all), 100*float64(total.Scanned)/float64(all))
	if skipped < 0.75 {
		t.Fatalf("%.1f%% of blocks skipped, want ≥ 75%%", 100*skipped)
	}
}

// TestCanonicalizeTuplesIdempotent pins the property the reproduce check
// relies on: canonicalizing columns already in canonical order is the
// identity, and the order is a permutation of the rows.
func TestCanonicalizeTuplesIdempotent(t *testing.T) {
	rel := perturbRelease(t, 3000, 5, 3)
	c, err := tableColumns(rel.Perturbed)
	if err != nil {
		t.Fatal(err)
	}
	qi, sa := c.qi, c.sa
	CanonicalizeTuples(rel.Schema, qi, sa)
	again := make([][]float64, len(qi))
	for j := range qi {
		again[j] = append([]float64(nil), qi[j]...)
	}
	againSA := append([]int32(nil), sa...)
	CanonicalizeTuples(rel.Schema, again, againSA)
	if !reflect.DeepEqual(qi, again) || !reflect.DeepEqual(sa, againSA) {
		t.Fatal("canonicalizing canonical columns moved rows")
	}
	seen := map[[6]float64]int{}
	for _, tp := range rel.Perturbed.Tuples {
		seen[[6]float64{tp.QI[0], tp.QI[1], tp.QI[2], tp.QI[3], tp.QI[4], float64(tp.SA)}]++
	}
	for i := range sa {
		seen[[6]float64{qi[0][i], qi[1][i], qi[2][i], qi[3][i], qi[4][i], float64(sa[i])}]--
	}
	for k, c := range seen {
		if c != 0 {
			t.Fatalf("row %v appears %d more times before ordering than after", k, c)
		}
	}
}

// BenchmarkEstimatePerturbed50k times one λ=3, θ=0.1 unit on a 50k-row
// CENSUS perturbation release (QI = 5): the row scan of
// query.EstimatePerturbed against the block path that serves it.
func BenchmarkEstimatePerturbed50k(b *testing.B) {
	rel := perturbRelease(b, 50000, 5, 1)
	snap := mustSnapshot(b, rel, 0)
	gen, err := query.NewGenerator(rel.Schema, 3, 0.1, rand.New(rand.NewSource(2)))
	if err != nil {
		b.Fatal(err)
	}
	qs := make([]query.Query, 256)
	for i := range qs {
		qs[i] = gen.Next()
	}
	b.Run("rowscan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := query.EstimatePerturbed(rel.Perturbed, rel.Scheme, qs[i%len(qs)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("blocks", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := snap.EstimateUnchecked(qs[i%len(qs)], nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkNewSnapshotPerturb20k times the store's build of a perturbed
// release on a 20k-row CENSUS table projected to QI = 3 (the shape of the
// benchmark's publish workload): anonymization plus NewSnapshot, which
// orders the tuples and cuts them into blocks.
func BenchmarkNewSnapshotPerturb20k(b *testing.B) {
	tab := census.Generate(census.Options{N: 20000, Seed: 1}).Project(3)
	params := anon.NewPerturbParams(anon.PerturbBeta(4), anon.PerturbSeed(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rel, err := anon.Anonymize(context.Background(), tab, params)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := NewSnapshot(rel, 0); err != nil {
			b.Fatal(err)
		}
	}
}
