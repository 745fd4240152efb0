package release

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/anon"
	"repro/internal/census"
	"repro/internal/microdata"
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
// scan's bits, report for each query the block census a brute-force
// classification of every block gives, and skip at least 75% of the
// blocks.
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
		if want := blockCensus(owner.Tuples, q); bc != want || decoded.Tuples.Blocks(q) != want {
			t.Fatalf("query %d %+v: census %+v owner-built, %+v decoded; brute force %+v", i, q, bc, decoded.Tuples.Blocks(q), want)
		}
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

// blockCensus classifies every block of tb as Blocks reports it, from a
// zone map of the block's own rows: skipped when it misses a predicate's
// range, summarized when it lies inside all of them, scanned otherwise.
func blockCensus(tb *TupleBlocks, q query.Query) BlockCounts {
	var bc BlockCounts
	for lo := 0; lo < tb.Len(); lo += blockRows {
		hi := min(lo+blockRows, tb.Len())
		miss, inside := false, true
		for i, j := range q.Dims {
			zlo, zhi := slices.Min(tb.QI[j][lo:hi]), slices.Max(tb.QI[j][lo:hi])
			miss = miss || zhi < q.Lo[i] || zlo > q.Hi[i]
			inside = inside && zlo >= q.Lo[i] && zhi <= q.Hi[i]
		}
		switch {
		case miss:
			bc.Skipped++
		case inside:
			bc.Summarized++
		default:
			bc.Scanned++
		}
	}
	return bc
}

// TestRowMask holds the mask kernels to the scalar predicate on columns
// of 1–64 rows drawn from values that include ±0: atLeast, atMost and
// between on every bound pair over those values and others between and
// beyond them, point ranges included, and rowMask, which picks the
// kernel from the column's zone map, on each of them too. Both one-sided
// choices and the two-sided one must occur, each one-sided choice on a
// column where the other bound's kernel would pass a row it must not.
func TestRowMask(t *testing.T) {
	negZero := math.Copysign(0, -1)
	values := []float64{negZero, 0, -3, -1.5, 1, 2, 2.5, 7, -1e300, 1e300}
	bounds := append([]float64{-4, -2, 0.5, 3, 8}, values...)
	rng := rand.New(rand.NewSource(1))
	var oneSidedLo, oneSidedHi, twoSided int
	scalar := func(col []float64, ok func(v float64) bool) uint64 {
		var mask uint64
		for r, v := range col {
			if ok(v) {
				mask |= 1 << r
			}
		}
		return mask
	}
	for n := 1; n <= blockRows; n++ {
		for trial := 0; trial < 4; trial++ {
			col := make([]float64, n)
			for r := range col {
				col[r] = values[rng.Intn(len(values))]
			}
			if trial == 0 {
				col[rng.Intn(n)] = negZero
			}
			zlo, zhi := slices.Min(col), slices.Max(col)
			for _, lo := range bounds {
				if got, want := atLeast(col, lo), scalar(col, func(v float64) bool { return v >= lo }); got != want {
					t.Fatalf("atLeast(%v, %v) = %#x, want %#x", col, lo, got, want)
				}
				if got, want := atMost(col, lo), scalar(col, func(v float64) bool { return v <= lo }); got != want {
					t.Fatalf("atMost(%v, %v) = %#x, want %#x", col, lo, got, want)
				}
				for _, hi := range bounds {
					if hi < lo {
						continue
					}
					want := scalar(col, func(v float64) bool { return v >= lo && v <= hi })
					if got := between(col, lo, hi); got != want {
						t.Fatalf("between(%v, %v, %v) = %#x, want %#x", col, lo, hi, got, want)
					}
					if got := rowMask(col, zlo, zhi, lo, hi); got != want {
						t.Fatalf("rowMask(%v, zone [%v, %v], %v, %v) = %#x, want %#x", col, zlo, zhi, lo, hi, got, want)
					}
					switch {
					case zhi < lo || zlo > hi || zlo >= lo && zhi <= hi:
						// missed or held whole: Blocks never scans it
					case zhi <= hi:
						if atMost(col, hi) != want {
							oneSidedLo++
						}
					case zlo >= lo:
						if atLeast(col, lo) != want {
							oneSidedHi++
						}
					default:
						twoSided++
					}
				}
			}
		}
	}
	if oneSidedLo == 0 || oneSidedHi == 0 || twoSided == 0 {
		t.Fatalf("cases exercised: %d lower-bound, %d upper-bound, %d two-sided", oneSidedLo, oneSidedHi, twoSided)
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
	canonicalizeTuples(rel.Schema, qi, sa)
	again := make([][]float64, len(qi))
	for j := range qi {
		again[j] = append([]float64(nil), qi[j]...)
	}
	againSA := append([]int32(nil), sa...)
	canonicalizeTuples(rel.Schema, again, againSA)
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

// BenchmarkEstimatePerturbed50k times one unit on a 50k-row CENSUS
// perturbation release (QI = 5): a λ=3, θ=0.1 query through the row scan
// of query.EstimatePerturbed and through the block path that serves it,
// and, as cells, one GROUP BY cell of perfbench's shape, a SUM over such
// a query grouped on a dimension it leaves free into 2–16 cells.
func BenchmarkEstimatePerturbed50k(b *testing.B) {
	rel := perturbRelease(b, 50000, 5, 1)
	snap := mustSnapshot(b, rel, 0)
	rng := rand.New(rand.NewSource(2))
	gen, err := query.NewGenerator(rel.Schema, 3, 0.1, rng)
	if err != nil {
		b.Fatal(err)
	}
	qs := make([]query.Query, 256)
	for i := range qs {
		qs[i] = gen.Next()
	}
	var cells []query.Query
	for len(cells) < 1024 {
		q := gen.Next()
		var free []int
		for d := range rel.Schema.QI {
			if !slices.Contains(q.Dims, d) {
				free = append(free, d)
			}
		}
		d := free[rng.Intn(len(free))]
		q.Agg, q.GroupBy = query.AggSum, []int{d}
		maxCells := 16
		if a := rel.Schema.QI[d]; a.Kind == microdata.Categorical {
			maxCells = min(maxCells, a.Hierarchy.NumLeaves())
		}
		q.GroupBuckets = []int{2 + rng.Intn(maxCells-1)}
		for _, c := range query.GroupCells(rel.Schema, q) {
			cells = append(cells, c.Query)
		}
	}
	b.Run("rowscan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := query.EstimatePerturbed(rel.Perturbed, rel.Scheme, qs[i%len(qs)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, sub := range []struct {
		name  string
		units []query.Query
	}{{"blocks", qs}, {"cells", cells}} {
		b.Run(sub.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := snap.EstimateUnchecked(sub.units[i%len(sub.units)], nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
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
