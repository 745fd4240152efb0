package release

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/anon"
	"repro/internal/census"
	"repro/internal/microdata"
	"repro/internal/query"
)

// indexECs turns hand-built rows into an EC store the way NewSnapshot
// does — ordering the rows in place, so they stay the linear reference
// of the store's order — and indexes it.
func indexECs(t testing.TB, schema *microdata.Schema, ecs []microdata.PublishedEC, cellsPerDim int) *ECIndex {
	t.Helper()
	cols, err := ecColumns(schema, ecs)
	if err != nil {
		t.Fatal(err)
	}
	return BuildIndex(schema, cols, cellsPerDim)
}

// anonymized runs spec's method over tab and serves the result, returning
// the method's release too: NewSnapshot leaves its ECs in the order the
// snapshot serves, so it is the linear reference.
func anonymized(t testing.TB, tab *microdata.Table, spec Spec) (*anon.Release, *Snapshot) {
	t.Helper()
	rel, err := anon.Anonymize(context.Background(), tab, spec.Params)
	if err != nil {
		t.Fatal(err)
	}
	return rel, mustSnapshot(t, rel, spec.GridCells)
}

// TestIndexMatchesLinear: the indexed estimator must give the linear
// scan's bits on every query, across λ and θ shapes, including λ=0
// (SA-only).
func TestIndexMatchesLinear(t *testing.T) {
	schema := census.Schema().Project(3)
	rng := rand.New(rand.NewSource(7))
	ecs := SyntheticECs(schema, 2000, rng)
	ix := indexECs(t, schema, ecs, 0)

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
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("λ=%d θ=%v query %d: indexed %v != linear %v", shape.lambda, shape.theta, i, got, want)
			}
		}
	}
}

// TestIndexMatchesLinearOnBurel repeats the bit-equality check on a real
// BUREL release, whose boxes are correlated rather than uniform.
func TestIndexMatchesLinearOnBurel(t *testing.T) {
	tab := census.Generate(census.Options{N: 3000, Seed: 5}).Project(3)
	rel, snap := anonymized(t, tab, burelSpec(4, 1))
	rng := rand.New(rand.NewSource(11))
	gen, err := query.NewGenerator(tab.Schema, 2, 0.05, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		q := gen.Next()
		want := query.EstimateGeneralized(tab.Schema, rel.ECs, q)
		got, err := snap.Estimate(q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
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
	ix := indexECs(t, schema, ecs, 0)
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
	_, snap, err := Build(context.Background(), tab, burelSpec(4, 1))
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
// up the directory (the requested 4096 cells are capped at 64, so a
// dimension costs at most 16 B per EC plus one padding word per cell and
// set) nor break bit equality with the linear estimator.
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
			dlo, dhi := a.Bounds()
			w := (dhi - dlo) * (0.5 + 0.4*rng.Float64()) // 50-90% of the domain
			c := dlo + rng.Float64()*(dhi-dlo-w)
			lo[d], hi[d] = c, c+w
		}
		counts := make([]int, m)
		counts[rng.Intn(m)] = 3
		ecs[i] = microdata.PublishedEC{Box: microdata.Box{Lo: lo, Hi: hi}, SACounts: counts, Size: 3}
	}
	ix := indexECs(t, schema, ecs, MaxGridCells)
	for d := range ix.dims {
		g := &ix.dims[d]
		if bytes := 8 * (len(g.from) + len(g.to)); bytes > 16*(n+63) {
			t.Fatalf("dim %d directory holds %d B for %d ECs (%d cells); want ≤ 16 B per EC", d, bytes, n, g.n)
		}
	}
	gen, err := query.NewGenerator(schema, 2, 0.05, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		q := gen.Next()
		want := query.EstimateGeneralized(schema, ecs, q)
		if got := ix.Estimate(q); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("query %d: indexed %v != linear %v", i, got, want)
		}
	}
}

// TestIndexDirectoryBitsets checks every cell's two bitsets against the
// sets they stand for, computed EC by EC: from[c] must hold exactly the
// ECs whose box starts in a cell ≤ c, to[c] exactly those whose box ends
// in a cell ≥ c, and no set may carry a bit past the last EC. It runs on
// a BUREL release and on synthetic point, wide and cell-edge-aligned
// boxes, at EC counts that fill their last word and counts that do not.
func TestIndexDirectoryBitsets(t *testing.T) {
	schema := census.Schema().Project(3)
	tab := census.Generate(census.Options{N: 3000, Seed: 5}).Project(3)
	_, snap, err := Build(context.Background(), tab, burelSpec(4, 1))
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]*ECIndex{"burel": snap.Index}
	for _, n := range []int{1, 63, 64, 128, 200} {
		for _, shape := range []string{"point", "wide", "edge", "mixed"} {
			rng := rand.New(rand.NewSource(int64(n)))
			ecs := shapedECs(schema, shape, n, 32, rng)
			cases[fmt.Sprintf("%s/%d", shape, n)] = indexECs(t, schema, ecs, 32)
		}
	}
	for name, ix := range cases {
		n, w := ix.NumECs(), ix.words
		if w != (n+63)/64 {
			t.Fatalf("%s: %d words for %d ECs", name, w, n)
		}
		for d := range ix.dims {
			g := &ix.dims[d]
			if len(g.from) != g.n*w || len(g.to) != g.n*w {
				t.Fatalf("%s dim %d: sets of %d/%d words, want %d cells × %d", name, d, len(g.from), len(g.to), g.n, w)
			}
			for c := 0; c < g.n; c++ {
				from, to := g.from[c*w:(c+1)*w], g.to[c*w:(c+1)*w]
				for i := 0; i < w*64; i++ {
					inFrom := from[i>>6]&(1<<(i&63)) != 0
					inTo := to[i>>6]&(1<<(i&63)) != 0
					if i >= n {
						if inFrom || inTo {
							t.Fatalf("%s dim %d cell %d: padding bit %d set", name, d, c, i)
						}
						continue
					}
					c0, c1 := g.cell(ix.cols.Lo[d][i]), g.cell(ix.cols.Hi[d][i])
					if inFrom != (c0 <= c) {
						t.Fatalf("%s dim %d cell %d: EC %d (cells %d..%d) in from = %v", name, d, c, i, c0, c1, inFrom)
					}
					if inTo != (c1 >= c) {
						t.Fatalf("%s dim %d cell %d: EC %d (cells %d..%d) in to = %v", name, d, c, i, c0, c1, inTo)
					}
				}
			}
		}
	}
}

// shapedECs fabricates n ECs whose boxes are points, 50-90%-wide spans,
// or spans whose bounds sit exactly on the edges of a grid of the given
// cell count (the domain maximum included); "mixed" draws each EC's
// shape at random.
func shapedECs(schema *microdata.Schema, shape string, n, cells int, rng *rand.Rand) []microdata.PublishedEC {
	m := len(schema.SA.Values)
	shapes := []string{"point", "wide", "edge"}
	ecs := make([]microdata.PublishedEC, n)
	for i := range ecs {
		s := shape
		if s == "mixed" {
			s = shapes[rng.Intn(len(shapes))]
		}
		lo := make([]float64, len(schema.QI))
		hi := make([]float64, len(schema.QI))
		for d, a := range schema.QI {
			dlo, dhi := a.Bounds()
			switch s {
			case "point":
				v := dlo + rng.Float64()*(dhi-dlo)
				if a.Kind == microdata.Categorical {
					v = math.Round(v)
				}
				lo[d], hi[d] = v, v
			case "wide":
				w := (dhi - dlo) * (0.5 + 0.4*rng.Float64())
				c := dlo + rng.Float64()*(dhi-dlo-w)
				lo[d], hi[d] = c, c+w
			default:
				step := (dhi - dlo) / float64(cells)
				c0, c1 := rng.Intn(cells+1), rng.Intn(cells+1)
				if c0 > c1 {
					c0, c1 = c1, c0
				}
				lo[d], hi[d] = dlo+float64(c0)*step, dlo+float64(c1)*step
			}
		}
		size := 1 + rng.Intn(4)
		counts := make([]int, m)
		counts[rng.Intn(m)] = size
		ecs[i] = microdata.PublishedEC{Box: microdata.Box{Lo: lo, Hi: hi}, SACounts: counts, Size: size}
	}
	return ecs
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
	rel, snap := anonymized(t, tab, burelSpec(4, 1))
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
		linear, err := rel.Estimate(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, perm := range perms {
			p := permute(q, perm)
			if got, _ := snap.Estimate(p); math.Float64bits(got) != math.Float64bits(indexed) {
				t.Fatalf("query %d dims %v: Snapshot.Estimate %v, %v in order", i, p.Dims, got, indexed)
			}
			if got, _ := rel.Estimate(p); math.Float64bits(got) != math.Float64bits(linear) {
				t.Fatalf("query %d dims %v: anon.Release.Estimate %v, %v in order", i, p.Dims, got, linear)
			}
		}
	}
}
