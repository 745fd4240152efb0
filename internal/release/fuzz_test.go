package release

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/anon"
	"repro/internal/hierarchy"
	"repro/internal/microdata"
	"repro/internal/query"
)

// FuzzEstimateEquivalence differentially fuzzes the two generalized-release
// estimators: for random schemas, tables, partitions, and queries, the
// grid-indexed ECIndex.Estimate must give exactly the bits of the linear
// scan of query.EstimateGeneralized, for every aggregate. The index adds
// its candidates' terms in ascending EC index, the order the linear scan
// walks, and forms each term as query.OverlapFraction does, so even
// COUNT, SUM and AVG, whose float sums depend on order, must agree to the
// last bit. The two implementations share no SA range code — the linear
// scan folds each EC's counts, the index reads the column store's prefix
// arenas — so a bug in the bitset directory, the candidate AND (λ>2
// queries below fold three or more predicates), the per-EC term, the
// prefix sums, or the SA-only prefix-sum path surfaces as a divergence.
func FuzzEstimateEquivalence(f *testing.F) {
	// Seed corpus spanning the structural knobs: dimension counts, mixes
	// of numeric/categorical attributes, point boxes, tiny and larger
	// tables, explicit grid resolutions, and SA-only query shapes.
	f.Add(int64(1), uint8(1), uint8(8), uint8(4), uint8(0))
	f.Add(int64(2), uint8(2), uint8(40), uint8(8), uint8(0))
	f.Add(int64(3), uint8(3), uint8(96), uint8(16), uint8(64))
	f.Add(int64(4), uint8(4), uint8(128), uint8(32), uint8(3))
	f.Add(int64(-7), uint8(2), uint8(17), uint8(1), uint8(255))
	f.Add(int64(99), uint8(3), uint8(64), uint8(31), uint8(16))

	f.Fuzz(func(t *testing.T, seed int64, dimByte, rowByte, ecByte, gridByte uint8) {
		rng := rand.New(rand.NewSource(seed))
		nd := 1 + int(dimByte)%4
		nRows := 4 + int(rowByte)%125
		nECs := 1 + int(ecByte)%32
		if nECs > nRows {
			nECs = nRows
		}
		gridCells := int(gridByte) // 0 = auto resolution

		schema := fuzzSchema(nd, rng)
		tab := fuzzTable(schema, nRows, rng)
		part := fuzzPartition(tab, nECs, rng)
		pub := part.Publish()
		ix := indexECs(t, schema, pub, gridCells)

		aggs := []query.Aggregate{query.AggCount, query.AggSum, query.AggAvg, query.AggMin, query.AggMax}
		check := func(q query.Query, origin string) {
			t.Helper()
			for _, agg := range aggs {
				q.Agg = agg
				want := query.EstimateGeneralized(schema, pub, q)
				got := ix.Estimate(q)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s query %+v agg=%q: indexed %v != linear %v (schema %d dims, %d ECs, grid %d)",
						origin, q, agg, got, want, nd, nECs, gridCells)
				}
			}
		}

		// Workload-shaped queries across λ, including λ=0 (SA-only).
		for lambda := 0; lambda <= nd; lambda++ {
			theta := 0.01 + 0.6*rng.Float64()
			gen, err := query.NewGenerator(schema, lambda, theta, rng)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 4; i++ {
				check(gen.Next(), "generated")
			}
		}

		// Adversarial queries whose bounds coincide exactly with published
		// box edges: grazing contact, point ranges, and full containment —
		// the branches random floats almost never hit.
		for i := 0; i < 8 && len(pub) > 0; i++ {
			ec := &pub[rng.Intn(len(pub))]
			d := rng.Intn(nd)
			lo, hi := ec.Box.Lo[d], ec.Box.Hi[d]
			var qlo, qhi float64
			switch rng.Intn(4) {
			case 0: // graze the upper edge
				qlo, qhi = hi, hi+1
			case 1: // graze the lower edge
				qlo, qhi = lo-1, lo
			case 2: // exact box range
				qlo, qhi = lo, hi
			default: // strict containment
				qlo, qhi = lo-1, hi+1
			}
			if qlo > qhi {
				qlo, qhi = qhi, qlo
			}
			if schema.QI[d].Kind == microdata.Categorical {
				qlo, qhi = math.Trunc(qlo), math.Trunc(qhi)
			}
			m := len(schema.SA.Values)
			salo := rng.Intn(m)
			check(query.Query{
				Dims: []int{d}, Lo: []float64{qlo}, Hi: []float64{qhi},
				SALo: salo, SAHi: salo + rng.Intn(m-salo),
			}, "edge")
		}

		// λ=nd queries with one predicate per dimension, bounds snapped to
		// a random EC's box edges: with nd ≥ 3 these AND three or more
		// predicates' bitsets, with edge coincidences random floats almost
		// never produce.
		for i := 0; i < 4 && len(pub) > 0 && nd >= 2; i++ {
			ec := &pub[rng.Intn(len(pub))]
			q := query.Query{SAHi: len(schema.SA.Values) - 1}
			for d := 0; d < nd; d++ {
				lo, hi := ec.Box.Lo[d], ec.Box.Hi[d]
				switch rng.Intn(3) {
				case 0: // strict containment
					lo, hi = lo-1, hi+1
				case 1: // point range at the lower edge
					hi = lo
				}
				if schema.QI[d].Kind == microdata.Categorical {
					lo, hi = math.Trunc(lo), math.Trunc(hi)
					if hi < lo {
						hi = lo
					}
				}
				q.Dims = append(q.Dims, d)
				q.Lo = append(q.Lo, lo)
				q.Hi = append(q.Hi, hi)
			}
			check(q, "all-dims")
		}
	})
}

// FuzzPerturbedBlocks differentially fuzzes the perturbed block path
// against the row scan it replaces: for random schemas, tables of
// 4–3,000 rows (several blocks and superblocks, and a partial last block
// and superblock) and queries, both the owner-built and the decoded
// snapshot must answer every aggregate with exactly the bits of
// query.EstimatePerturbed over the method's own table, and report the
// block census a brute-force classification gives. perfbench's referee
// recomputes served answers through the block path itself, so this is
// the check that catches a skipping bug. Queries snap their bounds to
// block and superblock zone maps and to single tuple values, to reach the
// inside, disjoint and grazing branches random floats miss.
func FuzzPerturbedBlocks(f *testing.F) {
	f.Add(int64(1), uint8(1), uint16(8), uint8(4))
	f.Add(int64(2), uint8(2), uint16(130), uint8(2))
	f.Add(int64(3), uint8(3), uint16(600), uint8(4))
	f.Add(int64(4), uint8(4), uint16(257), uint8(8))
	f.Add(int64(-7), uint8(2), uint16(64), uint8(1))
	f.Add(int64(5), uint8(3), uint16(1030), uint8(3))
	f.Add(int64(6), uint8(4), uint16(2044), uint8(5))
	f.Add(int64(8), uint8(2), uint16(2996), uint8(2))

	f.Fuzz(func(t *testing.T, seed int64, dimByte uint8, rowWord uint16, betaByte uint8) {
		rng := rand.New(rand.NewSource(seed))
		nd := 1 + int(dimByte)%4
		nRows := 4 + int(rowWord)%2997
		schema := fuzzSchema(nd, rng)
		tab := fuzzTable(schema, nRows, rng)
		params := anon.NewPerturbParams(anon.PerturbBeta(1+float64(betaByte%8)), anon.PerturbSeed(seed))
		rel, err := anon.Anonymize(context.Background(), tab, params)
		if err != nil {
			return // a table perturb.NewScheme cannot calibrate
		}
		owner, err := NewSnapshot(rel, 0)
		if err != nil {
			t.Fatal(err)
		}
		data, err := EncodeSnapshot(owner, Spec{Method: anon.MethodPerturb, Params: params})
		if err != nil {
			t.Fatal(err)
		}
		decoded, _, err := DecodeSnapshot(data)
		if err != nil {
			t.Fatal(err)
		}

		aggs := []query.Aggregate{query.AggCount, query.AggSum, query.AggAvg, query.AggMin, query.AggMax}
		check := func(q query.Query, origin string) {
			t.Helper()
			for _, agg := range aggs {
				q.Agg = agg
				want, err := query.EstimatePerturbed(rel.Perturbed, rel.Scheme, q)
				if err != nil {
					t.Fatal(err)
				}
				for name, snap := range map[string]*Snapshot{"owner": owner, "decoded": decoded} {
					got, err := snap.Estimate(q)
					if err != nil {
						t.Fatalf("%s query %+v: %v", origin, q, err)
					}
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s %s query %+v: blocks %v != row scan %v (%d dims, %d rows)",
							name, origin, q, got, want, nd, nRows)
					}
				}
			}
			want := blockCensus(owner.Tuples, q)
			for name, snap := range map[string]*Snapshot{"owner": owner, "decoded": decoded} {
				if got := snap.Tuples.Blocks(q); got != want {
					t.Fatalf("%s %s query %+v: census %+v, brute force %+v (%d dims, %d rows)",
						name, origin, q, got, want, nd, nRows)
				}
			}
		}
		// bounds makes a valid predicate bound pair from raw values.
		bounds := func(d int, lo, hi float64) (float64, float64) {
			if schema.QI[d].Kind == microdata.Categorical {
				lo, hi = math.Trunc(lo), math.Trunc(hi)
			}
			if lo > hi {
				lo, hi = hi, lo
			}
			return lo, hi
		}
		saRange := func() (int, int) {
			m := len(schema.SA.Values)
			lo := rng.Intn(m)
			return lo, lo + rng.Intn(m-lo)
		}

		for lambda := 0; lambda <= nd; lambda++ {
			gen, err := query.NewGenerator(schema, lambda, 0.01+0.6*rng.Float64(), rng)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 4; i++ {
				check(gen.Next(), "generated")
			}
		}

		// Bounds on a block's or a superblock's zone map: its exact extent
		// (inside), an edge point, a range grazing either edge, and a range
		// just past it.
		tb := owner.Tuples
		for i := 0; i < 16; i++ {
			z := &tb.blocks
			if i%2 == 1 {
				z = &tb.supers
			}
			u := rng.Intn(len(z.lo) / nd)
			q := query.Query{}
			q.SALo, q.SAHi = saRange()
			for d := 0; d < nd; d++ {
				if rng.Intn(2) == 0 && d != nd-1 {
					continue
				}
				zlo, zhi := z.lo[u*nd+d], z.hi[u*nd+d]
				var lo, hi float64
				switch rng.Intn(6) {
				case 0:
					lo, hi = zlo, zhi
				case 1:
					lo, hi = zlo, zlo
				case 2:
					lo, hi = zhi, zhi+1
				case 3:
					lo, hi = zlo-1, zlo
				case 4:
					lo, hi = zhi+1, zhi+2
				default:
					lo, hi = zlo+0.5*(zhi-zlo), zhi+1
				}
				lo, hi = bounds(d, lo, hi)
				q.Dims = append(q.Dims, d)
				q.Lo = append(q.Lo, lo)
				q.Hi = append(q.Hi, hi)
			}
			check(q, "zone")
		}

		// Point and one-sided bounds on single tuple values.
		for i := 0; i < 8; i++ {
			tp := rel.Perturbed.Tuples[rng.Intn(rel.Perturbed.Len())]
			q := query.Query{}
			q.SALo, q.SAHi = saRange()
			for d := 0; d < nd; d++ {
				if rng.Intn(2) == 0 {
					continue
				}
				v := tp.QI[d]
				lo, hi := v, v
				switch rng.Intn(3) {
				case 1:
					lo = v - 3
				case 2:
					hi = v + 3
				}
				lo, hi = bounds(d, lo, hi)
				q.Dims = append(q.Dims, d)
				q.Lo = append(q.Lo, lo)
				q.Hi = append(q.Hi, hi)
			}
			check(q, "tuple")
		}
	})
}

// fuzzSchema builds a random schema of nd QI attributes — a mix of
// numeric domains and flat categorical hierarchies — plus a small SA.
func fuzzSchema(nd int, rng *rand.Rand) *microdata.Schema {
	qi := make([]microdata.Attribute, nd)
	for d := range qi {
		name := fmt.Sprintf("q%d", d)
		if rng.Intn(2) == 0 {
			lo := float64(rng.Intn(100))
			qi[d] = microdata.NumericAttr(name, lo, lo+1+float64(rng.Intn(500)))
		} else {
			leaves := make([]string, 2+rng.Intn(12))
			for i := range leaves {
				leaves[i] = fmt.Sprintf("q%d v%d", d, i)
			}
			qi[d] = microdata.CategoricalAttr(name, hierarchy.Flat(name+" root", leaves...))
		}
	}
	m := 2 + rng.Intn(8)
	values := make([]string, m)
	for i := range values {
		values[i] = fmt.Sprintf("sa%d", i)
	}
	return &microdata.Schema{QI: qi, SA: microdata.SensitiveAttr{Name: "sa", Values: values}}
}

// fuzzTable fills n tuples with in-domain values; numeric coordinates are
// integer-snapped half the time so point boxes and exact-edge overlaps
// occur.
func fuzzTable(schema *microdata.Schema, n int, rng *rand.Rand) *microdata.Table {
	tab := &microdata.Table{Schema: schema}
	for i := 0; i < n; i++ {
		tp := microdata.Tuple{QI: make([]float64, len(schema.QI)), SA: rng.Intn(len(schema.SA.Values))}
		for d, a := range schema.QI {
			if a.Kind == microdata.Numeric {
				v := a.Min + rng.Float64()*(a.Max-a.Min)
				if rng.Intn(2) == 0 {
					v = math.Round(v)
				}
				tp.QI[d] = v
			} else {
				tp.QI[d] = float64(rng.Intn(a.Hierarchy.NumLeaves()))
			}
		}
		tab.Tuples = append(tab.Tuples, tp)
	}
	return tab
}

// fuzzPartition splits the table's rows into k non-empty ECs at random.
func fuzzPartition(tab *microdata.Table, k int, rng *rand.Rand) *microdata.Partition {
	rows := rng.Perm(tab.Len())
	ecs := make([]microdata.EC, k)
	for i := 0; i < k; i++ { // one row each so no EC is empty
		ecs[i].Rows = append(ecs[i].Rows, rows[i])
	}
	for _, r := range rows[k:] {
		g := rng.Intn(k)
		ecs[g].Rows = append(ecs[g].Rows, r)
	}
	return &microdata.Partition{Table: tab, ECs: ecs}
}
