package query

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/anatomy"
	"repro/internal/burel"
	"repro/internal/census"
	"repro/internal/microdata"
	"repro/internal/perturb"
)

func sample(t *testing.T, n, qi int) *microdata.Table {
	t.Helper()
	return census.Generate(census.Options{N: n, Seed: 42}).Project(qi)
}

func TestGeneratorValidation(t *testing.T) {
	tab := sample(t, 100, 3)
	rng := rand.New(rand.NewSource(1))
	if _, err := NewGenerator(tab.Schema, 9, 0.1, rng); err == nil {
		t.Error("λ > QI accepted")
	}
	if _, err := NewGenerator(tab.Schema, -1, 0.1, rng); err == nil {
		t.Error("λ < 0 accepted")
	}
	if _, err := NewGenerator(tab.Schema, 2, 0, rng); err == nil {
		t.Error("θ = 0 accepted")
	}
	if _, err := NewGenerator(tab.Schema, 2, 1, rng); err == nil {
		t.Error("θ = 1 accepted")
	}
}

// TestValidateNonFinite: NaN and ±Inf bounds must be rejected. This is a
// regression guard: NaN passes the lo > hi ordering check (every
// comparison against NaN is false) and ±Inf passes every ordering check,
// so before the explicit finiteness gate either reached the grid index's
// float→int cell math and came back as a NaN estimate — which the result
// cache then served to every later caller of the same query.
func TestValidateNonFinite(t *testing.T) {
	tab := sample(t, 100, 3)
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name   string
		lo, hi float64
	}{
		{"NaN lo", nan, 50},
		{"NaN hi", 20, nan},
		{"NaN both", nan, nan},
		{"+Inf hi", 20, inf},
		{"-Inf lo", -inf, 50},
		{"Inf both", -inf, inf},
	}
	for _, c := range cases {
		q := Query{Dims: []int{0}, Lo: []float64{c.lo}, Hi: []float64{c.hi}, SALo: 0, SAHi: 1}
		if err := Validate(tab.Schema, q); err == nil {
			t.Errorf("%s: accepted bounds [%v,%v]", c.name, c.lo, c.hi)
		}
	}
	// The finite twin of the same query is fine.
	q := Query{Dims: []int{0}, Lo: []float64{20}, Hi: []float64{50}, SALo: 0, SAHi: 1}
	if err := Validate(tab.Schema, q); err != nil {
		t.Errorf("finite bounds rejected: %v", err)
	}
}

// TestQueryShape: generated queries have λ distinct predicate dimensions,
// ranges inside the attribute domains, and an SA range of the right length.
func TestQueryShape(t *testing.T) {
	tab := sample(t, 100, 5)
	rng := rand.New(rand.NewSource(2))
	g, err := NewGenerator(tab.Schema, 3, 0.1, rng)
	if err != nil {
		t.Fatal(err)
	}
	frac := math.Pow(0.1, 1.0/4)
	for i := 0; i < 200; i++ {
		q := g.Next()
		if len(q.Dims) != 3 {
			t.Fatalf("λ = %d", len(q.Dims))
		}
		seen := map[int]bool{}
		for k, d := range q.Dims {
			if seen[d] {
				t.Fatal("duplicate predicate dimension")
			}
			seen[d] = true
			a := tab.Schema.QI[d]
			if a.Kind == microdata.Numeric {
				if q.Lo[k] < a.Min-1e-9 || q.Hi[k] > a.Max+1e-9 {
					t.Fatalf("range [%v,%v] outside domain", q.Lo[k], q.Hi[k])
				}
				wantLen := (a.Max - a.Min) * frac
				if math.Abs((q.Hi[k]-q.Lo[k])-wantLen) > 1e-6 {
					t.Fatalf("range length %v, want %v", q.Hi[k]-q.Lo[k], wantLen)
				}
			} else {
				if q.Lo[k] < 0 || q.Hi[k] > float64(a.Hierarchy.NumLeaves()-1) {
					t.Fatal("categorical range outside domain")
				}
			}
		}
		if q.SALo < 0 || q.SAHi >= len(tab.Schema.SA.Values) || q.SALo > q.SAHi {
			t.Fatalf("SA range [%d,%d]", q.SALo, q.SAHi)
		}
	}
}

// TestSelectivityApproximatesTheta: the empirical mean selectivity of
// generated queries should be near θ on near-uniform data dimensions.
func TestSelectivityApproximatesTheta(t *testing.T) {
	tab := sample(t, 20000, 3)
	rng := rand.New(rand.NewSource(3))
	g, err := NewGenerator(tab.Schema, 2, 0.1, rng)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	const n = 300
	for i := 0; i < n; i++ {
		q := g.Next()
		sum += float64(Exact(tab, q)) / float64(tab.Len())
	}
	mean := sum / n
	// Real data is not uniform, so allow a broad factor-of-3 band.
	if mean < 0.1/3 || mean > 0.1*3 {
		t.Errorf("mean selectivity %v far from θ=0.1", mean)
	}
}

// TestEstimateGeneralizedExactOnSingletonECs: with one tuple per EC the
// intersection estimator degenerates to exact counting.
func TestEstimateGeneralizedExactOnSingletonECs(t *testing.T) {
	tab := sample(t, 500, 3)
	p := &microdata.Partition{Table: tab}
	for i := 0; i < tab.Len(); i++ {
		p.ECs = append(p.ECs, microdata.EC{Rows: []int{i}})
	}
	pub := p.Publish()
	rng := rand.New(rand.NewSource(5))
	g, _ := NewGenerator(tab.Schema, 2, 0.15, rng)
	for i := 0; i < 100; i++ {
		q := g.Next()
		prec := float64(Exact(tab, q))
		est := EstimateGeneralized(tab.Schema, pub, q)
		if math.Abs(est-prec) > 1e-6 {
			t.Fatalf("singleton ECs: est %v ≠ exact %v", est, prec)
		}
	}
}

// TestEstimateGeneralizedMassConservation: a query covering the whole space
// is answered exactly — the estimator conserves total mass.
func TestEstimateGeneralizedMassConservation(t *testing.T) {
	tab := sample(t, 5000, 3)
	res, err := burel.Anonymize(tab, burel.Options{Beta: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	pub := res.Partition.Publish()
	full := Query{SALo: 0, SAHi: len(tab.Schema.SA.Values) - 1}
	est := EstimateGeneralized(tab.Schema, pub, full)
	if math.Abs(est-float64(tab.Len())) > 1e-6 {
		t.Fatalf("full-space estimate %v ≠ %d", est, tab.Len())
	}
}

// TestSARange pins the reference estimators' one SA fold: count, index
// sum and support bounds over in-domain, clamped, inverted and
// out-of-domain ranges, and ranges whose edges hold zero counts.
func TestSARange(t *testing.T) {
	counts := []int{3, 0, 5, 2, 7}
	for _, c := range []struct {
		lo, hi, n int
		wsum      int64
		min, max  int
	}{
		{0, 4, 17, 44, 0, 4},
		{1, 3, 7, 16, 2, 3},
		{2, 2, 5, 10, 2, 2},
		{4, 4, 7, 28, 4, 4},
		{1, 2, 5, 10, 2, 2},
		{1, 1, 0, 0, -1, -1},
		{-5, 10, 17, 44, 0, 4},
		{-5, 2, 8, 10, 0, 2},
		{3, 1, 0, 0, -1, -1},
		{5, 9, 0, 0, -1, -1},
		{-3, -1, 0, 0, -1, -1},
	} {
		n, wsum, lo, hi := saRange(counts, c.lo, c.hi)
		if n != c.n || wsum != c.wsum || lo != c.min || hi != c.max {
			t.Errorf("saRange [%d,%d] = (%d, %d, %d, %d), want (%d, %d, %d, %d)",
				c.lo, c.hi, n, wsum, lo, hi, c.n, c.wsum, c.min, c.max)
		}
	}
}

// TestMedianRelativeErrorGeneralized: BUREL's published output answers a
// workload with bounded median error, better than a single-EC publication.
func TestMedianRelativeErrorGeneralized(t *testing.T) {
	tab := sample(t, 20000, 3)
	res, err := burel.Anonymize(tab, burel.Options{Beta: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	pub := res.Partition.Publish()
	g, _ := NewGenerator(tab.Schema, 2, 0.1, rand.New(rand.NewSource(7)))
	med, n, err := MedianRelativeError(tab, g, func(q Query) (float64, error) {
		return EstimateGeneralized(tab.Schema, pub, q), nil
	}, 400)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("workload evaluated no queries")
	}
	if med > 1.0 {
		t.Errorf("median relative error %v unreasonably high", med)
	}

	// Whole-table-as-one-EC should do worse.
	one := &microdata.Partition{Table: tab, ECs: []microdata.EC{{Rows: allRows(tab.Len())}}}
	onePub := one.Publish()
	g2, _ := NewGenerator(tab.Schema, 2, 0.1, rand.New(rand.NewSource(7)))
	medOne, _, err := MedianRelativeError(tab, g2, func(q Query) (float64, error) {
		return EstimateGeneralized(tab.Schema, onePub, q), nil
	}, 400)
	if err != nil {
		t.Fatal(err)
	}
	if med >= medOne {
		t.Errorf("BUREL error %v not below single-EC error %v", med, medOne)
	}
}

// TestMedianRelativeErrorSum: a generator's Agg reaches every query it
// makes, and MedianRelativeError scores a SUM workload against ExactAgg
// exactly as a brute-force median over the same queries does.
func TestMedianRelativeErrorSum(t *testing.T) {
	tab := sample(t, 5000, 3)
	res, err := burel.Anonymize(tab, burel.Options{Beta: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	pub := res.Partition.Publish()
	est := func(q Query) (float64, error) {
		if q.Agg != AggSum {
			t.Fatalf("estimator got a %q query, want sum", q.Agg)
		}
		return EstimateGeneralized(tab.Schema, pub, q), nil
	}
	g, _ := NewGenerator(tab.Schema, 2, 0.1, rand.New(rand.NewSource(7)))
	g.Agg = AggSum
	med, n, err := MedianRelativeError(tab, g, est, 200)
	if err != nil {
		t.Fatal(err)
	}

	g, _ = NewGenerator(tab.Schema, 2, 0.1, rand.New(rand.NewSource(7)))
	var errs []float64
	for i := 0; i < 200; i++ {
		q := g.Next()
		q.Agg = AggSum
		exact := ExactAgg(tab, q)
		if exact == 0 {
			continue
		}
		e, _ := est(q)
		errs = append(errs, math.Abs(e-exact)/exact)
	}
	slices.Sort(errs)
	want := errs[len(errs)/2]
	if len(errs)%2 == 0 {
		want = (errs[len(errs)/2-1] + want) / 2
	}
	if n != len(errs) || math.Float64bits(med) != math.Float64bits(want) {
		t.Fatalf("MedianRelativeError = %v over %d queries, brute force %v over %d", med, n, want, len(errs))
	}
}

func allRows(n int) []int {
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	return rows
}

// TestPerturbedEstimatorBeatsBaseline reproduces the Fig. 9 headline: the
// reconstruction-based estimator outperforms the Anatomy-style Baseline,
// because it exploits the per-group observed SA counts while Baseline only
// knows the global distribution.
func TestPerturbedEstimatorBeatsBaseline(t *testing.T) {
	tab := sample(t, 30000, 3)
	scheme, err := perturb.NewScheme(tab, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	pert := scheme.Perturb(tab, rng)
	base := anatomy.Publish(tab, rng)

	gp, _ := NewGenerator(tab.Schema, 2, 0.15, rand.New(rand.NewSource(13)))
	medP, _, err := MedianRelativeError(tab, gp, func(q Query) (float64, error) {
		return EstimatePerturbed(pert, scheme, q)
	}, 300)
	if err != nil {
		t.Fatal(err)
	}
	gb, _ := NewGenerator(tab.Schema, 2, 0.15, rand.New(rand.NewSource(13)))
	medB, _, err := MedianRelativeError(tab, gb, func(q Query) (float64, error) {
		return EstimateBaseline(base, q)
	}, 300)
	if err != nil {
		t.Fatal(err)
	}
	if medP >= medB {
		t.Errorf("perturbed error %v not below baseline %v", medP, medB)
	}
}

func TestMatchesPredicates(t *testing.T) {
	q := Query{Dims: []int{0}, Lo: []float64{10}, Hi: []float64{20}, SALo: 1, SAHi: 2}
	in := microdata.Tuple{QI: []float64{15, 0, 0}, SA: 1}
	outQI := microdata.Tuple{QI: []float64{25, 0, 0}, SA: 1}
	outSA := microdata.Tuple{QI: []float64{15, 0, 0}, SA: 0}
	if !q.Matches(in) {
		t.Error("matching tuple rejected")
	}
	if q.Matches(outQI) {
		t.Error("QI-miss accepted")
	}
	if q.Matches(outSA) {
		t.Error("SA-miss accepted")
	}
	if !q.MatchesQI(outSA) {
		t.Error("MatchesQI should ignore SA")
	}
}

func TestMedianRelativeErrorDropsZeroPrec(t *testing.T) {
	tab := sample(t, 50, 3)
	// θ tiny: most queries select nothing and are dropped.
	g, _ := NewGenerator(tab.Schema, 3, 0.001, rand.New(rand.NewSource(17)))
	_, n, err := MedianRelativeError(tab, g, func(q Query) (float64, error) {
		return 0, nil
	}, 50)
	if err != nil {
		t.Fatal(err)
	}
	if n == 50 {
		t.Skip("all queries matched; data too dense for the zero-drop check")
	}
}

// TestOverlapFractionGrazing pins the grazing-contact semantics of
// overlapFraction: a query range that only touches the edge of a
// positive-width numeric box is a zero-measure intersection and counts as
// no overlap, exactly like a disjoint range. Point boxes (lo == hi) are
// the exception: edge contact there is full containment.
func TestOverlapFractionGrazing(t *testing.T) {
	schema := &microdata.Schema{
		QI: []microdata.Attribute{microdata.NumericAttr("x", 0, 100)},
		SA: microdata.SensitiveAttr{Name: "s", Values: []string{"a", "b"}},
	}
	box := microdata.Box{Lo: []float64{10}, Hi: []float64{20}}
	mk := func(lo, hi float64) Query {
		return Query{Dims: []int{0}, Lo: []float64{lo}, Hi: []float64{hi}}
	}
	cases := []struct {
		name string
		q    Query
		box  microdata.Box
		want float64
	}{
		{"disjoint below", mk(0, 5), box, 0},
		{"disjoint above", mk(25, 30), box, 0},
		{"grazing lower edge", mk(0, 10), box, 0},
		{"grazing upper edge", mk(20, 30), box, 0},
		{"half overlap", mk(15, 30), box, 0.5},
		{"containment", mk(0, 100), box, 1},
		{"point box inside", mk(10, 30), microdata.Box{Lo: []float64{15}, Hi: []float64{15}}, 1},
		{"point box on query edge", mk(15, 30), microdata.Box{Lo: []float64{15}, Hi: []float64{15}}, 1},
		{"point box outside", mk(20, 30), microdata.Box{Lo: []float64{15}, Hi: []float64{15}}, 0},
	}
	for _, tc := range cases {
		if got := OverlapFraction(schema, tc.box, tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: overlapFraction = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestCanonical: predicates come back ascending by dimension with their
// bounds, the input is left as it was, and a query already in order is
// returned without allocating.
func TestCanonical(t *testing.T) {
	q := Query{Dims: []int{3, 0, 2}, Lo: []float64{30, 0, 20}, Hi: []float64{31, 1, 21}, SALo: 1, SAHi: 2, Agg: AggSum, GroupBy: []int{4, 1}}
	c := Canonical(q)
	if !slices.Equal(c.Dims, []int{0, 2, 3}) || !slices.Equal(c.Lo, []float64{0, 20, 30}) || !slices.Equal(c.Hi, []float64{1, 21, 31}) {
		t.Fatalf("canonical predicates %v %v %v", c.Dims, c.Lo, c.Hi)
	}
	if c.SALo != 1 || c.SAHi != 2 || c.Agg != AggSum || !slices.Equal(c.GroupBy, []int{4, 1}) {
		t.Fatalf("canonical form changed more than the predicate order: %+v", c)
	}
	if !slices.Equal(q.Dims, []int{3, 0, 2}) || !slices.Equal(q.Lo, []float64{30, 0, 20}) {
		t.Fatalf("input mutated: %v %v", q.Dims, q.Lo)
	}
	if allocs := testing.AllocsPerRun(100, func() { c = Canonical(c) }); allocs != 0 {
		t.Fatalf("canonical query allocates %v times", allocs)
	}
}

// TestGroupCellsSlicesAreCapped: GroupCells carves every cell's slices
// from shared arrays, yet an append through one cell leaves its
// neighbour's predicates and keys as they were.
func TestGroupCellsSlicesAreCapped(t *testing.T) {
	schema := sample(t, 100, 3).Schema
	q := Query{Dims: []int{2}, Lo: []float64{0}, Hi: []float64{3}, SAHi: 1, GroupBy: []int{0, 1}, GroupBuckets: []int{3, 2}}
	cells := GroupCells(schema, q)
	if len(cells) < 2 {
		t.Fatalf("%d cells", len(cells))
	}
	next := cells[1]
	want := []any{slices.Clone(next.Lo), slices.Clone(next.Hi), slices.Clone(next.Query.Dims), slices.Clone(next.Query.Lo), slices.Clone(next.Query.Hi)}
	first := cells[0]
	_ = append(first.Lo, -1)
	_ = append(first.Hi, -1)
	_ = append(first.Query.Dims, -1)
	_ = append(first.Query.Lo, -1)
	_ = append(first.Query.Hi, -1)
	got := []any{next.Lo, next.Hi, next.Query.Dims, next.Query.Lo, next.Query.Hi}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("an append through cell 0 changed cell 1: %v, want %v", got[i], want[i])
		}
	}
}
