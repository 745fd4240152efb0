package burel

import (
	"math/rand"
	"testing"

	"repro/internal/census"
	"repro/internal/hilbert"
	"repro/internal/likeness"
	"repro/internal/microdata"
)

// TestMaterializeSlabsCoverage: slabs cover every row exactly once and every
// emitted EC satisfies the per-value cap (up to the final remainder, which
// Anonymize repairs — here we call the low-level function directly and
// tolerate only the last EC).
func TestMaterializeSlabsCoverage(t *testing.T) {
	tab := census.Generate(census.Options{N: 10000, Seed: 3}).Project(3)
	model, err := likeness.NewModel(3, tab)
	if err != nil {
		t.Fatal(err)
	}
	leaves := []ECSizes{}
	for i := 0; i < 40; i++ {
		leaves = append(leaves, ECSizes{250})
	}
	ecs := MaterializeSlabs(tab, leaves, model.P, model.MaxFreq, 10)
	p := &microdata.Partition{Table: tab, ECs: ecs}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := range ecs {
		if i == len(ecs)-1 {
			continue // remainder EC may be non-compliant pre-repair
		}
		if !model.CheckCounts(ecs[i].SACounts(tab), ecs[i].Len()) {
			t.Fatalf("EC %d violates the model", i)
		}
	}
}

// TestMaterializeSlabsSegmentsAreContiguous: each EC is a contiguous run of
// the Hilbert order — its rows' curve keys form an interval disjoint from
// every other EC's.
func TestMaterializeSlabsContiguous(t *testing.T) {
	tab := census.Generate(census.Options{N: 5000, Seed: 5}).Project(2)
	model, err := likeness.NewModel(4, tab)
	if err != nil {
		t.Fatal(err)
	}
	var leaves []ECSizes
	for i := 0; i < 20; i++ {
		leaves = append(leaves, ECSizes{250})
	}
	ecs := MaterializeSlabs(tab, leaves, model.P, model.MaxFreq, 10)
	box := tab.Schema.Bounds()
	mapper, err := hilbert.NewMapper(box.Lo, box.Hi, 10, 63)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]uint32, len(box.Lo))
	type span struct{ lo, hi uint64 }
	var spans []span
	for i := range ecs {
		lo, hi := ^uint64(0), uint64(0)
		for _, r := range ecs[i].Rows {
			k := mapper.IndexInto(tab.Tuples[r].QI, buf)
			if k < lo {
				lo = k
			}
			if k > hi {
				hi = k
			}
		}
		spans = append(spans, span{lo, hi})
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].lo < spans[i-1].hi {
			// Equal keys may straddle a cut; only strict inversion
			// (overlap beyond shared keys) is an error.
			if spans[i].lo != spans[i-1].hi {
				t.Fatalf("EC %d span [%d,%d] overlaps EC %d span [%d,%d]",
					i, spans[i].lo, spans[i].hi, i-1, spans[i-1].lo, spans[i-1].hi)
			}
		}
	}
}

func TestMaterializeSlabsEmpty(t *testing.T) {
	tab := census.Generate(census.Options{N: 100, Seed: 1}).Project(2)
	model, _ := likeness.NewModel(2, tab)
	if got := MaterializeSlabs(tab, nil, model.P, model.MaxFreq, 10); got != nil {
		t.Fatalf("nil leaves gave %d ECs", len(got))
	}
	empty := microdata.NewTable(tab.Schema)
	if got := MaterializeSlabs(empty, []ECSizes{{10}}, model.P, model.MaxFreq, 10); got != nil {
		t.Fatalf("empty table gave %d ECs", len(got))
	}
}

func TestRepairMergeConverges(t *testing.T) {
	tab := census.Generate(census.Options{N: 2000, Seed: 9}).Project(2)
	// Build deliberately skewed ECs: group rows by SA parity so most ECs
	// violate the model.
	var a, b []int
	for r, tp := range tab.Tuples {
		if tp.SA%2 == 0 {
			a = append(a, r)
		} else {
			b = append(b, r)
		}
	}
	var ecs []microdata.EC
	for i := 0; i < len(a); i += 100 {
		j := i + 100
		if j > len(a) {
			j = len(a)
		}
		ecs = append(ecs, microdata.EC{Rows: a[i:j]})
	}
	for i := 0; i < len(b); i += 100 {
		j := i + 100
		if j > len(b) {
			j = len(b)
		}
		ecs = append(ecs, microdata.EC{Rows: b[i:j]})
	}
	model, err := likeness.NewModel(1, tab)
	if err != nil {
		t.Fatal(err)
	}
	ok := func(ec *microdata.EC) bool {
		return model.CheckCounts(ec.SACounts(tab), ec.Len())
	}
	repaired := RepairMerge(ecs, ok)
	for i := range repaired {
		if !ok(&repaired[i]) {
			t.Fatalf("EC %d still violates after repair", i)
		}
	}
	p := &microdata.Partition{Table: tab, ECs: repaired}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRepairMergeNoOpWhenCompliant(t *testing.T) {
	ecs := []microdata.EC{{Rows: []int{0}}, {Rows: []int{1}}, {Rows: []int{2}}}
	out := RepairMerge(ecs, func(*microdata.EC) bool { return true })
	if len(out) != 3 {
		t.Fatalf("compliant partition changed: %d ECs", len(out))
	}
}

func TestRepairMergeAlwaysFalseCollapses(t *testing.T) {
	ecs := []microdata.EC{{Rows: []int{0}}, {Rows: []int{1}}, {Rows: []int{2}}, {Rows: []int{3}}}
	out := RepairMerge(ecs, func(*microdata.EC) bool { return false })
	if len(out) != 1 {
		t.Fatalf("expected collapse to 1 EC, got %d", len(out))
	}
	if len(out[0].Rows) != 4 {
		t.Fatalf("rows lost: %d", len(out[0].Rows))
	}
}

// TestSlabsBeatLiteralRetrievalOnAIL documents the headline engineering
// result recorded in DESIGN.md: contiguous curve segments give materially
// better information quality than the literal random-seed retrieval, at
// equal privacy.
func TestSlabsBeatLiteralRetrievalOnAIL(t *testing.T) {
	tab := census.Generate(census.Options{N: 30000, Seed: 11}).Project(3)
	res, err := Anonymize(tab, Options{Beta: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	slabAIL := res.Partition.AIL()

	// Literal §4.5 retrieval over the same bucketization.
	model, _ := likeness.NewModel(4, tab)
	fDP := func(p float64) float64 { return model.MaxFreq(p) * (1 - defaultHeadroom) }
	sp, err := DPPartition(model.P, fDP)
	if err != nil {
		t.Fatal(err)
	}
	v2b := make([]int, len(model.P))
	for s := 0; s < sp.NumBuckets(); s++ {
		for _, v := range sp.Segment(s) {
			v2b[v] = s
		}
	}
	bucketRows := make([][]int, sp.NumBuckets())
	for r, tp := range tab.Tuples {
		bucketRows[v2b[tp.SA]] = append(bucketRows[v2b[tp.SA]], r)
	}
	sizes := make([]int, sp.NumBuckets())
	minF := make([]float64, sp.NumBuckets())
	for s := range sizes {
		sizes[s] = len(bucketRows[s])
		minF[s] = sp.MinFreq(s)
	}
	leaves := BiSplit(sizes, minF, model.MaxFreq)
	ret, err := NewRetriever(tab, bucketRows, 10)
	if err != nil {
		t.Fatal(err)
	}
	ecs := ret.MaterializeSeeded(leaves, rand.New(rand.NewSource(1)), RandomSeed)
	literal := &microdata.Partition{Table: tab, ECs: ecs}
	if err := literal.Validate(); err != nil {
		t.Fatal(err)
	}
	if ok, bad := model.CheckPartition(literal); !ok {
		t.Fatalf("literal retrieval EC %d violates the model", bad)
	}
	if slabAIL >= literal.AIL() {
		t.Errorf("slab AIL %v not below literal retrieval AIL %v", slabAIL, literal.AIL())
	}
}

// TestBoundNegative: with the §7 negative-gain extension enabled, every EC
// satisfies the symmetric floors too (every SA value is present at no less
// than p/(1+min{β,−ln p}) of its overall frequency).
func TestBoundNegative(t *testing.T) {
	tab := census.Generate(census.Options{N: 30000, Seed: 21}).Project(3)
	res, err := Anonymize(tab, Options{Beta: 4, Seed: 1, BoundNegative: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Partition.Validate(); err != nil {
		t.Fatal(err)
	}
	if !res.Model.BoundNegative {
		t.Fatal("model not configured with BoundNegative")
	}
	if ok, bad := res.Model.CheckPartition(res.Partition); !ok {
		q := res.Partition.ECs[bad].SADistribution(tab)
		t.Fatalf("EC %d violates the symmetric model (q=%v)", bad, q)
	}
	// Floors force every value into every EC: distinct ℓ = full domain.
	minL, _ := likeness.AchievedL(res.Partition)
	if minL != len(tab.Schema.SA.Values) {
		t.Errorf("minL = %d, want full domain %d", minL, len(tab.Schema.SA.Values))
	}
	// The symmetric variant cannot give more ECs than the plain one.
	plain, err := Anonymize(tab, Options{Beta: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Partition.ECs) > len(plain.Partition.ECs) {
		t.Errorf("symmetric variant produced more ECs (%d) than plain (%d)",
			len(res.Partition.ECs), len(plain.Partition.ECs))
	}
}
