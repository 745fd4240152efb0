package release

import (
	"cmp"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/census"
	"repro/internal/hilbert"
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

// TestHilbertOrderKeyWidth pins the EC layout where the key's bit budget
// binds: past 2^14 ECs over 5 QI dimensions the position takes 15 of 64
// bits, leaving the key min(10, 49/5) = 9 bits per dimension. hilbertOrder
// must give the packed (key << idxBits | position) sort that layout was
// first served in, computed here from the curve itself; the 10-bit order
// differs, so a wider key would move published ECs.
func TestHilbertOrderKeyWidth(t *testing.T) {
	schema := census.Schema()
	d := len(schema.QI)
	n := 1<<14 + 1
	ecs := SyntheticECs(schema, n, rand.New(rand.NewSource(14)))
	for i := range ecs {
		ecs[i].Size = i // tags each EC with its input position
	}
	idxBits := bits.Len(uint(n - 1))
	keysAt := func(width int) []uint64 {
		curve, err := hilbert.New(d, width)
		if err != nil {
			t.Fatal(err)
		}
		keys := make([]uint64, n)
		coords := make([]uint32, d)
		for i := range ecs {
			for j, a := range schema.QI {
				lo, hi := a.Bounds()
				c := 0.5 * (ecs[i].Box.Lo[j] + ecs[i].Box.Hi[j])
				coords[j] = uint32((c - lo) * (float64(curve.Max()-1) / (hi - lo)))
			}
			keys[i] = curve.Encode(coords)
		}
		return keys
	}
	width := min(10, (64-idxBits)/d)
	packed := keysAt(width)
	for i := range packed {
		packed[i] = packed[i]<<idxBits | uint64(i)
	}
	slices.Sort(packed)
	want := make([]int, n)
	for i, k := range packed {
		want[i] = int(k & (1<<idxBits - 1))
	}

	got := slices.Clone(ecs)
	hilbertOrder(schema, got)
	for i := range got {
		if got[i].Size != want[i] {
			t.Fatalf("position %d holds EC %d, the packed %d-bit order puts EC %d there", i, got[i].Size, width, want[i])
		}
	}

	wide := keysAt(10)
	order10 := make([]int, n)
	for i := range order10 {
		order10[i] = i
	}
	slices.SortStableFunc(order10, func(a, b int) int { return cmp.Compare(wide[a], wide[b]) })
	if slices.Equal(order10, want) {
		t.Fatalf("the 10-bit order equals the %d-bit one: this release does not tell the widths apart", width)
	}
}
