package hilbert

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	cases := []struct {
		dims, bits int
		ok         bool
	}{
		{1, 1, true},
		{2, 16, true},
		{5, 12, true},  // 60 bits
		{5, 13, false}, // 65 bits
		{0, 4, false},
		{2, 0, false},
		{2, 33, false},
		{63, 1, true},
		{64, 1, false},
	}
	for _, c := range cases {
		_, err := New(c.dims, c.bits)
		if (err == nil) != c.ok {
			t.Errorf("New(%d,%d): err=%v, want ok=%v", c.dims, c.bits, err, c.ok)
		}
	}
}

// TestOrder1D: in one dimension the Hilbert curve is the identity.
func TestOrder1D(t *testing.T) {
	c := mustNew(1, 4)
	for v := uint32(0); v < 16; v++ {
		if got := c.Encode([]uint32{v}); got != uint64(v) {
			t.Fatalf("Encode([%d]) = %d", v, got)
		}
	}
}

// TestKnown2D checks the first-order 2-D curve: the four cells are visited
// in the classic (0,0) → (0,1) → (1,1) → (1,0) U-shape (x, y order per
// Skilling's convention).
func TestKnown2D(t *testing.T) {
	c := mustNew(2, 1)
	seen := make(map[uint64][]uint32)
	for x := uint32(0); x < 2; x++ {
		for y := uint32(0); y < 2; y++ {
			h := c.Encode([]uint32{x, y})
			if h > 3 {
				t.Fatalf("index %d out of range", h)
			}
			seen[h] = []uint32{x, y}
		}
	}
	if len(seen) != 4 {
		t.Fatalf("indices not distinct: %v", seen)
	}
	// Consecutive curve positions must be grid neighbours.
	for h := uint64(0); h < 3; h++ {
		a, b := seen[h], seen[h+1]
		d := absDiff(a[0], b[0]) + absDiff(a[1], b[1])
		if d != 1 {
			t.Errorf("positions %d and %d not adjacent: %v %v", h, h+1, a, b)
		}
	}
}

func absDiff(a, b uint32) uint32 {
	if a > b {
		return a - b
	}
	return b - a
}

// TestRoundTrip: Decode(Encode(x)) == x over exhaustive small grids.
func TestRoundTrip(t *testing.T) {
	for _, cfg := range []struct{ dims, bits int }{{2, 3}, {3, 2}, {4, 2}, {5, 2}} {
		c := mustNew(cfg.dims, cfg.bits)
		n := uint64(1) << uint(cfg.dims*cfg.bits)
		for h := uint64(0); h < n; h++ {
			x := c.Decode(h)
			if got := c.Encode(x); got != h {
				t.Fatalf("dims=%d bits=%d: Encode(Decode(%d)) = %d", cfg.dims, cfg.bits, h, got)
			}
		}
	}
}

// TestBijection: all indices of an exhaustive grid are distinct and cover
// the full range (Hilbert curve is a bijection).
func TestBijection(t *testing.T) {
	c := mustNew(3, 2)
	seen := make(map[uint64]bool)
	var rec func(coords []uint32, d int)
	rec = func(coords []uint32, d int) {
		if d == 3 {
			h := c.Encode(coords)
			if seen[h] {
				t.Fatalf("duplicate index %d for %v", h, coords)
			}
			seen[h] = true
			return
		}
		for v := uint32(0); v < 4; v++ {
			coords[d] = v
			rec(coords, d+1)
		}
	}
	rec(make([]uint32, 3), 0)
	if len(seen) != 64 {
		t.Fatalf("covered %d of 64 indices", len(seen))
	}
}

// TestAdjacency: consecutive curve positions differ by exactly 1 in exactly
// one coordinate — the defining locality property of the Hilbert curve.
func TestAdjacency(t *testing.T) {
	for _, cfg := range []struct{ dims, bits int }{{2, 4}, {3, 3}} {
		c := mustNew(cfg.dims, cfg.bits)
		n := uint64(1) << uint(cfg.dims*cfg.bits)
		prev := c.Decode(0)
		for h := uint64(1); h < n; h++ {
			cur := c.Decode(h)
			diff := uint32(0)
			for i := range cur {
				diff += absDiff(cur[i], prev[i])
			}
			if diff != 1 {
				t.Fatalf("dims=%d bits=%d: steps %d→%d move %d cells (%v → %v)",
					cfg.dims, cfg.bits, h-1, h, diff, prev, cur)
			}
			prev = cur
		}
	}
}

// Property: round trip holds for random coordinates on larger grids.
func TestRoundTripProperty(t *testing.T) {
	c := mustNew(5, 12)
	f := func(a, b, x, y, z uint32) bool {
		coords := []uint32{a % 4096, b % 4096, x % 4096, y % 4096, z % 4096}
		dec := c.Decode(c.Encode(coords))
		for i := range coords {
			if dec[i] != coords[i] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(5))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestEncodePanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Encode with wrong dims did not panic")
		}
	}()
	mustNew(2, 4).Encode([]uint32{1})
}

// mustNew is New for the tests' fixed, valid shapes.
func mustNew(dims, bits int) *Curve {
	c, err := New(dims, bits)
	if err != nil {
		panic(err)
	}
	return c
}

// index is IndexInto with a fresh buffer.
func index(m *Mapper, point []float64) uint64 {
	return m.IndexInto(point, make([]uint32, len(point)))
}

func TestMapper(t *testing.T) {
	m, err := NewMapper([]float64{0, 0}, []float64{10, 10}, 8, 63)
	if err != nil {
		t.Fatalf("NewMapper: %v", err)
	}
	// Clamping: outside points map like boundary points.
	if index(m, []float64{-5, 0}) != index(m, []float64{0, 0}) {
		t.Error("low clamp failed")
	}
	if index(m, []float64{15, 10}) != index(m, []float64{10, 10}) {
		t.Error("high clamp failed")
	}
	// Nearby points get nearby (often equal) grid cells: same corner maps
	// to same index.
	if index(m, []float64{3, 3}) != index(m, []float64{3.0000001, 3}) {
		t.Error("tiny perturbation changed cell")
	}
	// Degenerate dimension is tolerated.
	dm, err := NewMapper([]float64{0, 5}, []float64{10, 5}, 4, 63)
	if err != nil {
		t.Fatalf("degenerate NewMapper: %v", err)
	}
	_ = index(dm, []float64{3, 5})

	if _, err := NewMapper([]float64{0}, []float64{1, 2}, 8, 63); err == nil {
		t.Error("dims mismatch accepted")
	}
}

// TestMapperBits pins NewMapper's resolution rule: min(maxBits, 32,
// keyBits/d) bits per dimension with keyBits capped at 63, DefaultBits
// for maxBits ≤ 0, and an error rather than a panic where no curve fits.
func TestMapperBits(t *testing.T) {
	box := func(d int) ([]float64, []float64) { return make([]float64, d), make([]float64, d) }
	for _, c := range []struct {
		d, maxBits, keyBits, want int // want 0: NewMapper fails
	}{
		{3, 0, 63, DefaultBits},
		{3, -1, 63, DefaultBits},
		{5, 10, 63, 10},
		{5, 20, 63, 12},
		{5, 10, 49, 9}, // the EC layout past 2^14 ECs
		{5, 4, 63, 4},
		{7, 10, 63, 9},
		{1, 40, 63, 32}, // the bits a SABRE spec may ask for
		{1, 63, 63, 32},
		{2, 40, 63, 31},
		{2, 40, 64, 31},
		{63, 10, 63, 1},
		{64, 10, 63, 0},
		{5, 10, 4, 0},
		{0, 10, 63, 0},
	} {
		lo, hi := box(c.d)
		m, err := NewMapper(lo, hi, c.maxBits, c.keyBits)
		switch {
		case c.want == 0 && err == nil:
			t.Errorf("NewMapper(d=%d, %d, %d) = %d bits, want an error", c.d, c.maxBits, c.keyBits, m.Curve.Bits())
		case c.want != 0 && err != nil:
			t.Errorf("NewMapper(d=%d, %d, %d): %v", c.d, c.maxBits, c.keyBits, err)
		case c.want != 0 && m.Curve.Bits() != c.want:
			t.Errorf("NewMapper(d=%d, %d, %d) = %d bits, want %d", c.d, c.maxBits, c.keyBits, m.Curve.Bits(), c.want)
		}
	}
}

// TestOrderMatchesStableSort holds Order to slices.SortStableFunc over
// the positions by key, on random keys with many ties (a few distinct
// values, so most positions hinge on the tiebreak) and on full 63-bit
// keys (every radix pass in play), at lengths around the pass widths.
func TestOrderMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, keyBits := range []int{0, 2, 9, 63} {
		for _, n := range []int{0, 1, 2, 3, 255, 256, 257, 5000} {
			keys := make([]uint64, n)
			for i := range keys {
				keys[i] = rng.Uint64() >> (64 - keyBits)
			}
			want := make([]int32, n)
			for i := range want {
				want[i] = int32(i)
			}
			slices.SortStableFunc(want, func(a, b int32) int { return cmp.Compare(keys[a], keys[b]) })
			if got := Order(keys); !slices.Equal(got, want) {
				t.Fatalf("%d keys of %d bits: Order differs from the stable sort", n, keyBits)
			}
		}
	}
}

// TestMapperLocality: points close in space should have closer curve
// indices, on average, than far-apart points — the property BUREL relies
// on. Verified statistically over random pairs.
func TestMapperLocality(t *testing.T) {
	m, _ := NewMapper([]float64{0, 0}, []float64{1, 1}, 10, 63)
	rng := rand.New(rand.NewSource(9))
	var sumNear, sumFar float64
	const trials = 2000
	for i := 0; i < trials; i++ {
		x, y := rng.Float64(), rng.Float64()
		nearX := clamp01(x + (rng.Float64()-0.5)*0.01)
		nearY := clamp01(y + (rng.Float64()-0.5)*0.01)
		farX, farY := rng.Float64(), rng.Float64()
		h := index(m, []float64{x, y})
		sumNear += absU64(h, index(m, []float64{nearX, nearY}))
		sumFar += absU64(h, index(m, []float64{farX, farY}))
	}
	if sumNear >= sumFar/4 {
		t.Errorf("locality too weak: near avg %v vs far avg %v", sumNear/trials, sumFar/trials)
	}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

func absU64(a, b uint64) float64 {
	if a > b {
		return float64(a - b)
	}
	return float64(b - a)
}
