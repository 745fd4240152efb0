package microdata

import (
	"fmt"
	"math"
)

// ECColumns is the serving store of a published EC set: per-dimension
// box bounds as flat float64 columns and the SA statistics as contiguous
// arenas. The row form ([]PublishedEC) is the anonymizers' output and the
// linear estimator's reference; the grid index and the snapshot codec
// work on the columns, so hot verification loops read sequential cache
// lines instead of chasing three pointers per EC.
//
// Arena layout: EC i's SA counts occupy SACounts[i*M : (i+1)*M]; its
// exclusive prefix sums occupy SAPrefix[i*(M+1) : (i+1)*(M+1)] (plain)
// and SAWPrefix (value-weighted, Σ_{u<v} u·counts[u]). ECColumns is
// immutable once its prefix sums are derived and safe for concurrent
// readers.
type ECColumns struct {
	N int // number of ECs
	D int // QI dimensions
	M int // SA domain size

	// Lo[d][i] / Hi[d][i] are EC i's box bounds in dimension d.
	Lo, Hi [][]float64

	// Sizes[i] is |EC i| (its published row count).
	Sizes []int32

	SACounts  []int32 // stride M
	SAPrefix  []int32 // stride M+1, exclusive prefix sums of SACounts
	SAWPrefix []int64 // stride M+1, value-weighted prefix sums
}

// NewECColumns allocates zeroed columns for n ECs over dims box
// dimensions and a saDomain-value SA domain, the bound columns carved
// from one arena. A caller fills Lo, Hi, Sizes and SACounts, then calls
// DerivePrefix.
func NewECColumns(n, dims, saDomain int) *ECColumns {
	c := &ECColumns{
		N:         n,
		D:         dims,
		M:         saDomain,
		Lo:        make([][]float64, dims),
		Hi:        make([][]float64, dims),
		Sizes:     make([]int32, n),
		SACounts:  make([]int32, n*saDomain),
		SAPrefix:  make([]int32, n*(saDomain+1)),
		SAWPrefix: make([]int64, n*(saDomain+1)),
	}
	arena := make([]float64, 2*n*dims)
	for d := 0; d < dims; d++ {
		c.Lo[d] = arena[d*n : (d+1)*n : (d+1)*n]
		c.Hi[d] = arena[(dims+d)*n : (dims+d+1)*n : (dims+d+1)*n]
	}
	return c
}

// BuildECColumns copies a published EC set into columns, in the order
// given; dims and saDomain fix the shape for empty sets. An EC of another
// shape, or a size or SA count outside [0, MaxInt32] — what the int32
// columns and the snapshot format's u32 columns hold — is an error, not
// a truncation.
func BuildECColumns(ecs []PublishedEC, dims, saDomain int) (*ECColumns, error) {
	if int64(len(ecs)) > math.MaxInt32 {
		return nil, fmt.Errorf("microdata: %d ECs exceed an int32 column", len(ecs))
	}
	c := NewECColumns(len(ecs), dims, saDomain)
	for i := range ecs {
		ec := &ecs[i]
		if len(ec.Box.Lo) != dims || len(ec.Box.Hi) != dims || len(ec.SACounts) != saDomain {
			return nil, fmt.Errorf("microdata: EC %d spans %d/%d dims and %d SA values, want %d and %d",
				i, len(ec.Box.Lo), len(ec.Box.Hi), len(ec.SACounts), dims, saDomain)
		}
		for d := 0; d < dims; d++ {
			c.Lo[d][i] = ec.Box.Lo[d]
			c.Hi[d][i] = ec.Box.Hi[d]
		}
		if ec.Size < 0 || int64(ec.Size) > math.MaxInt32 {
			return nil, fmt.Errorf("microdata: EC %d size %d does not fit an int32 column", i, ec.Size)
		}
		c.Sizes[i] = int32(ec.Size)
		for v, cnt := range ec.SACounts {
			if cnt < 0 || int64(cnt) > math.MaxInt32 {
				return nil, fmt.Errorf("microdata: EC %d SA count %d = %d does not fit an int32 column", i, v, cnt)
			}
			c.SACounts[i*saDomain+v] = int32(cnt)
		}
	}
	if err := c.DerivePrefix(); err != nil {
		return nil, err
	}
	return c, nil
}

// DerivePrefix fills SAPrefix and SAWPrefix from SACounts: the one place
// the prefix sums are formed, whether the counts came from rows or were
// decoded straight into the column. Counts must be non-negative; an EC
// whose counts sum past MaxInt32 is an error.
func (c *ECColumns) DerivePrefix() error {
	m := c.M
	for i := 0; i < c.N; i++ {
		pfx := c.SAPrefix[i*(m+1) : (i+1)*(m+1)]
		wpfx := c.SAWPrefix[i*(m+1) : (i+1)*(m+1)]
		var sum, wsum int64
		for v, cnt := range c.SACounts[i*m : (i+1)*m] {
			sum += int64(cnt)
			wsum += int64(v) * int64(cnt)
			pfx[v+1] = int32(sum)
			wpfx[v+1] = wsum
		}
		if sum > math.MaxInt32 {
			return fmt.Errorf("microdata: EC %d SA counts sum to %d, past an int32 column", i, sum)
		}
	}
	return nil
}

// clampSA clamps an SA index range to the domain: lo below it rises to
// 0, hi past it drops to M-1; an inverted result means "empty".
func (c *ECColumns) clampSA(lo, hi int) (int, int) {
	if lo < 0 {
		lo = 0
	}
	if hi >= c.M {
		hi = c.M - 1
	}
	return lo, hi
}

// SARangeMin returns the smallest SA index in [lo, hi] (clamped) with a
// nonzero count in EC i, or -1 when the EC has no tuple in the range.
func (c *ECColumns) SARangeMin(i, lo, hi int) int {
	lo, hi = c.clampSA(lo, hi)
	base := i * c.M
	for v := lo; v <= hi; v++ {
		if c.SACounts[base+v] > 0 {
			return v
		}
	}
	return -1
}

// SARangeMax returns the largest SA index in [lo, hi] (clamped) with a
// nonzero count in EC i, or -1 when the EC has no tuple in the range.
func (c *ECColumns) SARangeMax(i, lo, hi int) int {
	lo, hi = c.clampSA(lo, hi)
	base := i * c.M
	for v := hi; v >= lo; v-- {
		if c.SACounts[base+v] > 0 {
			return v
		}
	}
	return -1
}
