package microdata

import (
	"math/rand"
	"testing"
)

// TestECColumnsMatchesRowForm copies random ECs into columns and holds
// every column, the prefix arenas and the SA range accessors to a
// brute-force fold of the row form's counts over every (lo, hi) pair,
// including out-of-domain and inverted ranges.
func TestECColumnsMatchesRowForm(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const m, d = 5, 3
	ecs := make([]PublishedEC, 40)
	for i := range ecs {
		ec := PublishedEC{
			Box:      Box{Lo: make([]float64, d), Hi: make([]float64, d)},
			SACounts: make([]int, m),
		}
		for j := 0; j < d; j++ {
			lo := rng.Float64() * 100
			ec.Box.Lo[j] = lo
			ec.Box.Hi[j] = lo + rng.Float64()*10
		}
		for v := range ec.SACounts {
			c := rng.Intn(4)
			ec.SACounts[v] = c
			ec.Size += c
		}
		if ec.Size == 0 {
			ec.SACounts[0], ec.Size = 1, 1
		}
		ecs[i] = ec
	}
	cols, err := BuildECColumns(ecs, d, m)
	if err != nil {
		t.Fatal(err)
	}
	if cols.N != len(ecs) || cols.D != d || cols.M != m {
		t.Fatalf("shape N=%d D=%d M=%d", cols.N, cols.D, cols.M)
	}
	for i := range ecs {
		ec := &ecs[i]
		for j := 0; j < d; j++ {
			if cols.Lo[j][i] != ec.Box.Lo[j] || cols.Hi[j][i] != ec.Box.Hi[j] {
				t.Fatalf("EC %d dim %d bounds differ", i, j)
			}
		}
		if int(cols.Sizes[i]) != ec.Size {
			t.Fatalf("EC %d size %d, want %d", i, cols.Sizes[i], ec.Size)
		}
		pfx := cols.SAPrefix[i*(m+1) : (i+1)*(m+1)]
		wpfx := cols.SAWPrefix[i*(m+1) : (i+1)*(m+1)]
		for lo := -2; lo <= m+1; lo++ {
			for hi := -2; hi <= m+1; hi++ {
				n, wsum, vmin, vmax := 0, int64(0), -1, -1
				for v, c := range ec.SACounts {
					if v < lo || v > hi {
						continue
					}
					n += c
					wsum += int64(v) * int64(c)
					if c > 0 {
						if vmin == -1 {
							vmin = v
						}
						vmax = v
					}
				}
				if clo, chi := max(lo, 0), min(hi, m-1); clo <= chi {
					if got := int(pfx[chi+1] - pfx[clo]); got != n {
						t.Fatalf("EC %d prefix count[%d,%d]: %d, want %d", i, lo, hi, got, n)
					}
					if got := wpfx[chi+1] - wpfx[clo]; got != wsum {
						t.Fatalf("EC %d prefix sum[%d,%d]: %d, want %d", i, lo, hi, got, wsum)
					}
				}
				if got := cols.SARangeMin(i, lo, hi); got != vmin {
					t.Fatalf("EC %d min[%d,%d]: %d, want %d", i, lo, hi, got, vmin)
				}
				if got := cols.SARangeMax(i, lo, hi); got != vmax {
					t.Fatalf("EC %d max[%d,%d]: %d, want %d", i, lo, hi, got, vmax)
				}
			}
		}
	}
}

// TestECColumnsEmpty pins the zero-EC shape: no panics, empty arenas.
func TestECColumnsEmpty(t *testing.T) {
	cols, err := BuildECColumns(nil, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if cols.N != 0 || len(cols.SAPrefix) != 0 || len(cols.Lo) != 2 {
		t.Fatalf("empty columns malformed: %+v", cols)
	}
}
