package microdata

import (
	"math/rand"
	"testing"
)

// TestECColumnsMatchesRowForm drives the columnar SA accessors against the
// PublishedEC row methods over every (lo, hi) pair, including out-of-domain
// and inverted ranges, so the arena clamping semantics cannot drift from
// the row form the linear estimator uses.
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
		ec.BuildSAPrefix()
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
		for lo := -2; lo <= m+1; lo++ {
			for hi := -2; hi <= m+1; hi++ {
				if got, want := cols.SARangeCount(i, lo, hi), ec.SARangeCount(lo, hi); got != want {
					t.Fatalf("EC %d count[%d,%d]: %d, want %d", i, lo, hi, got, want)
				}
				if got, want := cols.SARangeSum(i, lo, hi), ec.SARangeSum(lo, hi); got != want {
					t.Fatalf("EC %d sum[%d,%d]: %d, want %d", i, lo, hi, got, want)
				}
				if got, want := cols.SARangeMin(i, lo, hi), ec.SARangeMin(lo, hi); got != want {
					t.Fatalf("EC %d min[%d,%d]: %d, want %d", i, lo, hi, got, want)
				}
				if got, want := cols.SARangeMax(i, lo, hi), ec.SARangeMax(lo, hi); got != want {
					t.Fatalf("EC %d max[%d,%d]: %d, want %d", i, lo, hi, got, want)
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
