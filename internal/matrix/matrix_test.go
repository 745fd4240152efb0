package matrix

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMulVec(t *testing.T) {
	m := New(2, 3)
	copy(m.Data, []float64{1, 2, 3, 4, 5, 6})
	got, err := m.MulVec([]float64{1, 0, -1})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != -2 || got[1] != -2 {
		t.Fatalf("MulVec = %v", got)
	}
	if _, err := m.MulVec([]float64{1}); err == nil {
		t.Error("dim mismatch accepted")
	}
}

func TestMul(t *testing.T) {
	a := New(2, 2)
	copy(a.Data, []float64{1, 2, 3, 4})
	b := New(2, 2)
	copy(b.Data, []float64{0, 1, 1, 0})
	c, err := a.Mul(b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 1, 4, 3}
	for i := range want {
		if c.Data[i] != want[i] {
			t.Fatalf("Mul = %v, want %v", c.Data, want)
		}
	}
	if _, err := a.Mul(New(3, 3)); err == nil {
		t.Error("dim mismatch accepted")
	}
}

func TestSolveKnown(t *testing.T) {
	a := New(2, 2)
	copy(a.Data, []float64{2, 1, 1, 3})
	x, err := Solve(a, []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	// 2x+y=5, x+3y=10 → x=1, y=3.
	if math.Abs(x[0]-1) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Fatalf("Solve = %v", x)
	}
}

func TestSolveRequiresPivoting(t *testing.T) {
	// Zero on the initial pivot: naive elimination would fail.
	a := New(2, 2)
	copy(a.Data, []float64{0, 1, 1, 0})
	x, err := Solve(a, []float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != 3 || x[1] != 2 {
		t.Fatalf("Solve = %v", x)
	}
}

func TestSolveSingular(t *testing.T) {
	a := New(2, 2)
	copy(a.Data, []float64{1, 2, 2, 4})
	if _, err := Solve(a, []float64{1, 2}); err == nil {
		t.Error("singular matrix solved")
	}
	if _, err := Solve(New(2, 3), []float64{1, 2}); err == nil {
		t.Error("non-square accepted")
	}
	if _, err := Solve(New(2, 2), []float64{1}); err == nil {
		t.Error("rhs length mismatch accepted")
	}
}

func TestSolveLeavesInputsIntact(t *testing.T) {
	a := New(2, 2)
	copy(a.Data, []float64{2, 1, 1, 3})
	b := []float64{5, 10}
	aCopy := append([]float64(nil), a.Data...)
	bCopy := append([]float64(nil), b...)
	if _, err := Solve(a, b); err != nil {
		t.Fatal(err)
	}
	for i := range aCopy {
		if a.Data[i] != aCopy[i] {
			t.Fatal("Solve modified the matrix")
		}
	}
	for i := range bCopy {
		if b[i] != bCopy[i] {
			t.Fatal("Solve modified the rhs")
		}
	}
}

func TestInverseIdentity(t *testing.T) {
	for n := 1; n <= 5; n++ {
		inv, err := Inverse(Identity(n))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := 0.0
				if i == j {
					want = 1
				}
				if math.Abs(inv.At(i, j)-want) > 1e-12 {
					t.Fatalf("Inverse(I) ≠ I at (%d,%d)", i, j)
				}
			}
		}
	}
	if _, err := Inverse(New(2, 3)); err == nil {
		t.Error("non-square inverted")
	}
}

// Property: for random well-conditioned matrices, A·A⁻¹ ≈ I and
// Solve(A, A·x) ≈ x.
func TestInverseSolveProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(8)
		a := New(n, n)
		for i := range a.Data {
			a.Data[i] = r.Float64()*2 - 1
		}
		// Diagonal dominance keeps the matrix comfortably invertible.
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n))
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = r.Float64()*10 - 5
		}
		b, err := a.MulVec(x)
		if err != nil {
			return false
		}
		got, err := Solve(a, b)
		if err != nil {
			return false
		}
		for i := range x {
			if math.Abs(got[i]-x[i]) > 1e-8 {
				return false
			}
		}
		inv, err := Inverse(a)
		if err != nil {
			return false
		}
		prod, err := a.Mul(inv)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := 0.0
				if i == j {
					want = 1
				}
				if math.Abs(prod.At(i, j)-want) > 1e-8 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestCloneIndependent(t *testing.T) {
	a := Identity(2)
	b := a.Clone()
	b.Set(0, 0, 42)
	if a.At(0, 0) == 42 {
		t.Fatal("Clone shares storage")
	}
}

// solveColumns inverts a by one Solve per unit column: the reference
// Inverse must reproduce bit for bit.
func solveColumns(a *Matrix) (*Matrix, error) {
	n := a.Rows
	out := New(n, n)
	for j := 0; j < n; j++ {
		e := make([]float64, n)
		e[j] = 1
		col, err := Solve(a, e)
		if err != nil {
			return nil, err
		}
		for i := range col {
			out.Set(i, j, col[i])
		}
	}
	return out, nil
}

// pmShaped builds an m×m matrix shaped like the perturbation matrix:
// column j holds x_j = γ_j·C on the diagonal and (1−x_j)/(m−1) elsewhere,
// with C = 1/(max γ + m − 1). A value with γ_j below the others gets a
// diagonal smaller than its off-diagonal entries, so pivoting swaps rows.
func pmShaped(m int, rng *rand.Rand) *Matrix {
	gamma := make([]float64, m)
	gmax := 0.0
	for j := range gamma {
		gamma[j] = 1 + 4*rng.Float64()
		gmax = math.Max(gmax, gamma[j])
	}
	c := 1 / (gmax + float64(m-1))
	a := New(m, m)
	for j := 0; j < m; j++ {
		x := gamma[j] * c
		y := (1 - x) / float64(m-1)
		for i := 0; i < m; i++ {
			if i == j {
				a.Set(i, j, x)
			} else {
				a.Set(i, j, y)
			}
		}
	}
	return a
}

// TestInverseMatchesColumnSolves: the one-elimination Inverse gives the
// bits of n separate Solve calls, on random matrices, on PM-shaped ones
// up to 61×61 and on a matrix whose pivots need row swaps.
func TestInverseMatchesColumnSolves(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var cases []*Matrix
	for i := 0; i < 100; i++ {
		n := 1 + rng.Intn(12)
		a := New(n, n)
		for k := range a.Data {
			a.Data[k] = rng.Float64()*2 - 1
		}
		cases = append(cases, a)
	}
	for m := 2; m <= 61; m++ {
		cases = append(cases, pmShaped(m, rng))
	}
	swaps := New(4, 4)
	copy(swaps.Data, []float64{
		0, 2, 1, 3,
		1e-3, 0, 4, 1,
		5, 1, 0, 2,
		2, 7, 1, 1e-4,
	})
	cases = append(cases, swaps)
	for ci, a := range cases {
		want, werr := solveColumns(a)
		got, gerr := Inverse(a)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("case %d (%d×%d): Solve err %v, Inverse err %v", ci, a.Rows, a.Cols, werr, gerr)
		}
		if werr != nil {
			continue
		}
		for k := range want.Data {
			if math.Float64bits(got.Data[k]) != math.Float64bits(want.Data[k]) {
				t.Fatalf("case %d (%d×%d) entry (%d,%d): Inverse %v, column solves %v",
					ci, a.Rows, a.Cols, k/a.Cols, k%a.Cols, got.Data[k], want.Data[k])
			}
		}
	}
}

// BenchmarkInverse50 inverts a PM-shaped matrix over CENSUS's 50 SA
// values, the size perturb.NewSchemeFromModel inverts.
func BenchmarkInverse50(b *testing.B) {
	a := pmShaped(50, rand.New(rand.NewSource(1)))
	for b.Loop() {
		if _, err := Inverse(a); err != nil {
			b.Fatal(err)
		}
	}
}
