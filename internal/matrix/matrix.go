// Package matrix provides the small dense linear-algebra kernel the
// perturbation scheme needs: solving PM·x = b and inverting PM, where PM is
// the m×m perturbation matrix of §5. Gaussian elimination with partial
// pivoting; m is the SA domain size (50 in the paper's CENSUS), so cubic
// cost is immaterial.
package matrix

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols
}

// New allocates a zero matrix.
func New(rows, cols int) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Identity returns the n×n identity.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// MulVec returns m·v.
func (m *Matrix) MulVec(v []float64) ([]float64, error) {
	if len(v) != m.Cols {
		return nil, fmt.Errorf("matrix: MulVec dims %d×%d · %d", m.Rows, m.Cols, len(v))
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		s := 0.0
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, x := range v {
			s += row[j] * x
		}
		out[i] = s
	}
	return out, nil
}

// Mul returns m·n.
func (m *Matrix) Mul(n *Matrix) (*Matrix, error) {
	if m.Cols != n.Rows {
		return nil, fmt.Errorf("matrix: Mul dims %d×%d · %d×%d", m.Rows, m.Cols, n.Rows, n.Cols)
	}
	out := New(m.Rows, n.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := 0; k < m.Cols; k++ {
			a := m.At(i, k)
			if a == 0 {
				continue
			}
			for j := 0; j < n.Cols; j++ {
				out.Data[i*out.Cols+j] += a * n.At(k, j)
			}
		}
	}
	return out, nil
}

// Solve returns x with a·x = b by Gaussian elimination with partial
// pivoting. a and b are not modified. Returns an error for singular or
// non-square systems.
func Solve(a *Matrix, b []float64) ([]float64, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("matrix: Solve needs square matrix, got %d×%d", a.Rows, a.Cols)
	}
	if len(b) != a.Rows {
		return nil, fmt.Errorf("matrix: Solve rhs length %d ≠ %d", len(b), a.Rows)
	}
	x := &Matrix{Rows: len(b), Cols: 1, Data: append([]float64(nil), b...)}
	if err := eliminate(a, x); err != nil {
		return nil, err
	}
	return x.Data, nil
}

// Inverse returns a⁻¹ by one elimination that carries all n unit columns
// as right-hand sides: O(n³), against O(n⁴) for n Solve calls, with the
// same bits as those calls.
func Inverse(a *Matrix) (*Matrix, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("matrix: Inverse needs square matrix, got %d×%d", a.Rows, a.Cols)
	}
	x := Identity(a.Rows)
	if err := eliminate(a, x); err != nil {
		return nil, err
	}
	return x, nil
}

// eliminate overwrites each column of x, a right-hand side of the square
// system a·x = x, with its solution: partial-pivot elimination on a copy
// of a, then back substitution. Pivots depend on a alone, so every column
// sees the float operations, in the order, it would see if solved alone.
func eliminate(a, x *Matrix) error {
	n, k := a.Rows, x.Cols
	w := a.Clone()
	for col := 0; col < n; col++ {
		// Partial pivot.
		p, best := col, math.Abs(w.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(w.At(r, col)); v > best {
				p, best = r, v
			}
		}
		if best < 1e-300 {
			return fmt.Errorf("matrix: singular at column %d", col)
		}
		if p != col {
			for j := 0; j < n; j++ {
				w.Data[col*n+j], w.Data[p*n+j] = w.Data[p*n+j], w.Data[col*n+j]
			}
			for c := 0; c < k; c++ {
				x.Data[col*k+c], x.Data[p*k+c] = x.Data[p*k+c], x.Data[col*k+c]
			}
		}
		pivot := w.At(col, col)
		xc := x.Data[col*k : (col+1)*k]
		for r := col + 1; r < n; r++ {
			factor := w.At(r, col) / pivot
			if factor == 0 {
				continue
			}
			w.Set(r, col, 0)
			for j := col + 1; j < n; j++ {
				w.Data[r*n+j] -= factor * w.Data[col*n+j]
			}
			xr := x.Data[r*k : (r+1)*k]
			for c := range xr {
				xr[c] -= factor * xc[c]
			}
		}
	}
	// Back substitution, a row at a time across every column.
	for i := n - 1; i >= 0; i-- {
		xi := x.Data[i*k : (i+1)*k]
		for j := i + 1; j < n; j++ {
			wij, xj := w.At(i, j), x.Data[j*k:(j+1)*k]
			for c := range xi {
				xi[c] -= wij * xj[c]
			}
		}
		d := w.At(i, i)
		for c := range xi {
			xi[c] /= d
		}
	}
	return nil
}
