package linalg

import (
	"errors"
	"math"
)

// ErrNotPositiveDefinite reports that a Cholesky factorization encountered
// a non-positive pivot.
var ErrNotPositiveDefinite = errors.New("linalg: matrix is not positive definite")

// Cholesky computes the lower-triangular factor L with A = L*L^T for a
// symmetric positive-definite matrix A. Only the lower triangle of A is
// read. The input is not modified.
func Cholesky(a *Matrix) (*Matrix, error) {
	l := NewMatrix(a.Rows, a.Cols)
	if err := CholeskyInto(l, a); err != nil {
		return nil, err
	}
	return l, nil
}

// CholeskyInto writes the Cholesky factor of a into l, which must have
// a's shape, with the arithmetic of Cholesky. Only the lower triangle of
// a is read, so l may be a itself; the upper triangle of l is zeroed.
func CholeskyInto(l, a *Matrix) error {
	if a.Rows != a.Cols || l.Rows != a.Rows || l.Cols != a.Cols {
		panic("linalg: CholeskyInto on non-square or mismatched matrices")
	}
	n := a.Rows
	for j := 0; j < n; j++ {
		// Row slices of L; the sums run over k in increasing order.
		lj := l.Data[j*n : j*n+j]
		d := a.Data[j*n+j]
		for _, v := range lj {
			d -= v * v
		}
		if d <= 0 || math.IsNaN(d) {
			return ErrNotPositiveDefinite
		}
		d = math.Sqrt(d)
		clear(l.Data[j*n+j+1 : (j+1)*n])
		l.Data[j*n+j] = d
		for i := j + 1; i < n; i++ {
			li := l.Data[i*n : i*n+len(lj)]
			s := a.Data[i*n+j]
			for k, v := range li {
				s -= v * lj[k]
			}
			l.Data[i*n+j] = s / d
		}
	}
	return nil
}

// SolveLower solves L*x = b for lower-triangular L by forward substitution.
func SolveLower(l *Matrix, b []float64) []float64 {
	if len(b) != l.Rows {
		panic("linalg: SolveLower dimension mismatch")
	}
	x := make([]float64, len(b))
	solveLowerInto(l, x, b)
	return x
}

// solveLowerInto writes the solution of L*x = b into x, which may be b.
func solveLowerInto(l *Matrix, x, b []float64) {
	for i := 0; i < l.Rows; i++ {
		s := b[i]
		row := l.Data[i*l.Cols : i*l.Cols+i]
		for j, v := range row {
			s -= v * x[j]
		}
		x[i] = s / l.At(i, i)
	}
}

// SolveUpperT solves L^T*x = b for lower-triangular L (that is, an upper
// triangular system with matrix L^T) by backward substitution.
func SolveUpperT(l *Matrix, b []float64) []float64 {
	if len(b) != l.Rows {
		panic("linalg: SolveUpperT dimension mismatch")
	}
	x := make([]float64, len(b))
	solveUpperTInto(l, x, b)
	return x
}

// solveUpperTInto writes the solution of L^T*x = b into x, which may be
// b.
func solveUpperTInto(l *Matrix, x, b []float64) {
	n := l.Rows
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		for j := i + 1; j < n; j++ {
			s -= l.At(j, i) * x[j]
		}
		x[i] = s / l.At(i, i)
	}
}

// CholSolve solves A*x = b given the Cholesky factor L of A.
func CholSolve(l *Matrix, b []float64) []float64 {
	if len(b) != l.Rows {
		panic("linalg: CholSolve dimension mismatch")
	}
	x := make([]float64, len(b))
	CholSolveInto(l, x, b)
	return x
}

// CholSolveInto writes the solution of A*x = b, given the Cholesky
// factor L of A, into x with the arithmetic of CholSolve. x may be b.
func CholSolveInto(l *Matrix, x, b []float64) {
	if len(b) != l.Rows || len(x) != l.Rows {
		panic("linalg: CholSolveInto dimension mismatch")
	}
	solveLowerInto(l, x, b)
	solveUpperTInto(l, x, x)
}

// CholSolveMatrix solves A*X = B column-by-column given the Cholesky
// factor L of A.
func CholSolveMatrix(l *Matrix, b *Matrix) *Matrix {
	if l.Rows != b.Rows {
		panic("linalg: CholSolveMatrix dimension mismatch")
	}
	out := NewMatrix(b.Rows, b.Cols)
	col := make([]float64, b.Rows)
	for j := 0; j < b.Cols; j++ {
		for i := 0; i < b.Rows; i++ {
			col[i] = b.At(i, j)
		}
		x := CholSolve(l, col)
		for i := 0; i < b.Rows; i++ {
			out.Set(i, j, x[i])
		}
	}
	return out
}

// LogDetFromChol returns log(det(A)) given the Cholesky factor L of A,
// computed as 2*sum(log(L[i][i])).
func LogDetFromChol(l *Matrix) float64 {
	s := 0.0
	for i := 0; i < l.Rows; i++ {
		s += math.Log(l.At(i, i))
	}
	return 2 * s
}

// Inverse returns the inverse of a symmetric positive-definite matrix via
// its Cholesky factorization.
func Inverse(a *Matrix) (*Matrix, error) {
	l, err := Cholesky(a)
	if err != nil {
		return nil, err
	}
	return CholSolveMatrix(l, Identity(a.Rows)), nil
}

// SolveSPD solves A*x = b for symmetric positive-definite A.
func SolveSPD(a *Matrix, b []float64) ([]float64, error) {
	l, err := Cholesky(a)
	if err != nil {
		return nil, err
	}
	return CholSolve(l, b), nil
}
