package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func randomSPD(n int, rng *rand.Rand) *Matrix {
	// A = B*B^T + n*I is SPD for any B.
	b := NewMatrix(n, n)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	a := Mul(b, b.T())
	for i := 0; i < n; i++ {
		a.Add(i, i, float64(n))
	}
	return a
}

func TestMatrixAccessors(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 5)
	m.Add(1, 2, 1.5)
	if m.At(1, 2) != 6.5 {
		t.Fatalf("At = %v", m.At(1, 2))
	}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 0 {
		t.Fatal("Clone must be deep")
	}
}

func TestFromRowsAndTranspose(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.T()
	if tr.Rows != 3 || tr.Cols != 2 || tr.At(2, 1) != 6 || tr.At(0, 1) != 4 {
		t.Fatalf("transpose wrong: %v", tr)
	}
	if MaxAbsDiff(tr.T(), m) != 0 {
		t.Fatal("double transpose should round-trip")
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for ragged rows")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestMulKnown(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	got := Mul(a, b)
	want := FromRows([][]float64{{19, 22}, {43, 50}})
	if MaxAbsDiff(got, want) != 0 {
		t.Fatalf("Mul = %v", got)
	}
}

func TestMulIdentityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		m := NewMatrix(n, n)
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64()
		}
		return MaxAbsDiff(Mul(m, Identity(n)), m) < 1e-12 &&
			MaxAbsDiff(Mul(Identity(n), m), m) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMulVecMatchesMul(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := NewMatrix(4, 3)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	x := []float64{1, -2, 0.5}
	xm := NewMatrix(3, 1)
	copy(xm.Data, x)
	got := MulVec(a, x)
	want := Mul(a, xm)
	for i := range got {
		if !approx(got[i], want.At(i, 0), 1e-12) {
			t.Fatalf("MulVec[%d] = %v, want %v", i, got[i], want.At(i, 0))
		}
	}
}

func TestDotAXPYNorm(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	if Dot(a, b) != 32 {
		t.Fatalf("Dot = %v", Dot(a, b))
	}
	y := []float64{1, 1, 1}
	AXPY(2, a, y)
	if y[2] != 7 {
		t.Fatalf("AXPY: %v", y)
	}
	if !approx(Norm2([]float64{3, 4}), 5, 1e-15) {
		t.Fatal("Norm2")
	}
}

func TestAddSubScale(t *testing.T) {
	a := FromRows([][]float64{{1, 2}})
	b := FromRows([][]float64{{3, 5}})
	if s := AddMatrix(a, b); s.At(0, 1) != 7 {
		t.Fatal("AddMatrix")
	}
	if d := SubMatrix(b, a); d.At(0, 0) != 2 {
		t.Fatal("SubMatrix")
	}
	c := a.Clone()
	c.Scale(3)
	if c.At(0, 1) != 6 {
		t.Fatal("Scale")
	}
}

func TestCholeskyKnown(t *testing.T) {
	a := FromRows([][]float64{
		{4, 12, -16},
		{12, 37, -43},
		{-16, -43, 98},
	})
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	want := FromRows([][]float64{
		{2, 0, 0},
		{6, 1, 0},
		{-8, 5, 3},
	})
	if MaxAbsDiff(l, want) > 1e-12 {
		t.Fatalf("L = \n%v", l)
	}
}

func TestCholeskyReconstruction(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		a := randomSPD(n, rng)
		l, err := Cholesky(a)
		if err != nil {
			return false
		}
		return MaxAbsDiff(Mul(l, l.T()), a) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if _, err := Cholesky(a); err != ErrNotPositiveDefinite {
		t.Fatalf("err = %v", err)
	}
}

func TestCholSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randomSPD(6, rng)
	xTrue := make([]float64, 6)
	for i := range xTrue {
		xTrue[i] = rng.NormFloat64()
	}
	b := MulVec(a, xTrue)
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	x := CholSolve(l, b)
	for i := range x {
		if !approx(x[i], xTrue[i], 1e-8) {
			t.Fatalf("x[%d] = %v, want %v", i, x[i], xTrue[i])
		}
	}
}

func TestTriangularSolves(t *testing.T) {
	l := FromRows([][]float64{
		{2, 0, 0},
		{1, 3, 0},
		{4, -1, 5},
	})
	xTrue := []float64{1, -1, 2}
	bLower := MulVec(l, xTrue)
	if got := SolveLower(l, bLower); Norm2(sub(got, xTrue)) > 1e-12 {
		t.Fatalf("SolveLower = %v", got)
	}
	bUpper := MulVec(l.T(), xTrue)
	if got := SolveUpperT(l, bUpper); Norm2(sub(got, xTrue)) > 1e-12 {
		t.Fatalf("SolveUpperT = %v", got)
	}
}

func sub(a, b []float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

func TestLogDetFromChol(t *testing.T) {
	a := FromRows([][]float64{{4, 0}, {0, 9}})
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	if got := LogDetFromChol(l); !approx(got, math.Log(36), 1e-12) {
		t.Fatalf("logdet = %v", got)
	}
}

func TestInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := randomSPD(5, rng)
	inv, err := Inverse(a)
	if err != nil {
		t.Fatal(err)
	}
	if MaxAbsDiff(Mul(a, inv), Identity(5)) > 1e-8 {
		t.Fatal("A * A^-1 != I")
	}
}

func TestSolveSPD(t *testing.T) {
	a := FromRows([][]float64{{2, 1}, {1, 2}})
	x, err := SolveSPD(a, []float64{3, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(x[0], 1, 1e-12) || !approx(x[1], 1, 1e-12) {
		t.Fatalf("x = %v", x)
	}
}

func TestLUKnownDet(t *testing.T) {
	a := FromRows([][]float64{
		{0, 2, 1},
		{1, 1, 1},
		{2, 0, 3},
	})
	f, err := FactorLU(a)
	if err != nil {
		t.Fatal(err)
	}
	// det = 0*(3-0) - 2*(3-2) + 1*(0-2) = -4
	if !approx(f.Det(), -4, 1e-12) {
		t.Fatalf("det = %v", f.Det())
	}
}

func TestLUSolveProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(7)
		a := NewMatrix(n, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		for i := 0; i < n; i++ {
			a.Add(i, i, 5) // diagonally dominant enough to be well conditioned
		}
		xTrue := make([]float64, n)
		for i := range xTrue {
			xTrue[i] = rng.NormFloat64()
		}
		b := MulVec(a, xTrue)
		x, err := SolveGeneral(a, b)
		if err != nil {
			return false
		}
		return Norm2(sub(x, xTrue)) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestLUSingular(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := FactorLU(a); err != ErrSingular {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestLUPivoting(t *testing.T) {
	// Zero on the initial pivot position forces a row swap.
	a := FromRows([][]float64{{0, 1}, {1, 0}})
	f, err := FactorLU(a)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(f.Det(), -1, 1e-12) {
		t.Fatalf("det = %v, want -1", f.Det())
	}
	x := f.Solve([]float64{2, 3})
	if !approx(x[0], 3, 1e-12) || !approx(x[1], 2, 1e-12) {
		t.Fatalf("x = %v", x)
	}
}

// The Into variants give the allocating functions' bits on reused,
// dirty storage, in place where allowed.
func TestIntoVariantsSameBits(t *testing.T) {
	a := FromRows([][]float64{{4, 1, 0.5}, {1, 3, 0.25}, {0.5, 0.25, 2}})
	b := []float64{1, -2, 0.5}
	same := func(what string, got, want []float64) {
		t.Helper()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s[%d] = %v, want %v", what, i, got[i], want[i])
			}
		}
	}
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	inPlace := a.Clone()
	if err := CholeskyInto(inPlace, inPlace); err != nil {
		t.Fatal(err)
	}
	same("CholeskyInto", inPlace.Data, l.Data)
	x := append([]float64(nil), b...)
	CholSolveInto(l, x, x)
	same("CholSolveInto", x, CholSolve(l, b))
	out := &Matrix{Rows: 3, Cols: 3, Data: []float64{9, 9, 9, 9, 9, 9, 9, 9, 9}}
	MulInto(out, a, l)
	same("MulInto", out.Data, Mul(a, l).Data)
	v := []float64{9, 9, 9}
	MulVecInto(v, a, b)
	same("MulVecInto", v, MulVec(a, b))
}
