package lp

import (
	"math"
	"math/rand"
	"testing"
)

// simplexTwoClass is the oracle for TwoClassMakespan: the same LP built
// as two TaskClasses and solved by the dense simplex.
func simplexTwoClass(G, F float64, g, f []float64) (float64, error) {
	costs := func(rates []float64) []float64 {
		c := make([]float64, len(rates))
		for i, r := range rates {
			c[i] = math.Inf(1)
			if r > 0 {
				c[i] = 1 / r
			}
		}
		return c
	}
	alloc, err := SolveAllocation([]TaskClass{
		{Name: "gen", Count: G, Costs: costs(g)},
		{Name: "fact", Count: F, Costs: costs(f)},
	}, len(g))
	if err != nil {
		return 0, err
	}
	return alloc.Makespan, nil
}

// checkTwoClass compares TwoClassMakespan with the simplex oracle: both
// fail or both agree to 1e-12 relative, and a success is never NaN or
// infinite.
func checkTwoClass(t *testing.T, G, F float64, g, f []float64) {
	t.Helper()
	got, err := TwoClassMakespan(G, F, g, f)
	want, werr := simplexTwoClass(G, F, g, f)
	if (err != nil) != (werr != nil) {
		t.Fatalf("G=%v F=%v g=%v f=%v: closed form err %v, simplex err %v", G, F, g, f, err, werr)
	}
	if err != nil {
		return
	}
	if math.IsNaN(got) || math.IsInf(got, 0) || got < 0 {
		t.Fatalf("G=%v F=%v g=%v f=%v: makespan %v", G, F, g, f, got)
	}
	if math.Abs(got-want) > 1e-12*math.Max(math.Abs(got), math.Abs(want)) {
		t.Fatalf("G=%v F=%v g=%v f=%v: closed form %v, simplex %v (rel %.3g)",
			G, F, g, f, got, want, math.Abs(got-want)/math.Abs(want))
	}
}

// decodeRates turns fuzz bytes into node rates: two bytes per node
// (class-1 rate, class-2 rate), each byte/16 so that zero rates and
// exact ties in f/g are common. At most 12 nodes keep the oracle fast.
func decodeRates(data []byte) (g, f []float64) {
	n := min(len(data)/2, 12)
	g, f = make([]float64, n), make([]float64, n)
	for i := 0; i < n; i++ {
		g[i] = float64(data[2*i]) / 16
		f[i] = float64(data[2*i+1]) / 16
	}
	return g, f
}

// FuzzTwoClassMakespan checks the closed form against the simplex on
// fuzzed work amounts and node rates. Work outside [1e-3, 1e6] (other
// than 0) leaves the range where the simplex's absolute tolerances hold,
// so there only the closed form's own contract is checked: invalid work
// is an error, and a result is finite, non-negative and at least each
// single-class bound.
func FuzzTwoClassMakespan(f *testing.F) {
	for _, seed := range []struct {
		G, F  float64
		rates []byte // (g, f) per node, in sixteenths
	}{
		{100, 300, []byte{16, 16, 32, 32, 16, 16, 8, 8}},        // all f/g tied
		{100, 300, []byte{16, 32, 32, 16, 8, 16, 64, 32}},       // ties in pairs
		{100, 300, []byte{64, 128, 64, 128, 64, 0, 64, 0}},      // gen-only nodes (i >= n)
		{100, 300, []byte{0, 128, 0, 64, 48, 16}},               // fact-only nodes (no CPU)
		{0, 300, []byte{16, 32, 48, 16, 0, 8}},                  // G = 0
		{100, 0, []byte{16, 32, 48, 16, 8, 0}},                  // F = 0
		{0, 0, []byte{16, 32, 48, 16}},                          // no work
		{100, 300, []byte{40, 200}},                             // a single node
		{100, 300, []byte{0, 0, 40, 200, 0, 0}},                 // nodes with no rate
		{100, 300, []byte{0, 64, 0, 32}},                        // infeasible: no gen node
		{100, 300, []byte{64, 0, 32, 0}},                        // infeasible: no fact node
		{0, 300, []byte{64, 0, 32, 0}},                          // F without a fact node
		{100, 0, []byte{64, 0, 32, 0}},                          // F = 0, gen-only nodes
		{0, 0, []byte{0, 0, 0, 0}},                              // nothing at all
		{100, 300, nil},                                         // no nodes
		{-1, 300, []byte{16, 16}},                               // negative work
		{math.NaN(), 300, []byte{16, 16}},                       // NaN work
		{100, math.Inf(1), []byte{16, 16}},                      // infinite work
		{1e-3, 1e6, []byte{255, 1, 1, 255, 128, 128, 3, 250}},   // range ends
		{5e5, 2, []byte{200, 3, 180, 5, 1, 190, 7, 7, 90, 100}}, // skewed
	} {
		f.Add(seed.G, seed.F, seed.rates)
	}
	f.Fuzz(func(t *testing.T, G, F float64, data []byte) {
		g, fr := decodeRates(data)
		valid := func(w float64) bool { return w >= 0 && !math.IsInf(w, 1) }
		if !valid(G) || !valid(F) {
			if _, err := TwoClassMakespan(G, F, g, fr); err == nil {
				t.Fatalf("G=%v F=%v: invalid work accepted", G, F)
			}
			return
		}
		inRange := func(w float64) bool { return w == 0 || (w >= 1e-3 && w <= 1e6) }
		if inRange(G) && inRange(F) {
			checkTwoClass(t, G, F, g, fr)
			return
		}
		got, err := TwoClassMakespan(G, F, g, fr)
		if err != nil {
			return
		}
		if math.IsNaN(got) || math.IsInf(got, 0) || got < 0 {
			t.Fatalf("G=%v F=%v g=%v f=%v: makespan %v", G, F, g, fr, got)
		}
		var sg, sf float64
		for i := range g {
			sg += g[i]
			sf += fr[i]
		}
		if (sg > 0 && got < G/sg*(1-1e-12)) || (sf > 0 && got < F/sf*(1-1e-12)) {
			t.Fatalf("G=%v F=%v g=%v f=%v: makespan %v below a single-class bound", G, F, g, fr, got)
		}
	})
}

// TestTwoClassMakespanRandom checks continuous random rates, with some
// nodes made gen-only, fact-only or unusable and some ratios tied.
func TestTwoClassMakespanRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(16)
		g, f := make([]float64, n), make([]float64, n)
		for i := range g {
			g[i] = 0.1 + rng.Float64()*20
			f[i] = 0.1 + rng.Float64()*200
			switch rng.Intn(8) {
			case 0:
				f[i] = 0
			case 1:
				g[i] = 0
			case 2:
				g[i], f[i] = 0, 0
			case 3:
				if i > 0 { // same f/g as the previous node
					s := 0.5 + rng.Float64()*2
					g[i], f[i] = s*g[i-1], s*f[i-1]
				}
			}
		}
		G := rng.Float64() * 1e4
		F := rng.Float64() * 1e5
		checkTwoClass(t, G, F, g, f)
	}
}
