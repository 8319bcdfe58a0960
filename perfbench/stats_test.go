package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(n - i) // descending, so percentile must sort
	}
	return s
}

func TestPercentileNearestRank(t *testing.T) {
	s := seq(100)
	for _, c := range []struct{ q, want float64 }{
		{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0.001, 1},
	} {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(empty) = %v, want 0", got)
	}
	if s[0] != 100 {
		t.Error("percentile sorted its input in place")
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n     int
		q     float64
		beyon int
		ok    bool
	}{
		{10000, 0.999, 10, true}, // 9990th sample, 10 after it
		{9999, 0.99, 99, true},   // p99.9 would leave 9
		{1000, 0.99, 10, true},
		{999, 0.9, 99, true},
		{100, 0.9, 10, true},
		{99, 0.5, 49, true},
		{21, 0.5, 10, true},
		{20, 0.5, 10, true},
		{19, 0.5, 9, false},
		{0, 0.5, 0, false},
	} {
		q, v, ok := tailPercentile(seq(c.n))
		if q != c.q || ok != c.ok {
			t.Errorf("n=%d: got p%v ok=%v, want p%v ok=%v", c.n, q*100, ok, c.q*100, c.ok)
		}
		if b := beyond(c.n, q); b != c.beyon {
			t.Errorf("n=%d p%v: %d samples beyond, want %d", c.n, q*100, b, c.beyon)
		}
		if c.n > 0 && v != percentile(seq(c.n), q) {
			t.Errorf("n=%d: value %v is not the p%v", c.n, v, q*100)
		}
	}
}

func TestRatioKeepsBase(t *testing.T) {
	if v := (ratio{}).value(); v != 0 {
		t.Errorf("empty ratio = %v, want 0", v)
	}
	if v := (ratio{5, 0}).value(); v != 0 {
		t.Errorf("ratio over a zero base = %v, want 0", v)
	}
	r := ratio{4, 8}
	if r.value() != 0.5 || r.den != 8 {
		t.Errorf("4/8 = %v over base %v, want 0.5 over 8", r.value(), r.den)
	}
	// A hit ratio of 1 over 3 lookups keeps its base: the value alone
	// cannot tell it from 1 over 3000.
	if a, b := (ratio{3, 3}), (ratio{3000, 3000}); a.value() != b.value() || a.den == b.den {
		t.Errorf("ratios %+v and %+v should share a value and differ in base", a, b)
	}
}

func TestSelfTime(t *testing.T) {
	p := interval{0, 100}
	for _, c := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"leaf", nil, 100},
		{"disjoint", []interval{{10, 20}, {30, 50}}, 70},
		{"overlapping parallel children", []interval{{10, 40}, {20, 60}}, 50},
		{"nested child inside child", []interval{{10, 60}, {20, 30}}, 50},
		{"clipped to parent", []interval{{-50, 10}, {90, 500}}, 80},
		{"fully covered", []interval{{0, 100}}, 0},
		{"empty child", []interval{{40, 40}}, 100},
	} {
		if got := selfTime(p, c.children); got != c.want {
			t.Errorf("%s: self = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestHistQuantile(t *testing.T) {
	bounds := []float64{1, 2, 4}
	// 10 values <= 1, 10 in (1,2], 0 in (2,4], 0 above.
	cum := []float64{10, 20, 20, 20}
	if got := histQuantile(bounds, cum, 0.5); got != 1 {
		t.Errorf("p50 = %v, want 1", got)
	}
	if got := histQuantile(bounds, cum, 0.75); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("p75 = %v, want 1.5", got)
	}
	if got := histQuantile(bounds, []float64{0, 0, 0, 5}, 0.5); got != 4 {
		t.Errorf("+Inf bucket = %v, want the top bound 4", got)
	}
	if got := histQuantile(bounds, []float64{0, 0, 0, 0}, 0.5); got != 0 {
		t.Errorf("empty histogram = %v, want 0", got)
	}
}
