package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0 < q <= 1) of samples by the
// nearest-rank rule: the smallest sample with at least q·n samples at or
// below it. It sorts a copy; an empty input gives 0.
func percentile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rankIndex(len(s), q)]
}

// rankIndex is the 0-based nearest-rank index of quantile q among n
// sorted samples.
func rankIndex(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i > n-1 {
		i = n - 1
	}
	return i
}

// beyond is how many of n sorted samples lie strictly after the
// nearest-rank q-quantile.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rankIndex(n, q)
}

// tailLadder is the set of percentiles tailPercentile chooses from,
// highest first.
var tailLadder = []float64{0.999, 0.99, 0.9, 0.5}

// minBeyond is the number of samples a reported tail percentile must
// have after it: fewer, and the figure is one or two unlucky requests.
const minBeyond = 10

// tailPercentile reports the highest percentile of the ladder that has
// at least minBeyond samples beyond it, with its value. ok is false
// when even the median lacks them; q is then the median anyway.
func tailPercentile(samples []float64) (q, v float64, ok bool) {
	for _, q := range tailLadder {
		if beyond(len(samples), q) >= minBeyond {
			return q, percentile(samples, q), true
		}
	}
	return 0.5, percentile(samples, 0.5), false
}

// ratio is a fraction kept with its base, so that a hit ratio of 1.0
// over 3 lookups is never mistaken for one over 3000.
type ratio struct {
	num, den float64
}

// value is num/den, or 0 over an empty base.
func (r ratio) value() float64 {
	if r.den == 0 {
		return 0
	}
	return r.num / r.den
}

// interval is a closed span of time in nanoseconds.
type interval struct{ start, end int64 }

// selfTime is the length of parent minus the part of it covered by the
// union of children (clipped to the parent; children may overlap each
// other when they ran in parallel).
func selfTime(parent interval, children []interval) int64 {
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
	covered := int64(0)
	var cur interval
	for i, c := range cs {
		if i == 0 || c.start > cur.end {
			covered += cur.end - cur.start
			cur = c
			continue
		}
		if c.end > cur.end {
			cur.end = c.end
		}
	}
	if len(cs) > 0 {
		covered += cur.end - cur.start
	}
	return parent.end - parent.start - covered
}

// histQuantile estimates quantile q from cumulative histogram buckets
// (Prometheus `le` semantics: cum[i] counts values <= bounds[i], and
// the last entry of cum is the +Inf bucket) by linear interpolation
// inside the bucket that holds the rank. A rank in the +Inf bucket
// returns the highest finite bound.
func histQuantile(bounds []float64, cum []float64, q float64) float64 {
	if len(cum) == 0 || cum[len(cum)-1] == 0 {
		return 0
	}
	rank := q * cum[len(cum)-1]
	for i, c := range cum {
		if c < rank {
			continue
		}
		if i == len(bounds) {
			return bounds[len(bounds)-1]
		}
		lo, prev := 0.0, 0.0
		if i > 0 {
			lo, prev = bounds[i-1], cum[i-1]
		}
		if c == prev {
			return bounds[i]
		}
		return lo + (bounds[i]-lo)*(rank-prev)/(c-prev)
	}
	return bounds[len(bounds)-1]
}
