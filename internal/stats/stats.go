// Package stats provides small numeric helpers shared across the
// reproduction: means, variances, standard errors, normalization and
// histogram utilities. Everything operates on float64 slices and is
// deliberately allocation-light so it can be used inside benchmark
// inner loops.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// Variance returns the population variance of xs (the paper's
// "disagreement variance" uses the population form, dividing by |G|).
func Variance(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(n)
}

// SampleVariance returns the unbiased sample variance (divide by n-1).
func SampleVariance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(n-1)
}

// StdDev returns the population standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// StdErr returns the standard error of the mean using the sample
// standard deviation, matching the error bars the paper reports.
func StdErr(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	return math.Sqrt(SampleVariance(xs)) / math.Sqrt(float64(n))
}

// Min returns the minimum of xs. It panics on an empty slice because a
// minimum of nothing is a caller bug, not a recoverable condition.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Min of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs. It panics on an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Max of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Clamp restricts x to the closed interval [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Normalize scales xs in place so its maximum absolute value becomes 1.
// A slice of zeros is left untouched. It returns the scale that was
// applied (1/maxAbs), or 1 when nothing was scaled.
func Normalize(xs []float64) float64 {
	var maxAbs float64
	for _, x := range xs {
		if a := math.Abs(x); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		return 1
	}
	inv := 1 / maxAbs
	for i := range xs {
		xs[i] *= inv
	}
	return inv
}

// MeanPairwiseAbsDiff returns the average absolute difference over all
// unordered pairs of xs — the paper's average pairwise disagreement for
// a single item, 2/(|G|(|G|-1)) * Σ |x_u - x_v|.
func MeanPairwiseAbsDiff(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	var s float64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			s += math.Abs(xs[i] - xs[j])
		}
	}
	return s * 2 / float64(n*(n-1))
}

// Percentile returns the p-th percentile (0..100) of xs using linear
// interpolation between closest ranks. xs is not modified.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := make([]float64, len(xs))
	copy(cp, xs)
	sort.Float64s(cp)
	if p <= 0 {
		return cp[0]
	}
	if p >= 100 {
		return cp[len(cp)-1]
	}
	rank := p / 100 * float64(len(cp)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return cp[lo]
	}
	frac := rank - float64(lo)
	return cp[lo]*(1-frac) + cp[hi]*frac
}

// Interval is a closed real interval [Lo, Hi]. GRECA's bound machinery
// uses intervals for every partially-known score component so that
// correctness holds even when affinities are negative.
type Interval struct {
	Lo, Hi float64
}

// Point returns the degenerate interval [x, x].
func Point(x float64) Interval { return Interval{x, x} }

// NewInterval returns [lo, hi], swapping the ends if given backwards.
func NewInterval(lo, hi float64) Interval {
	if lo > hi {
		lo, hi = hi, lo
	}
	return Interval{lo, hi}
}

// Valid reports whether the interval is well formed (Lo <= Hi) and free
// of NaNs.
func (iv Interval) Valid() bool {
	return !math.IsNaN(iv.Lo) && !math.IsNaN(iv.Hi) && iv.Lo <= iv.Hi
}

// Width returns Hi - Lo.
func (iv Interval) Width() float64 { return iv.Hi - iv.Lo }

// Contains reports whether x lies in the interval.
func (iv Interval) Contains(x float64) bool { return iv.Lo <= x && x <= iv.Hi }

// Add returns the interval sum {a+b : a in iv, b in o}.
func (iv Interval) Add(o Interval) Interval {
	return Interval{iv.Lo + o.Lo, iv.Hi + o.Hi}
}

// Sub returns {a-b : a in iv, b in o}.
func (iv Interval) Sub(o Interval) Interval {
	return Interval{iv.Lo - o.Hi, iv.Hi - o.Lo}
}

// Mul returns the interval product {a*b : a in iv, b in o}. With both
// lower ends non-negative — every product GRECA forms under the
// shipped affinity models, whose affinities and preferences live in
// [0,1] — the extremes are the products of like ends; every other sign
// case takes the four-corner formula, which is what keeps the bounds
// sound when an affinity is negative.
func (iv Interval) Mul(o Interval) Interval {
	if iv.Lo >= 0 && o.Lo >= 0 {
		return Interval{iv.Lo * o.Lo, iv.Hi * o.Hi}
	}
	return iv.mulCorners(o)
}

// mulCorners is the standard four-corner interval product, valid for
// every sign combination.
func (iv Interval) mulCorners(o Interval) Interval {
	p1 := iv.Lo * o.Lo
	p2 := iv.Lo * o.Hi
	p3 := iv.Hi * o.Lo
	p4 := iv.Hi * o.Hi
	lo := math.Min(math.Min(p1, p2), math.Min(p3, p4))
	hi := math.Max(math.Max(p1, p2), math.Max(p3, p4))
	return Interval{lo, hi}
}

// Scale returns {c*a : a in iv}.
func (iv Interval) Scale(c float64) Interval {
	if c >= 0 {
		return Interval{c * iv.Lo, c * iv.Hi}
	}
	return Interval{c * iv.Hi, c * iv.Lo}
}

// AbsDiff returns the interval of |a-b| for a in iv, b in o: the lower
// end is the gap between the intervals (0 when they overlap) and the
// upper end is the largest spread.
func (iv Interval) AbsDiff(o Interval) Interval {
	hi := math.Max(iv.Hi-o.Lo, o.Hi-iv.Lo)
	var lo float64
	switch {
	case iv.Lo > o.Hi:
		lo = iv.Lo - o.Hi
	case o.Lo > iv.Hi:
		lo = o.Lo - iv.Hi
	default:
		lo = 0
	}
	return Interval{lo, hi}
}

// MinI returns the interval of min(a,b).
func (iv Interval) MinI(o Interval) Interval {
	return Interval{math.Min(iv.Lo, o.Lo), math.Min(iv.Hi, o.Hi)}
}

// Clamp intersects the interval with [lo, hi]; the result is empty-safe
// (collapses to a point on the nearest edge when disjoint).
func (iv Interval) Clamp(lo, hi float64) Interval {
	l := Clamp(iv.Lo, lo, hi)
	h := Clamp(iv.Hi, lo, hi)
	if l > h {
		l = h
	}
	return Interval{l, h}
}

// String implements fmt.Stringer for debugging and test failure output.
func (iv Interval) String() string {
	return fmt.Sprintf("[%.4f, %.4f]", iv.Lo, iv.Hi)
}

// Histogram counts xs into n equal-width buckets spanning [lo, hi].
// Values outside the range clamp to the edge buckets.
func Histogram(xs []float64, lo, hi float64, n int) []int {
	if n <= 0 || hi <= lo {
		return nil
	}
	counts := make([]int, n)
	w := (hi - lo) / float64(n)
	for _, x := range xs {
		b := int((x - lo) / w)
		if b < 0 {
			b = 0
		}
		if b >= n {
			b = n - 1
		}
		counts[b]++
	}
	return counts
}
