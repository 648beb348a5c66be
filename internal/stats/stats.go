// Package stats provides the small numeric helpers the reproduction
// shares: means, variances and standard errors over float64 slices,
// and the closed intervals GRECA's bound machinery computes with.
package stats

import (
	"fmt"
	"math"
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

// sampleVariance returns the unbiased sample variance (divide by n-1).
func sampleVariance(xs []float64) float64 {
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

// StdErr returns the standard error of the mean using the sample
// standard deviation, matching the error bars the paper reports.
func StdErr(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	return math.Sqrt(sampleVariance(xs)) / math.Sqrt(float64(n))
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

// Interval is a closed real interval [Lo, Hi]. GRECA's bound machinery
// uses intervals for every partially-known score component so that
// correctness holds even when affinities are negative.
type Interval struct {
	Lo, Hi float64
}

// Point returns the degenerate interval [x, x].
func Point(x float64) Interval { return Interval{x, x} }

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
