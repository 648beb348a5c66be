package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: a tail estimated from fewer is one or two slow requests.
const minBeyond = 10

// percentile returns the p-th percentile (0 < p < 100) of sorted by
// linear interpolation, and whether at least minBeyond samples lie
// beyond it. Callers report a guarded percentile only when ok.
func percentile(sorted []float64, p float64) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	pos := p / 100 * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	v = sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
	beyond := math.Floor(float64(n) * (1 - p/100))
	return v, beyond >= minBeyond
}

func median(xs []float64) float64 {
	s := sortedCopy(xs)
	v, _ := percentile(s, 50)
	return v
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), so that
// the spreads -compare reports are the ones the driver computes.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 { // i of 4 cut points
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4) // after the clamp, as Python does
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
