package core

import (
	"math"
	"slices"
	"sync"
)

// The canonical order (descending Value, ascending Key) is a strict
// total order on entries with distinct keys, so every correct sort
// yields the same bytes; the kernel below is free to be a distribution
// sort. Scores are bounded and spread (or tie) over their range, which
// is what makes one scatter pass nearly a full sort.

const (
	// insertionCutoff is the longest slice sorted by insertion outright —
	// the g·(g−1)/2-entry affinity lists every request builds, and a
	// bucket holding a handful. Measured on view-shaped scores,
	// insertion beats the kernel up to ≈ 20 entries and the kernel
	// beats slices.SortFunc from ≈ 10.
	insertionCutoff = 16
	// distributionLevels bounds how often a crowded bucket is split
	// again before it is handed to the comparison sort, so no input
	// (an outlier beside a cluster beside a cluster …) recurses deeper
	// than this or costs more than O(levels·n + n log n).
	distributionLevels = 3
)

// canonicalBefore reports whether a sorts strictly before b.
func canonicalBefore(a, b Entry) bool {
	return a.Value > b.Value || (a.Value == b.Value && a.Key < b.Key)
}

// compareCanonical is the canonical order as a three-way comparator,
// for the comparison-sort fallbacks.
func compareCanonical(a, b Entry) int {
	switch {
	case canonicalBefore(a, b):
		return -1
	case canonicalBefore(b, a):
		return 1
	}
	return 0
}

// sortScratch is the working memory of one distribution sort: the
// scatter target and one counter block per level.
type sortScratch struct {
	buf    []Entry
	counts []int
}

var sortScratchPool = sync.Pool{New: func() any { return new(sortScratch) }}

// distributionSort is SortCanonical's kernel for n > insertionCutoff:
// distribute over pooled scratch.
func distributionSort(entries []Entry, cmp func(a, b Entry) int) {
	n := len(entries)
	s := sortScratchPool.Get().(*sortScratch)
	if cap(s.buf) < n {
		s.buf = make([]Entry, n)
		s.counts = make([]int, distributionLevels*n)
	}
	distribute(entries, s.buf[:n], s.counts[:distributionLevels*n], cmp, 1)
	sortScratchPool.Put(s)
}

// distribute sorts entries in place. buf has len(entries) and counts at
// least (levels left)·len(entries). cmp is the canonical comparator; it
// is a parameter so a test can count the calls the fallbacks make.
//
// One pass finds the value range, a counting pass assigns each entry the
// bucket int((hi−v)·(n−1)/(hi−lo)) — monotone non-increasing in v under
// IEEE rounding, equal for equal values (±0 included), and at most n−1
// because fl(hi−v) ≤ fl(hi−lo) — and a stable scatter leaves the buckets
// in canonical order relative to each other. Each bucket is then
// finished with the canonical comparator: insertion sort for a handful,
// nothing for a tie run the stable scatter already left in key order,
// another split for a crowded bucket (real views carry ≈ 40 % of their
// entries in a few tie values, each sharing its bucket with a near
// neighbour or two), the comparison sort once the levels run out.
//
// A range that is empty, not finite, or too narrow for a finite scale,
// and any NaN, goes to the comparison sort whole: a value that is not a
// finite number never becomes a bucket index.
func distribute(entries, buf []Entry, counts []int, cmp func(a, b Entry) int, level int) {
	n := len(entries)
	lo, hi := entries[0].Value, entries[0].Value
	nan := lo != lo
	for i := range entries {
		switch v := entries[i].Value; {
		case v < lo:
			lo = v
		case v > hi:
			hi = v
		case v != v:
			nan = true
		}
	}
	span := hi - lo
	scale := float64(n-1) / span
	if nan || !(span > 0) || math.IsInf(span, 0) || math.IsInf(scale, 0) {
		slices.SortFunc(entries, cmp)
		return
	}

	// count[b] is bucket b's size, then its start, then (once the
	// scatter has advanced it) its end.
	count := counts[:n]
	clear(count)
	for i := range entries {
		count[int((hi-entries[i].Value)*scale)]++
	}
	sum := 0
	for b, c := range count {
		count[b] = sum
		sum += c
	}
	for i := range entries {
		b := int((hi - entries[i].Value) * scale)
		buf[count[b]] = entries[i]
		count[b]++
	}
	copy(entries, buf)

	start := 0
	for _, end := range count {
		if size := end - start; size > 1 {
			bucket := entries[start:end]
			switch {
			case size <= insertionCutoff:
				insertionSort(bucket)
			case isCanonical(bucket):
			case level < distributionLevels:
				distribute(bucket, buf[start:end], counts[n:], cmp, level+1)
			default:
				slices.SortFunc(bucket, cmp)
			}
		}
		start = end
	}
}

// isCanonical reports whether entries are already in canonical order.
func isCanonical(entries []Entry) bool {
	for i := 1; i < len(entries); i++ {
		if canonicalBefore(entries[i], entries[i-1]) {
			return false
		}
	}
	return true
}

// insertionSort sorts a handful of entries.
func insertionSort(entries []Entry) {
	for i := 1; i < len(entries); i++ {
		e := entries[i]
		j := i
		for j > 0 && canonicalBefore(e, entries[j-1]) {
			entries[j] = entries[j-1]
			j--
		}
		entries[j] = e
	}
}
