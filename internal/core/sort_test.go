package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
)

// referenceSortCanonical is the comparison sort SortCanonical used to
// be — the differential's reference.
func referenceSortCanonical(entries []Entry) {
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Value != entries[j].Value {
			return entries[i].Value > entries[j].Value
		}
		return entries[i].Key < entries[j].Key
	})
}

// entriesIdentical compares by Key and by the bits of Value, so a
// swapped +0/−0 pair is a divergence.
func entriesIdentical(a, b []Entry) bool {
	return slices.EqualFunc(a, b, func(x, y Entry) bool {
		return x.Key == y.Key && math.Float64bits(x.Value) == math.Float64bits(y.Value)
	})
}

// viewShapedValues draws n scores with the tie structure of a real
// normalized view (bench world: 780–1 090 distinct values in 1 500
// entries, ≈ 40 % of the entries on the five rating levels k/5, a few
// dozen one ulp off a level, the rest spread over [0.2, 1] with small
// repeats).
func viewShapedValues(rng *rand.Rand, n int) []float64 {
	spread := make([]float64, n/2+1)
	for i := range spread {
		spread[i] = 0.2 + 0.8*rng.Float64()
	}
	out := make([]float64, n)
	for i := range out {
		switch r := rng.Float64(); {
		case r < 0.10:
			out[i] = 1
		case r < 0.20:
			out[i] = 0.8
		case r < 0.29:
			out[i] = 0.6
		case r < 0.37:
			out[i] = 0.4
		case r < 0.40:
			out[i] = 0.2
		case r < 0.42:
			out[i] = math.Nextafter(0.6, 1)
		default:
			out[i] = spread[rng.Intn(len(spread))]
		}
	}
	return out
}

// keyAscending wraps values as entries keyed by position — the order
// every caller hands SortCanonical.
func keyAscending(values []float64) []Entry {
	entries := make([]Entry, len(values))
	for i, v := range values {
		entries[i] = Entry{Key: i, Value: v}
	}
	return entries
}

// sortShapes are the value distributions of the differential table.
var sortShapes = []struct {
	name string
	gen  func(rng *rand.Rand, n int) []float64
}{
	{"uniform", func(rng *rand.Rand, n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = rng.Float64()
		}
		return out
	}},
	{"view", viewShapedValues},
	{"all-equal", func(rng *rand.Rand, n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = 0.6
		}
		return out
	}},
	{"two-values", func(rng *rand.Rand, n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = []float64{0.25, 0.75}[rng.Intn(2)]
		}
		return out
	}},
	{"quantized", func(rng *rand.Rand, n int) []float64 {
		levels := 2 + rng.Intn(6)
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(rng.Intn(levels)) / float64(levels-1)
		}
		return out
	}},
	{"signed-zeros", func(rng *rand.Rand, n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = []float64{0, math.Copysign(0, -1), 0.5, -0.5}[rng.Intn(4)]
		}
		return out
	}},
	{"only-zeros", func(rng *rand.Rand, n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = []float64{0, math.Copysign(0, -1)}[rng.Intn(2)]
		}
		return out
	}},
	{"negatives", func(rng *rand.Rand, n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = math.Round((rng.Float64()*2-1)*50) / 50
		}
		return out
	}},
	{"subnormals", func(rng *rand.Rand, n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = math.Float64frombits(uint64(rng.Intn(40))) * float64(1-2*rng.Intn(2))
		}
		return out
	}},
	{"wide-subnormal-range", func(rng *rand.Rand, n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = math.Float64frombits(uint64(rng.Int63n(1 << 50)))
		}
		return out
	}},
	{"outlier-1e300", func(rng *rand.Rand, n int) []float64 {
		out := viewShapedValues(rng, n)
		if n > 0 {
			out[rng.Intn(n)] = 1e300
		}
		return out
	}},
	{"outlier-max", func(rng *rand.Rand, n int) []float64 {
		out := viewShapedValues(rng, n)
		if n > 0 {
			out[rng.Intn(n)] = math.MaxFloat64
		}
		return out
	}},
	{"full-range", func(rng *rand.Rand, n int) []float64 {
		out := viewShapedValues(rng, n)
		if n > 1 {
			out[0], out[n-1] = math.MaxFloat64, -math.MaxFloat64
		}
		return out
	}},
	{"nested-outliers", func(rng *rand.Rand, n int) []float64 {
		// Every level of splitting peels one entry off the rest.
		out := make([]float64, n)
		for i := range out {
			out[i] = math.Ldexp(1, -(i % 900))
		}
		rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}},
	{"infinities", func(rng *rand.Rand, n int) []float64 {
		out := viewShapedValues(rng, n)
		for i := 0; i < 1+n/100 && n > 0; i++ {
			out[rng.Intn(n)] = math.Inf(1 - 2*rng.Intn(2))
		}
		return out
	}},
}

var sortOrders = []struct {
	name    string
	arrange func(rng *rand.Rand, entries []Entry)
}{
	{"key-ascending", func(*rand.Rand, []Entry) {}},
	{"reversed", func(_ *rand.Rand, entries []Entry) { slices.Reverse(entries) }},
	{"shuffled", func(rng *rand.Rand, entries []Entry) {
		rng.Shuffle(len(entries), func(i, j int) { entries[i], entries[j] = entries[j], entries[i] })
	}},
}

var sortSizes = []int{0, 1, insertionCutoff - 1, insertionCutoff, insertionCutoff + 1, 64, 600, 1500, 4096}

// TestSortCanonicalMatchesReference is the byte-identity table: every
// shape × size × input order × seed, kernel against the retired sort.
func TestSortCanonicalMatchesReference(t *testing.T) {
	const seeds = 6
	instances := 0
	for _, shape := range sortShapes {
		for _, n := range sortSizes {
			for _, order := range sortOrders {
				for seed := int64(0); seed < seeds; seed++ {
					rng := rand.New(rand.NewSource(seed*7919 + int64(n)))
					got := keyAscending(shape.gen(rng, n))
					order.arrange(rng, got)
					want := slices.Clone(got)
					referenceSortCanonical(want)
					SortCanonical(got)
					instances++
					if !entriesIdentical(got, want) {
						t.Fatalf("%s n=%d %s seed=%d: kernel diverges from the reference sort", shape.name, n, order.name, seed)
					}
				}
			}
		}
	}
	if instances < 2000 {
		t.Fatalf("table has %d instances, want at least 2000", instances)
	}
}

// TestSortCanonicalNaNIsAPermutation: a NaN leaves the order
// unspecified, as it always was, but the kernel must neither panic nor
// index outside its buckets, and must return the entries it was given.
func TestSortCanonicalNaNIsAPermutation(t *testing.T) {
	byKey := func(a, b Entry) int { return a.Key - b.Key }
	for _, n := range sortSizes {
		for _, nans := range []int{1, 3, n} {
			for _, order := range sortOrders {
				rng := rand.New(rand.NewSource(int64(n*31 + nans)))
				values := viewShapedValues(rng, n)
				for i := 0; i < nans && n > 0; i++ {
					values[rng.Intn(n)] = math.NaN()
				}
				if n > 2 {
					values[rng.Intn(n)] = math.Inf(1)
				}
				entries := keyAscending(values)
				order.arrange(rng, entries)
				SortCanonical(entries)
				slices.SortFunc(entries, byKey)
				for i, e := range entries {
					if e.Key != i || math.Float64bits(e.Value) != math.Float64bits(values[i]) {
						t.Fatalf("n=%d nans=%d %s: output is not a permutation of the input at key %d", n, nans, order.name, i)
					}
				}
			}
		}
	}
}

// TestSortCanonicalComparisonsBounded: an input built to defeat the
// value-range split — one outlier collapsing everything else into one
// bucket, or a geometric ladder that peels one entry per level — costs
// a comparison sort at worst, never a quadratic finish.
func TestSortCanonicalComparisonsBounded(t *testing.T) {
	for _, shape := range []string{"outlier-1e300", "outlier-max", "nested-outliers", "uniform"} {
		for _, n := range []int{600, 1500, 4096} {
			for _, order := range sortOrders {
				rng := rand.New(rand.NewSource(int64(n)))
				var gen func(*rand.Rand, int) []float64
				for _, s := range sortShapes {
					if s.name == shape {
						gen = s.gen
					}
				}
				entries := keyAscending(gen(rng, n))
				order.arrange(rng, entries)
				want := slices.Clone(entries)
				referenceSortCanonical(want)
				calls := 0
				distributionSort(entries, func(a, b Entry) int {
					calls++
					return compareCanonical(a, b)
				})
				if !entriesIdentical(entries, want) {
					t.Fatalf("%s n=%d %s: kernel diverges from the reference sort", shape, n, order.name)
				}
				if bound := int(3 * float64(n) * math.Log2(float64(n))); calls > bound {
					t.Errorf("%s n=%d %s: %d comparator calls, bound %d", shape, n, order.name, calls, bound)
				}
			}
		}
	}
}

// TestSortCanonicalConcurrent shares the scratch pool between
// goroutines; run under -race.
func TestSortCanonicalConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for round := 0; round < 40; round++ {
				n := []int{100, 600, 1500, 2500}[rng.Intn(4)]
				got := keyAscending(viewShapedValues(rng, n))
				want := slices.Clone(got)
				referenceSortCanonical(want)
				SortCanonical(got)
				if !entriesIdentical(got, want) {
					t.Errorf("goroutine %d round %d n=%d: kernel diverges from the reference sort", g, round, n)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// FuzzSortCanonicalMatchesReference decodes the input as float64 bit
// patterns (so NaN, ±Inf, ±0 and subnormals are all one mutation away)
// and repeats them to the requested length, which also makes ties.
func FuzzSortCanonicalMatchesReference(f *testing.F) {
	seed := func(n uint16, values ...float64) {
		raw := make([]byte, 0, 8*len(values))
		for _, v := range values {
			raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(v))
		}
		f.Add(n, int64(len(values)), raw)
	}
	seed(0)
	seed(1, 0.5)
	seed(64, 1, 0.8, 0.6, 0.4, 0.2)
	seed(600, 0, math.Copysign(0, -1), 0.5)
	seed(1500, 1e300, 0.2, 1, 0.6)
	seed(200, math.MaxFloat64, -math.MaxFloat64, 0)
	seed(300, math.Inf(1), 0.3, math.Inf(-1))
	seed(128, math.NaN(), 0.3, 0.9)
	seed(100, 5e-324, 1e-320, 0)
	f.Fuzz(func(t *testing.T, n uint16, shuffle int64, raw []byte) {
		if len(raw) < 8 {
			return
		}
		distinct := len(raw) / 8
		size := int(n) % 5000
		values := make([]float64, size)
		hasNaN := false
		for i := range values {
			v := math.Float64frombits(binary.LittleEndian.Uint64(raw[8*(i%distinct):]))
			hasNaN = hasNaN || v != v
			values[i] = v
		}
		got := keyAscending(values)
		if shuffle != 0 {
			rng := rand.New(rand.NewSource(shuffle))
			rng.Shuffle(len(got), func(i, j int) { got[i], got[j] = got[j], got[i] })
		}
		want := slices.Clone(got)
		SortCanonical(got)
		if hasNaN {
			slices.SortFunc(got, func(a, b Entry) int { return a.Key - b.Key })
			slices.SortFunc(want, func(a, b Entry) int { return a.Key - b.Key })
		} else {
			referenceSortCanonical(want)
		}
		if !entriesIdentical(got, want) {
			t.Fatalf("n=%d distinct=%d shuffle=%d: kernel diverges from the reference sort", size, distinct, shuffle)
		}
	})
}

var sortSink []Entry

// BenchmarkSortCanonical sorts view-shaped, key-ascending input — what
// a view build hands the kernel. Steady state allocates nothing.
func BenchmarkSortCanonical(b *testing.B) {
	for _, n := range []int{1500, 600, 10} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			src := keyAscending(viewShapedValues(rand.New(rand.NewSource(1)), n))
			work := make([]Entry, n)
			copy(work, src)
			SortCanonical(work) // fill the scratch pool
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(work, src)
				SortCanonical(work)
			}
			sortSink = work
		})
	}
}
