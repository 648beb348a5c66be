package core

import (
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/consensus"
)

// benchProblemInput is a paper-shaped instance: a mid-size group over a
// large candidate pool, AP consensus under the discrete model.
func benchProblemInput(g, m int) Input {
	rng := rand.New(rand.NewSource(42))
	return randomViewInput(rng, g, m, 10, consensus.AP(), DiscreteAggregator{Periods: 2}, false)
}

// benchViewSet is the repeated-group sweep shape: the per-member sorted
// views are precomputed once (the list store's amortized work) and
// every per-request construction filters them through the identity
// mapping.
func benchViewSet(in Input) ViewSet {
	g := len(in.Apref)
	m := len(in.Apref[0])
	localOf := make([]int32, m)
	for p := range localOf {
		localOf[p] = int32(p)
	}
	vs := ViewSet{LocalOf: localOf, Members: make([]*SortedView, g)}
	for u := 0; u < g; u++ {
		vs.Members[u] = sortedViewOf(in.Apref[u])
	}
	return vs
}

// BenchmarkNewProblem measures the re-sorting constructor on a
// repeated-group sweep — the per-request O(g·m log m) the list store
// exists to amortize away.
func BenchmarkNewProblem(b *testing.B) {
	in := benchProblemInput(5, 3900)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewProblem(in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProblemFromViews measures the view-filtering constructor over
// precomputed views with pooled entry buffers — same instance, same
// output, amortized sort.
func BenchmarkProblemFromViews(b *testing.B) {
	in := benchProblemInput(5, 3900)
	vs := benchViewSet(in)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := NewProblemFromViews(in, vs)
		if err != nil {
			b.Fatal(err)
		}
		p.Release()
	}
}

// benchPDInput is the pairwise-disagreement shape where agreement-list
// prework dominates: g(g-1)/2 pair lists over the full item pool.
func benchPDInput(g, m int) Input {
	rng := rand.New(rand.NewSource(42))
	in := randomInput(rng, g, m, 2, 10, consensus.PD(0.8), DiscreteAggregator{Periods: 2})
	in.PartitionAffinity = true
	return in
}

// BenchmarkPDLazyLists measures PD problem construction with the lazy
// agreement lists: building the problem installs closures only, so the
// former O(g²·m log m) fill-and-sort prework vanishes from this path.
// Compare against BenchmarkPDEagerLists, which forces the old eager
// materialization inside the same constructor.
func BenchmarkPDLazyLists(b *testing.B) {
	for _, g := range []int{5, 10} {
		b.Run(benchName("g", g), func(b *testing.B) {
			in := benchPDInput(g, 3900)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := NewProblem(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPDEagerLists is the pre-lazy baseline: the same construction
// with every agreement list force-built, i.e. what every PD request
// paid before laziness.
func BenchmarkPDEagerLists(b *testing.B) {
	for _, g := range []int{5, 10} {
		b.Run(benchName("g", g), func(b *testing.B) {
			in := benchPDInput(g, 3900)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p, err := NewProblem(in)
				if err != nil {
					b.Fatal(err)
				}
				forceMaterialize(p)
			}
		})
	}
}

func benchName(prefix string, v int) string {
	return prefix + "=" + strconv.Itoa(v)
}

// BenchmarkGRECARun measures one GRECA run to completion on a prebuilt
// problem — the stepper alone, stopping checks included, without list
// construction: the serving benchmark's commonest request shape (g=5
// over 600 candidates, K=10, partitioned affinity) under each
// consensus family.
func BenchmarkGRECARun(b *testing.B) {
	for _, c := range []struct {
		name string
		spec consensus.Spec
	}{{"AP", consensus.AP()}, {"MO", consensus.MO()}, {"PD", consensus.PD(0.8)}} {
		b.Run(c.name, func(b *testing.B) {
			in := benchProblemInput(5, 600)
			in.Spec = c.spec
			in.PartitionAffinity = true
			p, err := NewProblem(in)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.Run(ModeGRECA); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
