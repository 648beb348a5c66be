package affinity

import (
	"fmt"
	"math"

	"repro/internal/dataset"
)

// ClusteredIndex is the paper's §6 future-work structure: instead of
// storing all n(n−1)/2 pairwise affinities per period, users are
// clustered by their affinity behaviour and only cluster-pair
// aggregates are kept, together with the maximum residual ε observed
// during construction. Approximate affinities carry the guarantee
// |approx − exact| ≤ ε, so a top-k engine can widen its intervals by ε
// and keep its correctness guarantee while reading a much smaller
// index — "the minimum amount of information to store that guarantees
// instance optimality".
type ClusteredIndex struct {
	// Assign[i] is the cluster of m.Users[i].
	Assign []int
	// K is the number of clusters.
	K int
	// staticC[cp] is the mean static affinity of cluster pair cp
	// (indexed like user pairs but over clusters, including the
	// diagonal a==b).
	staticC []float64
	// driftC[t][cp] is the mean drift of cluster pair cp in period t.
	driftC [][]float64
	// Eps is the maximum absolute residual between an exact pairwise
	// component (static or drift) and its cluster-pair aggregate.
	Eps float64

	model *Model
}

// clusterPairIndex maps an unordered cluster pair (a<=b) over k
// clusters to a dense index.
func clusterPairIndex(k, a, b int) int {
	if a > b {
		a, b = b, a
	}
	// Row a starts after a*(k) - a*(a-1)/2 entries (diagonal kept).
	return a*k - a*(a-1)/2 + (b - a)
}

func numClusterPairs(k int) int { return k * (k + 1) / 2 }

// BuildClusteredIndex clusters the model's users into k clusters by
// their affinity behaviour (mean static affinity and per-period mean
// drift toward the rest of the population) using deterministic k-means
// and aggregates all pairwise components per cluster pair. Each pass
// reads every pair once, in (i, j > i) order, from the model's sources.
func BuildClusteredIndex(m *Model, k int) (*ClusteredIndex, error) {
	n := len(m.Users)
	if k < 1 || k > n {
		return nil, fmt.Errorf("affinity: cluster count %d outside [1,%d]", k, n)
	}
	// Feature vector per user: [mean static, mean drift per period],
	// each summed over the other users in row order. Pair (i, j) adds
	// to both users; rows are walked in order, so user i sees its
	// partners j < i (from their rows) and then j > i (from its own).
	feats := make([][]float64, n)
	for i := range feats {
		feats[i] = make([]float64, 1+len(m.drift))
	}
	m.eachPair(func(i, j int, vals []float64) {
		for d, x := range vals {
			feats[i][d] += x
			feats[j][d] += x
		}
	})
	for _, f := range feats {
		for d := range f {
			f[d] /= float64(n - 1)
		}
	}

	assign := kmeans(feats, k, 25)

	ci := &ClusteredIndex{
		Assign:  assign,
		K:       k,
		staticC: make([]float64, numClusterPairs(k)),
		driftC:  make([][]float64, len(m.drift)),
		model:   m,
	}
	for t := range ci.driftC {
		ci.driftC[t] = make([]float64, numClusterPairs(k))
	}
	counts := make([]int, numClusterPairs(k))
	m.eachPair(func(i, j int, vals []float64) {
		cp := clusterPairIndex(k, assign[i], assign[j])
		counts[cp]++
		ci.staticC[cp] += vals[0]
		for t, x := range vals[1:] {
			ci.driftC[t][cp] += x
		}
	})
	for cp := range counts {
		if counts[cp] == 0 {
			continue
		}
		ci.staticC[cp] /= float64(counts[cp])
		for t := range ci.driftC {
			ci.driftC[t][cp] /= float64(counts[cp])
		}
	}

	// Residual bound over every stored component.
	m.eachPair(func(i, j int, vals []float64) {
		cp := clusterPairIndex(k, assign[i], assign[j])
		if d := math.Abs(vals[0] - ci.staticC[cp]); d > ci.Eps {
			ci.Eps = d
		}
		for t, x := range vals[1:] {
			if d := math.Abs(x - ci.driftC[t][cp]); d > ci.Eps {
				ci.Eps = d
			}
		}
	})
	return ci, nil
}

// eachPair calls fn for every pair of rows (i, j > i) in index order,
// with both rows in hand, and the pair's components: vals[0] its static
// affinity, vals[1+t] its drift in period t. vals is reused between
// calls.
func (m *Model) eachPair(fn func(i, j int, vals []float64)) {
	vals := make([]float64, 1+len(m.drift))
	for i, u := range m.Users {
		for j := i + 1; j < len(m.Users); j++ {
			v := m.Users[j]
			vals[0] = m.static.value(u, v)
			for t := range m.drift {
				vals[1+t] = m.drift[t].value(u, v)
			}
			fn(i, j, vals)
		}
	}
}

// kmeans is a small deterministic Lloyd's iteration: centroids seeded
// by evenly spaced points of the (stable) user order.
func kmeans(feats [][]float64, k, iters int) []int {
	n := len(feats)
	dims := len(feats[0])
	cents := make([][]float64, k)
	for c := 0; c < k; c++ {
		cents[c] = append([]float64(nil), feats[c*n/k]...)
	}
	assign := make([]int, n)
	for iter := 0; iter < iters; iter++ {
		changed := false
		for i, f := range feats {
			best, bestD := 0, math.Inf(1)
			for c := range cents {
				var d float64
				for x := 0; x < dims; x++ {
					diff := f[x] - cents[c][x]
					d += diff * diff
				}
				if d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if !changed && iter > 0 {
			break
		}
		counts := make([]int, k)
		for c := range cents {
			for x := range cents[c] {
				cents[c][x] = 0
			}
		}
		for i, f := range feats {
			c := assign[i]
			counts[c]++
			for x := 0; x < dims; x++ {
				cents[c][x] += f[x]
			}
		}
		for c := range cents {
			if counts[c] == 0 {
				continue // empty cluster keeps its previous centroid
			}
			for x := range cents[c] {
				cents[c][x] /= float64(counts[c])
			}
		}
	}
	return assign
}

// ApproxStatic returns the cluster-level static affinity of (u,v);
// the exact value lies within ±Eps.
func (ci *ClusteredIndex) ApproxStatic(u, v dataset.UserID) float64 {
	return ci.staticC[ci.pairOf(u, v)]
}

// ApproxDrift returns the cluster-level drift of (u,v) in period t.
func (ci *ClusteredIndex) ApproxDrift(u, v dataset.UserID, t int) float64 {
	return ci.driftC[t][ci.pairOf(u, v)]
}

// ApproxDiscrete mirrors Model.Discrete over the compressed index.
func (ci *ClusteredIndex) ApproxDiscrete(u, v dataset.UserID, upTo int) float64 {
	var s float64
	for t := 0; t <= upTo; t++ {
		s += ci.ApproxDrift(u, v, t)
	}
	return clamp01(ci.ApproxStatic(u, v) + s/float64(upTo+1))
}

func (ci *ClusteredIndex) pairOf(u, v dataset.UserID) int {
	return clusterPairIndex(ci.K, ci.clusterOf(u), ci.clusterOf(v))
}

func (ci *ClusteredIndex) clusterOf(u dataset.UserID) int {
	i := ci.model.row(u)
	if i < 0 {
		panic(fmt.Sprintf("affinity: user %d not in clustered index", u))
	}
	return ci.Assign[i]
}

// StoredEntries returns the number of affinity entries the compressed
// index keeps (cluster pairs × (1 static + T drift rows)).
func (ci *ClusteredIndex) StoredEntries() int {
	return numClusterPairs(ci.K) * (1 + len(ci.driftC))
}

// ExactEntries returns the entry count of the uncompressed index.
func (ci *ClusteredIndex) ExactEntries() int {
	n := len(ci.model.Users)
	return n * (n - 1) / 2 * (1 + len(ci.driftC))
}

// CompressionRatio returns StoredEntries / ExactEntries.
func (ci *ClusteredIndex) CompressionRatio() float64 {
	return float64(ci.StoredEntries()) / float64(ci.ExactEntries())
}

// MeanAbsError measures the average absolute error of the discrete
// affinity over all pairs at the final period — the practical accuracy
// a recommendation engine would see.
func (ci *ClusteredIndex) MeanAbsError() float64 {
	m := ci.model
	last := m.Timeline.NumPeriods() - 1
	var sum float64
	n := 0
	for i, u := range m.Users {
		for _, v := range m.Users[i+1:] {
			sum += math.Abs(m.Discrete(u, v, last) - ci.ApproxDiscrete(u, v, last))
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
