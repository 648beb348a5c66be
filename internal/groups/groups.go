// Package groups implements the paper's group formation protocol
// (§4.1.3): ad-hoc groups controlled by three factors — size (small=3,
// large=6), cohesiveness (similar groups maximize the sum of pairwise
// rating similarities, dissimilar groups minimize it) and affinity
// strength (high-affinity groups have every pairwise affinity ≥ 0.4).
package groups

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/affinity"
	"repro/internal/cf"
	"repro/internal/dataset"
)

// Paper constants (§4.1.3).
const (
	// SmallSize and LargeSize are the two group sizes the paper studies.
	SmallSize = 3
	LargeSize = 6
	// HighAffinityThreshold: a group has high affinity when every
	// pairwise affinity is at least this value.
	HighAffinityThreshold = 0.4
)

// Characteristic labels the paper's six group axes (the x-axis of
// Figures 1-3 and 7).
type Characteristic int

const (
	Similar Characteristic = iota
	Dissimilar
	Small
	Large
	HighAffinity
	LowAffinity
)

// Characteristics lists all six in the paper's figure order.
func Characteristics() []Characteristic {
	return []Characteristic{Similar, Dissimilar, Small, Large, HighAffinity, LowAffinity}
}

// String returns the paper's chart label.
func (c Characteristic) String() string {
	switch c {
	case Similar:
		return "Sim"
	case Dissimilar:
		return "Diss"
	case Small:
		return "Small"
	case Large:
		return "Large"
	case HighAffinity:
		return "High Aff"
	case LowAffinity:
		return "Low Aff"
	default:
		return fmt.Sprintf("Characteristic(%d)", int(c))
	}
}

// Group is an ad-hoc user group plus the labels it was formed under.
type Group struct {
	Members []dataset.UserID
	Traits  []Characteristic
}

// Former builds groups from a user pool using rating similarity (from
// the CF predictor) and temporal affinity (from the affinity model, at
// its final period).
type Former struct {
	Pred  *cf.Predictor
	Model *affinity.Model
	Rng   *rand.Rand
}

// NewFormer wires a former; rng may be nil for a fixed default seed.
func NewFormer(pred *cf.Predictor, model *affinity.Model, rng *rand.Rand) *Former {
	if rng == nil {
		rng = rand.New(rand.NewSource(42))
	}
	return &Former{Pred: pred, Model: model, Rng: rng}
}

// affinityNow returns the discrete temporal affinity of a pair at the
// model's final period — the "current" affinity used to classify
// groups as high or low affinity.
func (f *Former) affinityNow(u, v dataset.UserID) float64 {
	return f.Model.Discrete(u, v, f.Model.Timeline.NumPeriods()-1)
}

// Random samples a uniform group of the given size from pool.
func (f *Former) Random(pool []dataset.UserID, size int) Group {
	f.check(pool, size)
	perm := f.Rng.Perm(len(pool))
	members := make([]dataset.UserID, size)
	for i := 0; i < size; i++ {
		members[i] = pool[perm[i]]
	}
	sortMembers(members)
	return Group{Members: members}
}

// Similar greedily builds a group maximizing the summed pairwise
// cosine similarity: it seeds with the best pair among sampled
// candidates and grows by the member adding the most similarity.
func (f *Former) Similar(pool []dataset.UserID, size int) Group {
	g := f.greedy(pool, size, func(s float64) float64 { return s })
	g.Traits = append(g.Traits, Similar)
	return g
}

// Dissimilar greedily minimizes the summed pairwise similarity.
func (f *Former) Dissimilar(pool []dataset.UserID, size int) Group {
	g := f.greedy(pool, size, func(s float64) float64 { return -s })
	g.Traits = append(g.Traits, Dissimilar)
	return g
}

// greedy builds a group maximizing Σ value(cosine) over pairs.
func (f *Former) greedy(pool []dataset.UserID, size int, value func(float64) float64) Group {
	f.check(pool, size)
	// Seed: best pair over a random candidate sample (quadratic over
	// the full pool is fine at study scale but we cap work anyway).
	cands := samplePool(f.Rng, pool, 48)
	bestI, bestJ, bestV := 0, 1, math.Inf(-1)
	for i := 0; i < len(cands); i++ {
		for j := i + 1; j < len(cands); j++ {
			if v := value(f.Pred.Cosine(cands[i], cands[j])); v > bestV {
				bestI, bestJ, bestV = i, j, v
			}
		}
	}
	members := []dataset.UserID{cands[bestI], cands[bestJ]}
	in := map[dataset.UserID]bool{cands[bestI]: true, cands[bestJ]: true}
	for len(members) < size {
		var best dataset.UserID
		bestGain := math.Inf(-1)
		for _, u := range pool {
			if in[u] {
				continue
			}
			var gain float64
			for _, m := range members {
				gain += value(f.Pred.Cosine(u, m))
			}
			if gain > bestGain {
				bestGain, best = gain, u
			}
		}
		members = append(members, best)
		in[best] = true
	}
	sortMembers(members)
	return Group{Members: members}
}

// HighAffinityGroup builds a group whose every pairwise current
// affinity is at least HighAffinityThreshold, greedily maximizing the
// minimum pairwise affinity. It returns an error when the pool cannot
// support such a group.
func (f *Former) HighAffinityGroup(pool []dataset.UserID, size int) (Group, error) {
	g := f.greedyAffinity(pool, size, true)
	minAff := f.MinPairwiseAffinity(g.Members)
	if minAff < HighAffinityThreshold {
		return Group{}, fmt.Errorf("groups: best achievable min pairwise affinity %.3f below threshold %.1f", minAff, HighAffinityThreshold)
	}
	g.Traits = append(g.Traits, HighAffinity)
	return g, nil
}

// LowAffinityGroup builds a group minimizing the maximum pairwise
// current affinity (members barely know each other).
func (f *Former) LowAffinityGroup(pool []dataset.UserID, size int) Group {
	g := f.greedyAffinity(pool, size, false)
	g.Traits = append(g.Traits, LowAffinity)
	return g
}

// greedyAffinity grows a group optimizing the extremal pairwise
// affinity: maximize the min (high) or minimize the max (low).
func (f *Former) greedyAffinity(pool []dataset.UserID, size int, high bool) Group {
	f.check(pool, size)
	cands := samplePool(f.Rng, pool, 48)
	bestI, bestJ := 0, 1
	bestV := math.Inf(-1)
	for i := 0; i < len(cands); i++ {
		for j := i + 1; j < len(cands); j++ {
			a := f.affinityNow(cands[i], cands[j])
			v := a
			if !high {
				v = -a
			}
			if v > bestV {
				bestI, bestJ, bestV = i, j, v
			}
		}
	}
	members := []dataset.UserID{cands[bestI], cands[bestJ]}
	in := map[dataset.UserID]bool{cands[bestI]: true, cands[bestJ]: true}
	for len(members) < size {
		var best dataset.UserID
		bestScore := math.Inf(-1)
		for _, u := range pool {
			if in[u] {
				continue
			}
			// Extremal affinity of u against current members.
			ext := math.Inf(1)
			if !high {
				ext = math.Inf(-1)
			}
			for _, m := range members {
				a := f.affinityNow(u, m)
				if high {
					ext = math.Min(ext, a)
				} else {
					ext = math.Max(ext, a)
				}
			}
			score := ext
			if !high {
				score = -ext
			}
			if score > bestScore {
				bestScore, best = score, u
			}
		}
		members = append(members, best)
		in[best] = true
	}
	sortMembers(members)
	return Group{Members: members}
}

// MinPairwiseAffinity returns the minimum current pairwise affinity in
// the member set.
func (f *Former) MinPairwiseAffinity(members []dataset.UserID) float64 {
	minA := math.Inf(1)
	for i := range members {
		for j := i + 1; j < len(members); j++ {
			if a := f.affinityNow(members[i], members[j]); a < minA {
				minA = a
			}
		}
	}
	if math.IsInf(minA, 1) {
		return 0
	}
	return minA
}

// MeanPairwiseSimilarity returns the average pairwise cosine rating
// similarity of the member set.
func (f *Former) MeanPairwiseSimilarity(members []dataset.UserID) float64 {
	n := len(members)
	if n < 2 {
		return 0
	}
	return f.Pred.PairwiseSimilaritySum(members) * 2 / float64(n*(n-1))
}

// ConstrainedGroup builds a group of the given size that optimizes
// rating cohesiveness (maximize pairwise similarity when cohesive,
// minimize otherwise) subject to the affinity band.
//
// High-affinity groups are formed around a hub, mirroring the paper's
// recruitment (13 seed users each invited 10-20 friends): the hub's
// affinity to every member is strong while member-member affinities
// vary, which is the heterogeneous-affinity regime where affinity-
// aware consensus actually reorders recommendations. Low-affinity
// groups keep every pairwise affinity below the threshold.
func (f *Former) ConstrainedGroup(pool []dataset.UserID, size int, cohesive, highAff bool) Group {
	f.check(pool, size)
	if highAff {
		return f.hubGroup(pool, size, cohesive)
	}
	simValue := func(s float64) float64 { return s }
	if !cohesive {
		simValue = func(s float64) float64 { return -s }
	}
	inBand := func(a float64) bool {
		if highAff {
			return a >= HighAffinityThreshold
		}
		return a < HighAffinityThreshold
	}

	// Seed pair: best cohesiveness value among in-band pairs (fall
	// back to the pair closest to the band).
	cands := samplePool(f.Rng, pool, 48)
	bestI, bestJ := -1, -1
	bestV := math.Inf(-1)
	fbI, fbJ := 0, 1
	fbV := math.Inf(-1)
	for i := 0; i < len(cands); i++ {
		for j := i + 1; j < len(cands); j++ {
			a := f.affinityNow(cands[i], cands[j])
			v := simValue(f.Pred.Cosine(cands[i], cands[j]))
			if inBand(a) {
				if v > bestV {
					bestI, bestJ, bestV = i, j, v
				}
			} else if bandCloseness(a, highAff) > fbV {
				fbI, fbJ, fbV = i, j, bandCloseness(a, highAff)
			}
		}
	}
	if bestI < 0 {
		bestI, bestJ = fbI, fbJ
	}
	members := []dataset.UserID{cands[bestI], cands[bestJ]}
	in := map[dataset.UserID]bool{cands[bestI]: true, cands[bestJ]: true}

	for len(members) < size {
		var best, fallback dataset.UserID
		bestGain := math.Inf(-1)
		fallbackBand := math.Inf(-1)
		haveBest := false
		for _, u := range pool {
			if in[u] {
				continue
			}
			ok := true
			worstBand := math.Inf(1)
			var gain float64
			for _, m := range members {
				a := f.affinityNow(u, m)
				if !inBand(a) {
					ok = false
				}
				if b := bandCloseness(a, highAff); b < worstBand {
					worstBand = b
				}
				gain += simValue(f.Pred.Cosine(u, m))
			}
			if ok && gain > bestGain {
				bestGain, best = gain, u
				haveBest = true
			}
			if !haveBest && worstBand > fallbackBand {
				fallbackBand, fallback = worstBand, u
			}
		}
		if haveBest {
			members = append(members, best)
		} else {
			members = append(members, fallback)
		}
		in[members[len(members)-1]] = true
	}
	sortMembers(members)

	traits := []Characteristic{}
	if cohesive {
		traits = append(traits, Similar)
	} else {
		traits = append(traits, Dissimilar)
	}
	if highAff {
		traits = append(traits, HighAffinity)
	} else {
		traits = append(traits, LowAffinity)
	}
	return Group{Members: members, Traits: traits}
}

// bandCloseness scores how close affinity a is to the requested band
// (higher is better) for fallback selection.
func bandCloseness(a float64, highAff bool) float64 {
	if highAff {
		return a - HighAffinityThreshold
	}
	return HighAffinityThreshold - a
}

// hubGroup forms a high-affinity group around the pool member with the
// strongest neighborhood: the hub plus size-1 of its high-affinity
// contacts, chosen greedily for the requested cohesiveness.
func (f *Former) hubGroup(pool []dataset.UserID, size int, cohesive bool) Group {
	simValue := func(s float64) float64 { return s }
	if !cohesive {
		simValue = func(s float64) float64 { return -s }
	}

	type hubCand struct {
		hub      dataset.UserID
		contacts []dataset.UserID
		score    float64
	}
	best := hubCand{score: math.Inf(-1)}
	// Randomize hub choice across a sample so repeated calls with
	// different seeds yield different groups.
	cands := samplePool(f.Rng, pool, 48)
	for _, h := range cands {
		var contacts []dataset.UserID
		var affs []float64
		for _, u := range pool {
			if u == h {
				continue
			}
			if a := f.affinityNow(h, u); a >= HighAffinityThreshold {
				contacts = append(contacts, u)
				affs = append(affs, a)
			}
		}
		if len(contacts) < size-1 {
			continue
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(affs)))
		var score float64
		for _, a := range affs[:size-1] {
			score += a
		}
		if score > best.score {
			best = hubCand{hub: h, contacts: contacts, score: score}
		}
	}
	if best.contacts == nil {
		// No hub has enough strong contacts; fall back to the generic
		// greedy high-band group.
		g := f.greedyAffinity(pool, size, true)
		g.Traits = traitsFor(cohesive, true)
		return g
	}

	members := []dataset.UserID{best.hub}
	in := map[dataset.UserID]bool{best.hub: true}
	for len(members) < size {
		var bestU dataset.UserID
		bestGain := math.Inf(-1)
		for _, u := range best.contacts {
			if in[u] {
				continue
			}
			var gain float64
			for _, m := range members {
				gain += simValue(f.Pred.Cosine(u, m))
			}
			// Prefer stronger hub ties on near-equal cohesiveness.
			gain += 0.01 * f.affinityNow(best.hub, u)
			if gain > bestGain {
				bestGain, bestU = gain, u
			}
		}
		members = append(members, bestU)
		in[bestU] = true
	}
	sortMembers(members)
	return Group{Members: members, Traits: traitsFor(cohesive, true)}
}

func traitsFor(cohesive, highAff bool) []Characteristic {
	traits := []Characteristic{}
	if cohesive {
		traits = append(traits, Similar)
	} else {
		traits = append(traits, Dissimilar)
	}
	if highAff {
		traits = append(traits, HighAffinity)
	} else {
		traits = append(traits, LowAffinity)
	}
	return traits
}

// StudyGroups forms the paper's eight evaluation groups: all
// combinations of {small, large} × {similar, dissimilar} × {high, low
// affinity}, each greedily optimized for cohesiveness inside its
// affinity band and tagged with its size trait.
func (f *Former) StudyGroups(pool []dataset.UserID) []Group {
	var out []Group
	for _, size := range []int{SmallSize, LargeSize} {
		sizeTrait := Small
		if size == LargeSize {
			sizeTrait = Large
		}
		for _, cohesive := range []bool{true, false} {
			for _, highAff := range []bool{true, false} {
				g := f.ConstrainedGroup(pool, size, cohesive, highAff)
				g.Traits = append([]Characteristic{sizeTrait}, g.Traits...)
				out = append(out, g)
			}
		}
	}
	return out
}

func (f *Former) check(pool []dataset.UserID, size int) {
	if size < 2 {
		panic(fmt.Sprintf("groups: group size %d below 2", size))
	}
	if size > len(pool) {
		panic(fmt.Sprintf("groups: group size %d exceeds pool %d", size, len(pool)))
	}
}

func samplePool(rng *rand.Rand, pool []dataset.UserID, n int) []dataset.UserID {
	if n >= len(pool) {
		out := append([]dataset.UserID(nil), pool...)
		return out
	}
	perm := rng.Perm(len(pool))
	out := make([]dataset.UserID, n)
	for i := 0; i < n; i++ {
		out[i] = pool[perm[i]]
	}
	return out
}

func sortMembers(ms []dataset.UserID) {
	sort.Slice(ms, func(i, j int) bool { return ms[i] < ms[j] })
}
