package social

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dataset"
)

// StudyStart and StudyEnd bound the paper's observation window:
// January 2013 to January 2014 (Unix seconds, UTC).
const (
	StudyStart int64 = 1356998400 // 2013-01-01T00:00:00Z
	StudyEnd   int64 = 1388534400 // 2014-01-01T00:00:00Z
)

// SynthConfig controls the synthetic social-network generator. The
// defaults (DefaultSynthConfig) are calibrated so the paper's Figure 4
// shape holds: weekly periods are mostly empty of like activity while
// half-year periods almost never are.
type SynthConfig struct {
	// Users is the population size (the paper recruited 72).
	Users int
	// Communities is the number of friendship communities. Friendships
	// are dense inside a community and sparse across, which produces
	// the common-friend counts behind static affinity.
	Communities int
	// IntraFriendProb and InterFriendProb are edge probabilities
	// within and across communities.
	IntraFriendProb float64
	InterFriendProb float64
	// Start and End bound the observation window in Unix seconds (the
	// paper observes one year: January 2013 .. January 2014).
	Start, End int64
	// LikesPerUserMean is the mean number of page-like events per user
	// over the whole window. Likes are emitted in bursts, so small
	// periods are often empty even when the yearly count is healthy.
	LikesPerUserMean float64
	// BurstsPerUser is the mean number of activity bursts per user;
	// all of a user's likes fall inside its bursts.
	BurstsPerUser float64
	// BurstLength is the length of one burst in seconds.
	BurstLength int64
	// InterestBreadth is the number of categories a user draws most of
	// its likes from at any moment; smaller means more concentrated
	// interests and therefore higher same-community periodic affinity.
	InterestBreadth int
	// DriftStrength in [0,1] controls how far user interests move over
	// the window. Each user's interest profile interpolates between a
	// start anchor and an end anchor; pairs whose anchors diverge lose
	// periodic affinity over time (the paper's decaying-affinity
	// case), pairs whose anchors converge gain it.
	DriftStrength float64
	Seed          int64
}

// DefaultSynthConfig returns the study-scale configuration: 72 users
// as in the paper, 6 communities, one year of bursty page-likes.
func DefaultSynthConfig() SynthConfig {
	return SynthConfig{
		Users:            72,
		Communities:      6,
		IntraFriendProb:  0.55,
		InterFriendProb:  0.03,
		Start:            StudyStart,
		End:              StudyEnd,
		LikesPerUserMean: 60,
		BurstsPerUser:    7,
		BurstLength:      5 * 24 * 3600,
		InterestBreadth:  10,
		DriftStrength:    0.8,
		Seed:             7,
	}
}

// Validate reports configuration errors.
func (c SynthConfig) Validate() error {
	switch {
	case c.Users < 2:
		return fmt.Errorf("social: SynthConfig.Users must be >= 2, got %d", c.Users)
	case c.Communities <= 0 || c.Communities > c.Users:
		return fmt.Errorf("social: SynthConfig.Communities must be in [1, Users], got %d", c.Communities)
	case c.IntraFriendProb < 0 || c.IntraFriendProb > 1:
		return fmt.Errorf("social: IntraFriendProb %g outside [0,1]", c.IntraFriendProb)
	case c.InterFriendProb < 0 || c.InterFriendProb > 1:
		return fmt.Errorf("social: InterFriendProb %g outside [0,1]", c.InterFriendProb)
	case c.End <= c.Start:
		return fmt.Errorf("social: End %d must be after Start %d", c.End, c.Start)
	case c.LikesPerUserMean <= 0:
		return fmt.Errorf("social: LikesPerUserMean must be positive, got %g", c.LikesPerUserMean)
	case c.BurstsPerUser <= 0:
		return fmt.Errorf("social: BurstsPerUser must be positive, got %g", c.BurstsPerUser)
	case c.BurstLength <= 0:
		return fmt.Errorf("social: BurstLength must be positive, got %d", c.BurstLength)
	case c.InterestBreadth <= 0 || c.InterestBreadth > NumFacebookCategories:
		return fmt.Errorf("social: InterestBreadth %d outside [1,%d]", c.InterestBreadth, NumFacebookCategories)
	case c.DriftStrength < 0 || c.DriftStrength > 1:
		return fmt.Errorf("social: DriftStrength %g outside [0,1]", c.DriftStrength)
	}
	return nil
}

// SynthNetwork is the generator output: the network plus the latent
// structure the user-study simulator needs (community membership and
// per-user interest anchors, which determine the ground-truth affinity
// dynamics).
type SynthNetwork struct {
	Network *Network
	// Community[u] is u's community index.
	Community []int
	// Sociability[u] in (0,1] scales how strongly u bonds inside its
	// community: high-sociability members form the community core
	// (many edges, strong ties), low ones its periphery. This is what
	// gives real neighborhoods their heavy-tailed tie strengths — and
	// groups their heterogeneous affinity degrees, without which
	// affinity-aware consensus would have nothing to exploit.
	Sociability []float64
	// StartAnchor[u] and EndAnchor[u] are the category-interest
	// profiles u interpolates between over the window. Each is a
	// probability distribution over categories.
	StartAnchor [][]float64
	EndAnchor   [][]float64
	Config      SynthConfig
}

// InterestProfile returns u's interest distribution at time t, the
// linear interpolation between the start and end anchors.
func (sn *SynthNetwork) InterestProfile(u dataset.UserID, t int64) []float64 {
	frac := float64(t-sn.Config.Start) / float64(sn.Config.End-sn.Config.Start)
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	out := make([]float64, NumFacebookCategories)
	sa, ea := sn.StartAnchor[u], sn.EndAnchor[u]
	for c := range out {
		out[c] = (1-frac)*sa[c] + frac*ea[c]
	}
	return out
}

// interestCosine returns the cosine of the two users' interest
// profiles at time t.
func (sn *SynthNetwork) interestCosine(u, v dataset.UserID, t int64) float64 {
	pu := sn.InterestProfile(u, t)
	pv := sn.InterestProfile(v, t)
	var dot, nu, nv float64
	for c := range pu {
		dot += pu[c] * pv[c]
		nu += pu[c] * pu[c]
		nv += pv[c] * pv[c]
	}
	if nu == 0 || nv == 0 {
		return 0
	}
	return dot / math.Sqrt(nu*nv)
}

// trueAffinitySamples is the number of time points used to integrate
// interest alignment from the window start to the query time.
const trueAffinitySamples = 8

// TrueAffinity returns the latent ground-truth affinity of the pair
// (u,v) at time t in [0,1]. Following the paper's premise that
// affinity is *built up* by shared interests over time (Equation 1
// accumulates per-period drift from the beginning of time), the
// ground truth blends the pair's stable bond (community/friendship)
// with the time-averaged alignment of their interests from the window
// start through t. Pairs whose interests diverged during the window
// have lower affinity now than their friendship alone suggests, and
// vice versa — the signal the temporal models exist to capture.
func (sn *SynthNetwork) TrueAffinity(u, v dataset.UserID, t int64) float64 {
	if t < sn.Config.Start {
		t = sn.Config.Start
	}
	var acc float64
	for i := 0; i < trueAffinitySamples; i++ {
		ts := sn.Config.Start + (t-sn.Config.Start)*int64(i)/int64(trueAffinitySamples-1)
		acc += sn.interestCosine(u, v, ts)
	}
	cosine := acc / trueAffinitySamples

	// The sociability product is computed once so the result is exactly
	// symmetric in (u, v) — (0.7*su)*sv and (0.7*sv)*su differ in the
	// last ulp otherwise.
	soc := sn.Sociability[u] * sn.Sociability[v]
	bond := 0.0
	if sn.Community[u] == sn.Community[v] {
		bond = soc
	}
	if sn.Network.AreFriends(u, v) {
		bond = math.Max(bond, 0.15+0.7*soc)
	}
	return 0.5*bond + 0.5*cosine
}

// GenerateNetwork builds a synthetic social network per cfg.
// Deterministic for a fixed Seed.
func GenerateNetwork(cfg SynthConfig) (*SynthNetwork, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	sn := &SynthNetwork{
		Community:   make([]int, cfg.Users),
		StartAnchor: make([][]float64, cfg.Users),
		EndAnchor:   make([][]float64, cfg.Users),
		Config:      cfg,
	}

	sn.Sociability = make([]float64, cfg.Users)
	for u := 0; u < cfg.Users; u++ {
		sn.Community[u] = u % cfg.Communities // balanced communities
		sn.Sociability[u] = 0.35 + 0.65*rng.Float64()
	}

	// Friendship edges: community-structured with core-periphery
	// degree heterogeneity — edge probability scales with the pair's
	// sociability product (mean product ≈ 0.46, so the configured
	// probabilities are preserved on average).
	const meanSocProduct = 0.46
	var edges [][2]dataset.UserID
	for u := 0; u < cfg.Users; u++ {
		for v := u + 1; v < cfg.Users; v++ {
			p := cfg.InterFriendProb
			if sn.Community[u] == sn.Community[v] {
				p = cfg.IntraFriendProb
			}
			p *= sn.Sociability[u] * sn.Sociability[v] / meanSocProduct
			if p > 1 {
				p = 1
			}
			if rng.Float64() < p {
				edges = append(edges, [2]dataset.UserID{dataset.UserID(u), dataset.UserID(v)})
			}
		}
	}

	// Community interest profiles: each community favors a block of
	// categories; individuals jitter around the community profile and
	// drift toward an end anchor that may leave the community's block.
	commCore := make([][]int, cfg.Communities)
	for c := range commCore {
		core := make([]int, cfg.InterestBreadth)
		for i := range core {
			core[i] = (c*31 + i*7 + rng.Intn(3)) % NumFacebookCategories
		}
		commCore[c] = core
	}

	for u := 0; u < cfg.Users; u++ {
		comm := sn.Community[u]
		sn.StartAnchor[u] = makeProfile(rng, commCore[comm], 0.85)
		// Half the users drift toward a different community's
		// interests (decaying same-community affinity), the other
		// half drift deeper into their own (growing affinity). The
		// drift distance is scaled by DriftStrength.
		var endCore []int
		if rng.Float64() < 0.5 {
			endCore = commCore[(comm+1+rng.Intn(cfg.Communities-1))%cfg.Communities]
		} else {
			endCore = commCore[comm]
		}
		target := makeProfile(rng, endCore, 0.85)
		end := make([]float64, NumFacebookCategories)
		for c := range end {
			end[c] = (1-cfg.DriftStrength)*sn.StartAnchor[u][c] + cfg.DriftStrength*target[c]
		}
		sn.EndAnchor[u] = end
	}

	// Page-like events: bursts at random offsets; each like's category
	// is drawn from the user's interest profile at the event time.
	window := cfg.End - cfg.Start
	var likes []PageLike
	for u := 0; u < cfg.Users; u++ {
		nBursts := 1 + rng.Intn(int(2*cfg.BurstsPerUser))
		nLikes := poissonish(rng, cfg.LikesPerUserMean)
		if nLikes == 0 {
			nLikes = 1
		}
		burstStarts := make([]int64, nBursts)
		for b := range burstStarts {
			burstStarts[b] = cfg.Start + int64(rng.Int63n(window-cfg.BurstLength))
		}
		for l := 0; l < nLikes; l++ {
			bs := burstStarts[rng.Intn(nBursts)]
			t := bs + int64(rng.Int63n(cfg.BurstLength))
			prof := sn.InterestProfile(dataset.UserID(u), t)
			likes = append(likes, PageLike{
				User:     dataset.UserID(u),
				Category: sampleCategory(rng, prof),
				Time:     t,
			})
		}
	}
	sn.Network = NewNetwork(cfg.Users, edges, likes)
	return sn, nil
}

// makeProfile builds a probability distribution over categories that
// puts coreMass on the core categories and spreads the rest uniformly.
func makeProfile(rng *rand.Rand, core []int, coreMass float64) []float64 {
	p := make([]float64, NumFacebookCategories)
	rest := (1 - coreMass) / float64(NumFacebookCategories)
	for c := range p {
		p[c] = rest
	}
	// Random weights over the core so users of one community are
	// similar but not identical.
	ws := make([]float64, len(core))
	var wSum float64
	for i := range ws {
		ws[i] = 0.3 + rng.Float64()
		wSum += ws[i]
	}
	for i, c := range core {
		p[c] += coreMass * ws[i] / wSum
	}
	return p
}

// sampleCategory draws a category index from distribution p.
func sampleCategory(rng *rand.Rand, p []float64) int {
	x := rng.Float64()
	var cum float64
	for c, pc := range p {
		cum += pc
		if x < cum {
			return c
		}
	}
	return len(p) - 1
}

// poissonish samples a Poisson-like count via a normal approximation,
// adequate for the means used here and free of extra dependencies.
func poissonish(rng *rand.Rand, mean float64) int {
	n := int(math.Round(mean + math.Sqrt(mean)*rng.NormFloat64()))
	if n < 0 {
		n = 0
	}
	return n
}
