package dataset

import (
	"fmt"
	"math"
	"math/rand"
)

// SynthConfig controls the synthetic MovieLens-shaped generator. The
// zero value is not useful; start from DefaultSynthConfig or
// MovieLens1MConfig and override fields.
type SynthConfig struct {
	// Users, Items and TargetRatings fix the marginal sizes
	// (Table 5 of the paper).
	Users         int
	Items         int
	TargetRatings int
	// Genres is the number of latent item categories (MovieLens has
	// 18 genres).
	Genres int
	// Clusters is the number of planted user-taste clusters; users in
	// the same cluster have correlated genre preferences, which is
	// what gives cosine-similarity collaborative filtering signal.
	Clusters int
	// PopularitySkew in (0, +inf) controls the long tail of item
	// popularity: the probability of picking the r-th most popular
	// item decays like a power law; larger values concentrate ratings
	// on fewer items. MovieLens 1M is roughly Zipfian with exponent
	// near 1; PopularitySkew 2 reproduces a comparable head/tail split
	// under our inverse-CDF sampler.
	PopularitySkew float64
	// RatingNoise is the standard deviation of the Gaussian noise
	// added to the latent score before rounding to a 1..5 star.
	RatingNoise float64
	// TasteStrength scales how strongly a user's cluster-genre match
	// moves the rating away from the item's base quality. Zero makes
	// all users interchangeable; 1.5 yields realistic rating variance.
	TasteStrength float64
	// ParticipantUsers, when positive, marks the first N users as
	// study participants whose rating counts are drawn uniformly from
	// [ParticipantMinRatings, ParticipantMaxRatings] instead of the
	// heavy-tailed activity distribution. The paper's 72 recruits
	// rated ~27 movies each on average (1,981 ratings), far below the
	// MovieLens per-user mean; without this, a random participant
	// could have rated thousands of items and starve the group's
	// candidate pool.
	ParticipantUsers      int
	ParticipantMinRatings int
	ParticipantMaxRatings int
	// ParticipantPoolSize restricts participant study ratings to the
	// most popular ParticipantPoolSize items, like the paper's
	// protocol where recruits rated movies from the pre-computed
	// popular and diversity sets. Dense overlap on a shared pool is
	// what gives user-user cosine similarity real signal for small
	// raters. 0 lets participants rate anywhere.
	ParticipantPoolSize int
	// ParticipantExtraMean is the mean number of additional catalog
	// ratings each participant has beyond the study pool (their
	// ordinary MovieLens history). Without this, collaborative
	// filtering has no per-participant signal outside the pool and
	// every member's predictions collapse to item means. 0 disables.
	ParticipantExtraMean float64
	// Seed makes generation deterministic.
	Seed int64
}

// DefaultSynthConfig is a laptop-friendly dataset with the same shape
// as MovieLens 1M at roughly 1/10 the rating volume. It is the default
// substrate of the scalability experiments, which the paper runs on
// MovieLens-derived preference lists of up to 3,900 items.
func DefaultSynthConfig() SynthConfig {
	return SynthConfig{
		Users:          1200,
		Items:          3952,
		TargetRatings:  100_000,
		Genres:         18,
		Clusters:       8,
		PopularitySkew: 2.0,
		RatingNoise:    0.5,
		TasteStrength:  2.0,
		Seed:           1,
	}
}

// MovieLens1MConfig reproduces the full Table 5 marginals:
// 6,040 users, 3,952 movies, 1,000,209 ratings.
func MovieLens1MConfig() SynthConfig {
	c := DefaultSynthConfig()
	c.Users = 6040
	c.Items = 3952
	c.TargetRatings = 1_000_209
	return c
}

// Validate reports configuration errors before any expensive work.
func (c SynthConfig) Validate() error {
	switch {
	case c.Users <= 0:
		return fmt.Errorf("dataset: SynthConfig.Users must be positive, got %d", c.Users)
	case c.Items <= 0:
		return fmt.Errorf("dataset: SynthConfig.Items must be positive, got %d", c.Items)
	case c.TargetRatings <= 0:
		return fmt.Errorf("dataset: SynthConfig.TargetRatings must be positive, got %d", c.TargetRatings)
	case c.TargetRatings > c.Users*c.Items:
		return fmt.Errorf("dataset: TargetRatings %d exceeds Users*Items %d", c.TargetRatings, c.Users*c.Items)
	case c.Genres <= 0:
		return fmt.Errorf("dataset: SynthConfig.Genres must be positive, got %d", c.Genres)
	case c.Clusters <= 0:
		return fmt.Errorf("dataset: SynthConfig.Clusters must be positive, got %d", c.Clusters)
	case c.PopularitySkew <= 0:
		return fmt.Errorf("dataset: SynthConfig.PopularitySkew must be positive, got %g", c.PopularitySkew)
	case c.RatingNoise < 0:
		return fmt.Errorf("dataset: SynthConfig.RatingNoise must be non-negative, got %g", c.RatingNoise)
	case c.ParticipantUsers < 0 || c.ParticipantUsers > c.Users:
		return fmt.Errorf("dataset: ParticipantUsers %d outside [0, Users]", c.ParticipantUsers)
	}
	if c.ParticipantUsers > 0 {
		if c.ParticipantMinRatings < 1 || c.ParticipantMaxRatings < c.ParticipantMinRatings {
			return fmt.Errorf("dataset: participant rating range [%d,%d] invalid",
				c.ParticipantMinRatings, c.ParticipantMaxRatings)
		}
		if c.ParticipantMaxRatings > c.Items {
			return fmt.Errorf("dataset: ParticipantMaxRatings %d exceeds Items %d", c.ParticipantMaxRatings, c.Items)
		}
		if c.ParticipantPoolSize < 0 || c.ParticipantPoolSize > c.Items {
			return fmt.Errorf("dataset: ParticipantPoolSize %d outside [0, Items]", c.ParticipantPoolSize)
		}
		if c.ParticipantPoolSize > 0 && c.ParticipantMaxRatings > c.ParticipantPoolSize {
			return fmt.Errorf("dataset: ParticipantMaxRatings %d exceeds ParticipantPoolSize %d",
				c.ParticipantMaxRatings, c.ParticipantPoolSize)
		}
	}
	return nil
}

// Synth is the output of Generate: the rating store plus the
// latent structure (useful to tests and to the user-study simulator,
// which needs ground-truth tastes).
type Synth struct {
	Store *Store
	// ItemGenre maps each item to its latent genre.
	ItemGenre []int
	// ItemQuality is each item's latent base quality on the 1..5 scale.
	ItemQuality []float64
	// UserCluster maps each user to its planted taste cluster.
	UserCluster []int
	// ClusterTaste[c][g] is cluster c's taste for genre g in [-1, 1].
	ClusterTaste [][]float64
	// UserTaste[u][g] is user u's individual taste for genre g,
	// the cluster taste plus personal jitter.
	UserTaste [][]float64
	Config    SynthConfig
}

// LatentScore returns the noiseless latent rating of user u for item
// it on the 1..5 scale — the ground truth that the study simulator
// treats as the user's "real" enjoyment of the item in isolation.
func (sy *Synth) LatentScore(u UserID, it ItemID) float64 {
	g := sy.ItemGenre[it]
	score := sy.ItemQuality[it] + sy.Config.TasteStrength*sy.UserTaste[u][g]
	return clampRating(score)
}

func clampRating(x float64) float64 {
	if x < 1 {
		return 1
	}
	if x > 5 {
		return 5
	}
	return x
}

// Generate builds a synthetic collaborative rating dataset according
// to cfg. Generation is deterministic for a fixed Seed.
func Generate(cfg SynthConfig) (*Synth, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	sy := &Synth{
		ItemGenre:    make([]int, cfg.Items),
		ItemQuality:  make([]float64, cfg.Items),
		UserCluster:  make([]int, cfg.Users),
		ClusterTaste: make([][]float64, cfg.Clusters),
		UserTaste:    make([][]float64, cfg.Users),
		Config:       cfg,
	}

	// Quality spread is kept narrow relative to taste effects so that
	// items are distinguished mainly by taste match rather than by a
	// universal quality axis: group members then genuinely disagree,
	// which is the regime group recommendation is about.
	for it := 0; it < cfg.Items; it++ {
		sy.ItemGenre[it] = rng.Intn(cfg.Genres)
		sy.ItemQuality[it] = clampRating(3.4 + 0.35*rng.NormFloat64())
	}
	for c := 0; c < cfg.Clusters; c++ {
		taste := make([]float64, cfg.Genres)
		for g := range taste {
			taste[g] = 2*rng.Float64() - 1
		}
		sy.ClusterTaste[c] = taste
	}
	for u := 0; u < cfg.Users; u++ {
		c := rng.Intn(cfg.Clusters)
		sy.UserCluster[u] = c
		taste := make([]float64, cfg.Genres)
		for g := range taste {
			taste[g] = clampTaste(sy.ClusterTaste[c][g] + 0.25*rng.NormFloat64())
		}
		sy.UserTaste[u] = taste
	}

	// Item popularity ranks: item 0 most popular after shuffling, so
	// popularity is independent of genre and quality.
	rankOf := rng.Perm(cfg.Items)

	// Per-user activity. Study participants (the first ParticipantUsers
	// users) rate a modest fixed-range count like the paper's recruits;
	// the remaining population follows a lognormal-ish heavy tail like
	// MovieLens, scaled so the grand total matches TargetRatings.
	counts := make([]int, cfg.Users)
	// poolCounts[u] is the number of participant u's ratings that must
	// fall inside the study pool; the remainder of counts[u] is their
	// ordinary catalog history.
	poolCounts := make([]int, cfg.ParticipantUsers)
	budget := cfg.TargetRatings
	for u := 0; u < cfg.ParticipantUsers; u++ {
		span := cfg.ParticipantMaxRatings - cfg.ParticipantMinRatings + 1
		poolCounts[u] = cfg.ParticipantMinRatings + rng.Intn(span)
		extra := 0
		if cfg.ParticipantExtraMean > 0 {
			extra = int(math.Exp(0.7*rng.NormFloat64()) * cfg.ParticipantExtraMean)
			if max := cfg.Items - poolCounts[u]; extra > max {
				extra = max
			}
		}
		counts[u] = poolCounts[u] + extra
		budget -= counts[u]
	}
	rest := cfg.Users - cfg.ParticipantUsers
	if rest > 0 {
		if budget < rest {
			budget = rest // at least one rating per remaining user
		}
		weights := make([]float64, rest)
		var wSum float64
		for i := range weights {
			weights[i] = math.Exp(0.9 * rng.NormFloat64())
			wSum += weights[i]
		}
		total := 0
		for i := range weights {
			n := int(math.Round(weights[i] / wSum * float64(budget)))
			if n < 1 {
				n = 1
			}
			if n > cfg.Items {
				n = cfg.Items
			}
			counts[cfg.ParticipantUsers+i] = n
			total += n
		}
		// Nudge non-participant counts so the exact target is met
		// (distribution shape is preserved).
		adjustCounts(counts[cfg.ParticipantUsers:], budget-total, cfg.Items)
	}

	recs := make([]Rating, 0, cfg.TargetRatings)
	baseTime := int64(978_300_000) // around the MovieLens 1M epoch
	seen := make(map[ItemID]struct{}, 256)
	for u := 0; u < cfg.Users; u++ {
		clear(seen)
		n := counts[u]
		inPool := 0
		if u < cfg.ParticipantUsers && cfg.ParticipantPoolSize > 0 {
			inPool = poolCounts[u]
		}
		for len(seen) < n {
			var it ItemID
			if len(seen) < inPool {
				// Participants first rate within the shared study pool
				// (the most popular items), like the paper's recruits
				// who rated the pre-computed popular/diversity sets;
				// their remaining ratings come from the whole catalog.
				it = ItemID(rankOf[rng.Intn(cfg.ParticipantPoolSize)])
				if _, dup := seen[it]; dup {
					continue
				}
			} else {
				// Inverse-CDF power-law sampler over popularity ranks:
				// u^skew concentrates mass near rank 0.
				r := int(math.Pow(rng.Float64(), cfg.PopularitySkew) * float64(cfg.Items))
				if r >= cfg.Items {
					r = cfg.Items - 1
				}
				it = ItemID(rankOf[r])
				if _, dup := seen[it]; dup {
					// Collision on an already-rated item: fall back to
					// a uniform pick so dense users terminate quickly.
					it = ItemID(rng.Intn(cfg.Items))
					if _, dup2 := seen[it]; dup2 {
						continue
					}
				}
			}
			seen[it] = struct{}{}
			latent := sy.ItemQuality[it] + cfg.TasteStrength*sy.UserTaste[u][sy.ItemGenre[it]]
			val := math.Round(latent + cfg.RatingNoise*rng.NormFloat64())
			val = clampRating(val)
			ts := baseTime + int64(rng.Intn(365*24*3600))
			recs = append(recs, Rating{User: UserID(u), Item: it, Value: val, Time: ts})
		}
	}
	store, err := FromRatings(recs)
	if err != nil {
		return nil, err
	}
	sy.Store = store
	return sy, nil
}

func clampTaste(x float64) float64 {
	if x < -1 {
		return -1
	}
	if x > 1 {
		return 1
	}
	return x
}

// adjustCounts adds delta ratings across users (positive or negative),
// respecting the [1, maxPerUser] per-user bounds.
func adjustCounts(counts []int, delta, maxPerUser int) {
	if delta == 0 {
		return
	}
	step := 1
	if delta < 0 {
		step = -1
		delta = -delta
	}
	for delta > 0 {
		moved := false
		for u := range counts {
			if delta == 0 {
				break
			}
			next := counts[u] + step
			if next >= 1 && next <= maxPerUser {
				counts[u] = next
				delta--
				moved = true
			}
		}
		if !moved {
			return // bounds saturated; accept the small mismatch
		}
	}
}
