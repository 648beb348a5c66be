// Package study simulates the paper's Facebook user study (§4.1). The
// original evaluation recruited 72 users who rated MovieLens movies
// and then judged group recommendation lists, both independently
// (0..5 satisfaction) and comparatively (choose one of two lists).
// Since human judges are unavailable, this package implements a
// satisfaction oracle grounded in the synthetic world's latent state:
// each simulated participant's enjoyment of an item in company depends
// on (a) their own latent taste for the item, (b) how much their
// companions enjoy it weighted by the *true* time-varying affinity to
// each companion, (c) a misery penalty when somebody present hates the
// item, and (d) a disagreement penalty when tastes for the item split
// the group. This is precisely the behavioural conjecture the paper
// builds on (§1: "a user appreciates recommendations differently in
// the company of different people and at different times"), so
// recommendation variants that model affinity and its temporal drift
// estimate the oracle better and score higher — the same mechanism the
// paper attributes to its human subjects.
package study

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/social"
)

// Oracle scores the satisfaction of simulated participants.
type Oracle struct {
	// Synth provides latent (noiseless) user-item scores on 1..5.
	Synth *dataset.Synth
	// Net provides ground-truth temporal affinity between users.
	Net *social.SynthNetwork

	// CompanionWeight scales how strongly a member's enjoyment is
	// pulled toward companions' enjoyment; the effective weight for a
	// user is CompanionWeight times their mean true affinity with the
	// group, so high-affinity company matters more.
	CompanionWeight float64
	// MiseryPenalty scales the multiplicative hit when members with a
	// latent score below MiseryThreshold are present.
	MiseryPenalty   float64
	MiseryThreshold float64
	// DisagreementPenalty scales the subtractive hit for the latent
	// taste spread across the group.
	DisagreementPenalty float64
	// ComfortPenalty scales the comfort gate: niche (taste-polarizing)
	// items lose value in low-affinity company — the paper's own
	// motivating example (a romantic movie is fine with girlfriends,
	// awkward with strangers; a burger joint with the kids, not with
	// the parents). The multiplier for an item of nicheness n with
	// mean companion affinity a is 1 − ComfortPenalty·n·(1−a).
	ComfortPenalty float64
	// NoiseStd is the judgment noise on the 0..1 scale.
	NoiseStd float64

	nicheness map[dataset.ItemID]float64
}

// DefaultOracle returns the calibrated oracle used by all quality
// experiments.
func DefaultOracle(sy *dataset.Synth, net *social.SynthNetwork) *Oracle {
	return &Oracle{
		Synth:               sy,
		Net:                 net,
		CompanionWeight:     1.0,
		MiseryPenalty:       0.5,
		MiseryThreshold:     2.0,
		DisagreementPenalty: 0.3,
		ComfortPenalty:      0.7,
		NoiseStd:            0.015,
		nicheness:           make(map[dataset.ItemID]float64),
	}
}

// Nicheness returns the item's taste polarization in [0,1]: the
// standard deviation of the latent score across the user population,
// scaled so the most polarizing items approach 1. Broad crowd-pleasers
// score near 0.
func (o *Oracle) Nicheness(it dataset.ItemID) float64 {
	if n, ok := o.nicheness[it]; ok {
		return n
	}
	users := len(o.Synth.UserTaste)
	var sum, sumSq float64
	for u := 0; u < users; u++ {
		l := o.Synth.LatentScore(dataset.UserID(u), it)
		sum += l
		sumSq += l * l
	}
	mean := sum / float64(users)
	variance := sumSq/float64(users) - mean*mean
	// A uniformly split audience (half at 1, half at 5) has sd 2;
	// scale so that extreme polarization maps to 1.
	n := clamp01(math.Sqrt(max(variance, 0)) / 2)
	o.nicheness[it] = n
	return n
}

// Validate reports wiring errors.
func (o *Oracle) Validate() error {
	if o.Synth == nil {
		return fmt.Errorf("study: Oracle.Synth is nil (quality experiments need a synthetic rating world)")
	}
	if o.Net == nil {
		return fmt.Errorf("study: Oracle.Net is nil")
	}
	return nil
}

// ItemSatisfaction returns user u's satisfaction in [0,1] with
// consuming item it together with group members at time t, without
// judgment noise (noise is added per verdict so that repeated
// judgments vary like human ones).
//
// The functional form mirrors the paper's relative-preference
// conjecture with ground-truth inputs: u's enjoyment is their own
// latent taste plus an affinity-weighted *sum* of companions' latent
// enjoyment (so high-affinity companions matter and strangers do not),
// adjusted by a misery penalty (someone present hates it) and a
// disagreement penalty (the item splits the group). The recommendation
// variant that models affinity and its drift estimates this quantity
// best, which is exactly the mechanism the paper posits for its human
// judges.
func (o *Oracle) ItemSatisfaction(u dataset.UserID, members []dataset.UserID, it dataset.ItemID, t int64) float64 {
	own := o.Synth.LatentScore(u, it) / 5

	// Relative term: affinity-weighted sum of companions' enjoyment,
	// scaled like the engine's rpref normalization so group sizes are
	// comparable.
	var rel, affSum float64
	var minL, maxL = 5.0, 1.0
	for _, v := range members {
		lv := o.Synth.LatentScore(v, it)
		if lv < minL {
			minL = lv
		}
		if lv > maxL {
			maxL = lv
		}
		if v == u {
			continue
		}
		a := o.Net.TrueAffinity(u, v, t)
		affSum += a
		rel += a * (lv / 5)
	}
	// Combine exactly like the engine's pref = apref + rpref with its
	// 1 + (g−1)·affMax normalizer, so the ground truth has the same
	// functional form the paper's model conjectures; CompanionWeight
	// scales how much company matters overall.
	g := len(members)
	s := own
	if g > 1 {
		w := o.CompanionWeight
		s = (own + w*rel) / (1 + w*float64(g-1))

		// Comfort gate: polarizing items are enjoyed with close
		// company and awkward with strangers, regardless of one's own
		// taste — the paper's §1 motivating scenario.
		meanAff := affSum / float64(g-1)
		s *= 1 - o.ComfortPenalty*o.Nicheness(it)*(1-clamp01(meanAff))
	}

	// Misery: a member who truly dislikes the item drags everyone down
	// (strongest in large groups, which is why least-misery wins
	// there).
	if minL < o.MiseryThreshold {
		frac := (o.MiseryThreshold - minL) / o.MiseryThreshold
		s *= 1 - o.MiseryPenalty*frac
	}

	// Disagreement: a split group enjoys the outing less regardless of
	// the mean (why PD helps dissimilar groups).
	spread := (maxL - minL) / 4
	s -= o.DisagreementPenalty * spread

	return clamp01(s)
}

// ListSatisfaction returns u's satisfaction in [0,1] with the whole
// recommended list (mean over items), noise-free.
func (o *Oracle) ListSatisfaction(u dataset.UserID, members []dataset.UserID, items []dataset.ItemID, t int64) float64 {
	if len(items) == 0 {
		return 0
	}
	var s float64
	for _, it := range items {
		s += o.ItemSatisfaction(u, members, it, t)
	}
	return s / float64(len(items))
}

// Prefer returns true when u prefers list a over list b (the paper's
// comparative evaluation; the closed-world forced choice breaks exact
// ties randomly).
func (o *Oracle) Prefer(rng *rand.Rand, u dataset.UserID, members []dataset.UserID, a, b []dataset.ItemID, t int64) bool {
	sa := o.ListSatisfaction(u, members, a, t) + o.NoiseStd*rng.NormFloat64()
	sb := o.ListSatisfaction(u, members, b, t) + o.NoiseStd*rng.NormFloat64()
	if sa == sb {
		return rng.Intn(2) == 0
	}
	return sa > sb
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
