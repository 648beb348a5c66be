package core

import (
	"math"

	"repro/internal/stats"
)

// evaluator holds the mutable run state of one GRECA execution: the
// component values seen so far and scratch buffers for bound
// computation. All score evaluation funnels through scoreItem so that
// exact scoring (every component known) and bound scoring (cursor
// intervals for unknown components) share one code path.
type evaluator struct {
	p *Problem

	// aprefSeen[u][i] is the observed apref or NaN.
	aprefSeen [][]float64
	// staticSeen[pair] / driftSeen[t][pair] are observed affinity
	// components or NaN.
	staticSeen []float64
	driftSeen  [][]float64
	// agreementSeen[pair][i] is the observed pairwise agreement or NaN
	// (pairwise disagreement consensus only).
	agreementSeen [][]float64

	// affLo[pair] / affHi[pair] are the ends of the pair's combined
	// affinity interval under the current cursors; recomputed once per
	// check round because they are item-independent. affNegative
	// records that some lower end is not >= 0 — negative, which the
	// shipped aggregators never produce, or NaN — as of the last fill:
	// only then do member preferences need the interval product.
	affLo, affHi []float64
	affNegative  bool
	// norm normalizes a member preference: 1/(1 + (g−1)·max affinity).
	norm float64

	// scratch buffers reused across items within one check.
	aprefIv []stats.Interval
	prefIv  []stats.Interval
	driftIv []stats.Interval
}

func newEvaluator(p *Problem) *evaluator {
	ev := &evaluator{p: p, norm: 1 / (1 + float64(p.g-1)*p.in.Agg.MaxAffinity())}
	ev.aprefSeen = make([][]float64, p.g)
	for u := range ev.aprefSeen {
		row := make([]float64, p.m)
		for i := range row {
			row[i] = math.NaN()
		}
		ev.aprefSeen[u] = row
	}
	if p.useAffinity {
		ev.staticSeen = nanSlice(p.nPairs)
		T := p.in.Agg.NumPeriods()
		ev.driftSeen = make([][]float64, T)
		for t := range ev.driftSeen {
			ev.driftSeen[t] = nanSlice(p.nPairs)
		}
		ev.affLo = make([]float64, p.nPairs)
		ev.affHi = make([]float64, p.nPairs)
		ev.driftIv = make([]stats.Interval, T)
	}
	if p.useAgreement {
		ev.agreementSeen = make([][]float64, p.nPairs)
		for pr := range ev.agreementSeen {
			ev.agreementSeen[pr] = nanSlice(p.m)
		}
	}
	ev.aprefIv = make([]stats.Interval, p.g)
	ev.prefIv = make([]stats.Interval, p.g)
	return ev
}

func nanSlice(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = math.NaN()
	}
	return s
}

// observe records one consumed entry.
func (ev *evaluator) observe(l *List, e Entry) {
	switch l.Kind {
	case PrefList:
		ev.aprefSeen[l.Owner][e.Key] = e.Value
	case StaticList:
		ev.staticSeen[e.Key] = e.Value
	case DriftList:
		ev.driftSeen[l.Period][e.Key] = e.Value
	case AgreementList:
		ev.agreementSeen[l.Owner][e.Key] = e.Value
	}
}

// refreshAffinity recomputes the per-pair affinity intervals from the
// seen values and current cursors. Called once per check round.
func (ev *evaluator) refreshAffinity() {
	if !ev.p.useAffinity {
		return
	}
	ev.affNegative = false
	for pr := 0; pr < ev.p.nPairs; pr++ {
		st := ev.componentInterval(ev.staticSeen[pr], ev.p.pairStatic[pr])
		for t := range ev.driftSeen {
			ev.driftIv[t] = ev.componentInterval(ev.driftSeen[t][pr], ev.p.pairDrift[t][pr])
		}
		ev.setAffinity(pr, ev.p.in.Agg.Combine(st, ev.driftIv))
	}
}

// setAffinity stores pair pr's combined affinity interval. The shipped
// aggregators clamp to [0,1]; the interval machinery does not assume
// it, so a lower end that is not >= 0 is recorded.
func (ev *evaluator) setAffinity(pr int, aff stats.Interval) {
	ev.affLo[pr], ev.affHi[pr] = aff.Lo, aff.Hi
	if !(aff.Lo >= 0) {
		ev.affNegative = true
	}
}

// refreshAffinityExact fills the affinity cache with exact values
// straight from the input (TA mode, where random accesses resolved
// every affinity component).
func (ev *evaluator) refreshAffinityExact() {
	if !ev.p.useAffinity {
		return
	}
	ev.affNegative = false
	for pr := 0; pr < ev.p.nPairs; pr++ {
		for t := range ev.driftIv {
			ev.driftIv[t] = stats.Point(ev.p.in.Drift[t][pr])
		}
		ev.setAffinity(pr, ev.p.in.Agg.Combine(stats.Point(ev.p.in.Static[pr]), ev.driftIv))
	}
}

// componentInterval returns the point interval for a seen value or the
// [listMin, cursor] interval for an unseen one (the whole-list range
// under the LooseBounds ablation).
func (ev *evaluator) componentInterval(seen float64, l *List) stats.Interval {
	if !math.IsNaN(seen) {
		return stats.Point(seen)
	}
	if ev.p.in.LooseBounds {
		return stats.Interval{Lo: l.Min(), Hi: l.Top()}
	}
	return stats.Interval{Lo: l.Min(), Hi: l.CursorValue()}
}

// scoreItem computes the consensus score interval for item key under
// current knowledge. refreshAffinity must have been called for the
// current cursor state.
func (ev *evaluator) scoreItem(key int) stats.Interval {
	p := ev.p
	for u := 0; u < p.g; u++ {
		ev.aprefIv[u] = ev.componentInterval(ev.aprefSeen[u][key], p.prefList[u])
	}
	return ev.scoreFromAprefs(key)
}

// threshold computes the paper's ComputeTh({E}): the best score any
// entirely unseen item could still achieve, using cursor intervals for
// every preference and agreement component and current knowledge for
// affinities (affinities are item-independent so seen values apply to
// unseen items too).
func (ev *evaluator) threshold() float64 {
	p := ev.p
	for u := 0; u < p.g; u++ {
		l := p.prefList[u]
		ev.aprefIv[u] = stats.Interval{Lo: l.Min(), Hi: l.CursorValue()}
	}
	return ev.scoreFromAprefs(-1).Hi
}

// memberPrefs combines ev.aprefIv with the cached affinity intervals
// into the member preferences ev.prefIv (pref = apref + rpref,
// normalized). This inlines preference.Combine to reuse scratch buffers
// inside the hot loop. Pairs are walked in PairIndex order, each
// feeding both of its members, which adds every member's relative
// preference terms in ascending order of the other member.
//
// Aprefs are validated into [0,1], so when no affinity lower end is
// negative every product is of like ends ({Lo·Lo, Hi·Hi}, Interval.Mul's
// fast case) and the two ends are summed in two scalar passes. Each
// product is rounded by an explicit conversion before it is added, as
// Interval.Add adds an already rounded product: a fused multiply-add
// would change the bits.
func (ev *evaluator) memberPrefs() {
	p := ev.p
	ap, pref := ev.aprefIv, ev.prefIv
	copy(pref, ap)
	switch {
	case !p.useAffinity:
	case ev.affNegative:
		pr := 0
		for u := 0; u < p.g; u++ {
			for v := u + 1; v < p.g; v++ {
				aff := stats.Interval{Lo: ev.affLo[pr], Hi: ev.affHi[pr]}
				pr++
				pref[u] = pref[u].Add(aff.Mul(ap[v]))
				pref[v] = pref[v].Add(aff.Mul(ap[u]))
			}
		}
	default:
		pr := 0
		for u := 0; u < p.g; u++ {
			for v := u + 1; v < p.g; v++ {
				a := ev.affLo[pr]
				pr++
				pref[u].Lo += float64(a * ap[v].Lo)
				pref[v].Lo += float64(a * ap[u].Lo)
			}
		}
		pr = 0
		for u := 0; u < p.g; u++ {
			for v := u + 1; v < p.g; v++ {
				a := ev.affHi[pr]
				pr++
				pref[u].Hi += float64(a * ap[v].Hi)
				pref[v].Hi += float64(a * ap[u].Hi)
			}
		}
	}
	for u, iv := range pref {
		pref[u] = iv.Scale(ev.norm).Clamp(0, 1)
	}
}

// scoreFromAprefs applies the consensus spec to the member preferences
// of ev.aprefIv. key identifies the item for agreement-list lookups; -1
// denotes the virtual unseen item of the threshold computation.
func (ev *evaluator) scoreFromAprefs(key int) stats.Interval {
	ev.memberPrefs()
	return ev.consensus(key)
}

// consensus applies the consensus spec to the member preferences
// ev.prefIv; key is as for scoreFromAprefs.
func (ev *evaluator) consensus(key int) stats.Interval {
	p := ev.p
	if !p.useAgreement {
		return p.in.Spec.Score(ev.prefIv)
	}

	// Pairwise disagreement via agreement lists:
	// F = w1·gpref + w2·(1−dis) = w1·gpref + w2·mean pair agreement.
	gp := p.in.Spec.GroupPrefInterval(ev.prefIv)
	var agLo, agHi float64
	for pr := 0; pr < p.nPairs; pr++ {
		var iv stats.Interval
		l := p.pairAgreement[pr]
		if key >= 0 {
			iv = ev.componentInterval(ev.agreementSeen[pr][key], l)
		} else {
			iv = stats.Interval{Lo: l.Min(), Hi: l.CursorValue()}
		}
		agLo += iv.Lo
		agHi += iv.Hi
	}
	n := float64(p.nPairs)
	ag := stats.Interval{Lo: agLo / n, Hi: agHi / n}
	return gp.Scale(p.in.Spec.W1).Add(ag.Scale(p.in.Spec.W2))
}

// exactAll computes exact scores for all items; every component must
// have been observed (i.e. after a full scan). It reuses the interval
// machinery with degenerate intervals, so exact and bounded scoring
// cannot diverge.
func (ev *evaluator) exactAll() []float64 {
	ev.refreshAffinity()
	out := make([]float64, ev.p.m)
	for i := 0; i < ev.p.m; i++ {
		iv := ev.scoreItem(i)
		out[i] = iv.Lo
	}
	return out
}

// exactScore computes item key's exact consensus score straight from
// the problem input, bypassing the seen-state — this is what a random
// access fetches in TA mode. It funnels through the same interval
// scorer with point inputs so it cannot diverge from bounded scoring.
func (ev *evaluator) exactScore(key int) float64 {
	p := ev.p
	for u := 0; u < p.g; u++ {
		ev.aprefIv[u] = stats.Point(p.in.Apref[u][key])
	}
	ev.refreshAffinityExact()
	return ev.scoreFromAprefsExactAgreement(key)
}

// scoreFromAprefsExactAgreement evaluates the consensus with point
// member preferences and, when the pairwise-disagreement path is
// active, exact agreement values recomputed from the input aprefs.
func (ev *evaluator) scoreFromAprefsExactAgreement(key int) float64 {
	p := ev.p
	ev.memberPrefs()
	if !p.useAgreement {
		return p.in.Spec.Score(ev.prefIv).Lo
	}
	gp := p.in.Spec.GroupPrefInterval(ev.prefIv)
	var ag float64
	for i := 0; i < p.g; i++ {
		for j := i + 1; j < p.g; j++ {
			d := p.in.Apref[i][key] - p.in.Apref[j][key]
			if d < 0 {
				d = -d
			}
			ag += 1 - d
		}
	}
	ag /= float64(p.nPairs)
	return p.in.Spec.W1*gp.Lo + p.in.Spec.W2*ag
}

// fullyKnown reports whether item key's score interval is a point:
// all its apref components and (if used) all affinity components have
// been observed.
func (ev *evaluator) fullyKnown(key int) bool {
	for u := 0; u < ev.p.g; u++ {
		if math.IsNaN(ev.aprefSeen[u][key]) {
			return false
		}
	}
	if ev.p.useAgreement {
		for pr := 0; pr < ev.p.nPairs; pr++ {
			if math.IsNaN(ev.agreementSeen[pr][key]) {
				return false
			}
		}
	}
	return ev.affinityFullyKnown()
}

func (ev *evaluator) affinityFullyKnown() bool {
	if !ev.p.useAffinity {
		return true
	}
	for pr := 0; pr < ev.p.nPairs; pr++ {
		if math.IsNaN(ev.staticSeen[pr]) {
			return false
		}
		for t := range ev.driftSeen {
			if math.IsNaN(ev.driftSeen[t][pr]) {
				return false
			}
		}
	}
	return true
}
