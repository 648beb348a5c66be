// Package affinity implements the paper's temporal affinity models
// (§2.1): a static component affS, a per-period periodic affinity affP
// with its population average, the accumulated drift affV, and the two
// dynamic models built from them — discrete (affD = affS + affV) and
// continuous (affC = affS · e^{λ(f−s0)} with λ the drift rate).
package affinity

import (
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/social"
)

// Period is a time interval [Start, End) in Unix seconds. The paper
// writes periods as [s, f]; we use half-open intervals so consecutive
// periods tile the timeline without overlap.
type Period struct {
	Start, End int64
}

// Length returns the period length in seconds.
func (p Period) Length() int64 { return p.End - p.Start }

// Contains reports whether t falls inside the period.
func (p Period) Contains(t int64) bool { return p.Start <= t && t < p.End }

// Precedes implements the paper's p_i ≤ p_j ordering.
func (p Period) Precedes(q Period) bool { return p.Start <= q.Start && p.End <= q.End }

// Timeline is a segmentation of [Start, End) into consecutive periods
// p_0 .. p_{n-1}. Periods need not be equal length (the paper allows
// varying lengths), though the standard segmentations below are
// uniform.
type Timeline struct {
	Start   int64
	End     int64
	Periods []Period
}

// Granularity names the paper's Figure 4 period lengths.
type Granularity int

const (
	Week Granularity = iota
	Month
	TwoMonth
	Season
	HalfYear
)

// String returns the paper's label for the granularity.
func (g Granularity) String() string {
	switch g {
	case Week:
		return "Week"
	case Month:
		return "Month"
	case TwoMonth:
		return "Two-Month"
	case Season:
		return "Season"
	case HalfYear:
		return "Half-Year"
	default:
		return fmt.Sprintf("Granularity(%d)", int(g))
	}
}

// seconds per granularity unit; months are 1/12 of a 365-day year so a
// one-year window yields exactly the paper's period counts (53 weeks,
// 12 months, 6 two-month periods, 4 seasons, 2 half-years).
func (g Granularity) seconds() int64 {
	const year = 365 * 24 * 3600
	switch g {
	case Week:
		return 7 * 24 * 3600
	case Month:
		return year / 12
	case TwoMonth:
		return year / 6
	case Season:
		return year / 4
	case HalfYear:
		return year / 2
	default:
		panic(fmt.Sprintf("affinity: unknown granularity %d", int(g)))
	}
}

// Segment cuts [start, end) into consecutive periods of the given
// granularity. The final period is truncated at end; a leftover
// shorter than the unit still forms its own period (this is how a
// 365-day year yields 53 weekly periods, matching Figure 4).
func Segment(start, end int64, g Granularity) Timeline {
	if end <= start {
		panic(fmt.Sprintf("affinity: Segment with end %d <= start %d", end, start))
	}
	unit := g.seconds()
	tl := Timeline{Start: start, End: end}
	for s := start; s < end; s += unit {
		f := s + unit
		if f > end {
			f = end
		}
		tl.Periods = append(tl.Periods, Period{Start: s, End: f})
	}
	return tl
}

// SegmentUniform cuts [start, end) into exactly n equal periods.
func SegmentUniform(start, end int64, n int) Timeline {
	if n <= 0 {
		panic(fmt.Sprintf("affinity: SegmentUniform with n=%d", n))
	}
	if end <= start {
		panic(fmt.Sprintf("affinity: SegmentUniform with end %d <= start %d", end, start))
	}
	tl := Timeline{Start: start, End: end}
	span := end - start
	for i := 0; i < n; i++ {
		s := start + span*int64(i)/int64(n)
		f := start + span*int64(i+1)/int64(n)
		tl.Periods = append(tl.Periods, Period{Start: s, End: f})
	}
	return tl
}

// NumPeriods returns the number of periods.
func (tl Timeline) NumPeriods() int { return len(tl.Periods) }

// PeriodAt returns the index of the period containing t, or -1.
func (tl Timeline) PeriodAt(t int64) int {
	for i, p := range tl.Periods {
		if p.Contains(t) {
			return i
		}
	}
	return -1
}

// Pair is an unordered user pair with U < V, the key of all pairwise
// affinity tables.
type Pair struct {
	U, V dataset.UserID
}

// MakePair normalizes (u,v) into the canonical U < V order. Equal
// users are a caller bug.
func MakePair(u, v dataset.UserID) Pair {
	if u == v {
		panic(fmt.Sprintf("affinity: pair of identical users %d", u))
	}
	if u > v {
		u, v = v, u
	}
	return Pair{u, v}
}

// PairTable is a pair-keyed affinity table: one map over every pair of
// the population. It is built once and read-only afterwards — no locks.
// An absent pair reads 0.
type PairTable map[Pair]float64

// Scale multiplies every stored value by f.
func (t PairTable) Scale(f float64) {
	for p, v := range t {
		t[p] = v * f
	}
}

// Update rewrites every stored value through fn.
func (t PairTable) Update(fn func(Pair, float64) float64) {
	for p, v := range t {
		t[p] = fn(p, v)
	}
}

// StaticSource yields the raw (unnormalized) static affinity of a pair
// — common Facebook friends in the paper's study.
type StaticSource interface {
	StaticAffinity(u, v dataset.UserID) float64
}

// PeriodicSource yields the raw periodic affinity affP(u,u',p) — common
// page-like categories during p in the paper's study.
type PeriodicSource interface {
	PeriodicAffinity(u, v dataset.UserID, p Period) float64
}

// NetworkSource adapts a social.Network to both source interfaces
// using exactly the paper's §4.1.2 definitions.
type NetworkSource struct {
	Network *social.Network
}

var (
	_ StaticSource   = NetworkSource{}
	_ PeriodicSource = NetworkSource{}
)

// StaticAffinity returns |friends(u) ∩ friends(v)|.
func (ns NetworkSource) StaticAffinity(u, v dataset.UserID) float64 {
	return float64(ns.Network.CommonFriends(u, v))
}

// PeriodicAffinity returns |page_like_categories(u,p) ∩ page_like_categories(v,p)|.
func (ns NetworkSource) PeriodicAffinity(u, v dataset.UserID, p Period) float64 {
	return float64(ns.Network.CommonLikeCategories(u, v, p.Start, p.End))
}

// Model holds the precomputed temporal affinity state for a user
// population over a timeline: normalized static affinities and, per
// period, the normalized periodic drift of every pair. It is the
// "index structure that is extremely efficient with updates" of the
// paper: adding a new period only appends one drift table and touches
// nothing previously computed.
type Model struct {
	Timeline Timeline
	// Users is the population over which averages were computed.
	Users []dataset.UserID
	// Static holds affS per pair, normalized to [0,1] over the
	// population (divide by the max pairwise value, as in §4.1.2).
	Static PairTable
	// Drift[k] holds the normalized periodic drift for period k:
	// (affP(u,v,p_k) − AvgaffP(p_k)) scaled into [-1, 1] by the
	// period's max absolute drift.
	Drift []PairTable
	// AvgPeriodic[k] is AvgaffP(p_k), the population mean of the raw
	// periodic affinity (Equation 1's subtrahend), kept for
	// diagnostics and tests.
	AvgPeriodic []float64

	static   StaticSource
	periodic PeriodicSource
	// driftScale is the 1/maxAbs factor applied to raw drifts.
	driftScale float64
	// staticScale is the 1/max factor applied to raw static values.
	staticScale float64
}

// BuildModel precomputes a Model for the given users and timeline.
// Both static and periodic sources are evaluated for every unordered
// pair, so cost is O(|users|² · periods) — this mirrors the paper's
// precomputed T · n(n−1)/2 affinity entries.
func BuildModel(users []dataset.UserID, tl Timeline, st StaticSource, per PeriodicSource) (*Model, error) {
	if len(users) < 2 {
		return nil, fmt.Errorf("affinity: BuildModel needs at least 2 users, got %d", len(users))
	}
	if tl.NumPeriods() == 0 {
		return nil, fmt.Errorf("affinity: BuildModel needs a non-empty timeline")
	}
	nPairsInt := len(users) * (len(users) - 1) / 2
	m := &Model{
		Timeline:    tl,
		Users:       append([]dataset.UserID(nil), users...),
		AvgPeriodic: make([]float64, tl.NumPeriods()),
		static:      st,
		periodic:    per,
	}
	m.Static = make(PairTable, nPairsInt)
	m.Drift = make([]PairTable, tl.NumPeriods())

	// Static: raw values then population max normalization.
	var maxStatic float64
	for i, u := range users {
		for _, v := range users[i+1:] {
			raw := st.StaticAffinity(u, v)
			if raw < 0 {
				return nil, fmt.Errorf("affinity: negative static affinity %g for pair (%d,%d)", raw, u, v)
			}
			m.Static[MakePair(u, v)] = raw
			if raw > maxStatic {
				maxStatic = raw
			}
		}
	}
	m.staticScale = 1.0
	if maxStatic > 0 {
		m.staticScale = 1 / maxStatic
		m.Static.Scale(m.staticScale)
	}

	// Periodic: raw affP per pair per period, population average per
	// period, drift = affP − avg, normalized per period by the
	// period's max absolute drift so every period's drifts span
	// [-1, 1]. The paper likewise normalizes dynamic affinities into
	// [0,1] (§4.1.2); per-period scaling keeps the dynamic component
	// commensurate with the static one instead of being drowned by a
	// single outlier period.
	nPairs := float64(nPairsInt)
	for k, p := range tl.Periods {
		drifts := make(PairTable, nPairsInt)
		var sum float64
		for i, u := range users {
			for _, v := range users[i+1:] {
				a := per.PeriodicAffinity(u, v, p)
				if a < 0 {
					return nil, fmt.Errorf("affinity: negative periodic affinity %g for pair (%d,%d) period %d", a, u, v, k)
				}
				drifts[MakePair(u, v)] = a
				sum += a
			}
		}
		m.AvgPeriodic[k] = sum / nPairs
		var maxAbs float64
		drifts.Update(func(_ Pair, a float64) float64 {
			d := a - m.AvgPeriodic[k]
			if ab := math.Abs(d); ab > maxAbs {
				maxAbs = ab
			}
			return d
		})
		if maxAbs > 0 {
			drifts.Scale(1 / maxAbs)
		}
		m.Drift[k] = drifts
	}
	m.driftScale = 1.0
	return m, nil
}

// AppendPeriod extends the model with one new period without touching
// any previously computed drift — the incremental-maintenance property
// the paper highlights ("GRECA does not need to recalculate any of the
// previously calculated affinities and just augments the index").
// The new drifts reuse the existing normalization scale.
func (m *Model) AppendPeriod(p Period) error {
	if n := m.Timeline.NumPeriods(); n > 0 && p.Start < m.Timeline.Periods[n-1].End {
		return fmt.Errorf("affinity: AppendPeriod %v overlaps existing timeline", p)
	}
	nPairsInt := len(m.Users) * (len(m.Users) - 1) / 2
	drifts := make(PairTable, nPairsInt)
	var sum float64
	for i, u := range m.Users {
		for _, v := range m.Users[i+1:] {
			a := m.periodic.PeriodicAffinity(u, v, p)
			if a < 0 {
				return fmt.Errorf("affinity: negative periodic affinity %g for pair (%d,%d)", a, u, v)
			}
			drifts[MakePair(u, v)] = a
			sum += a
		}
	}
	avg := sum / float64(nPairsInt)
	var maxAbs float64
	drifts.Update(func(_ Pair, a float64) float64 {
		d := a - avg
		if ab := math.Abs(d); ab > maxAbs {
			maxAbs = ab
		}
		return d
	})
	if maxAbs > 0 {
		drifts.Scale(1 / maxAbs)
	}
	m.Timeline.Periods = append(m.Timeline.Periods, p)
	if p.End > m.Timeline.End {
		m.Timeline.End = p.End
	}
	m.Drift = append(m.Drift, drifts)
	m.AvgPeriodic = append(m.AvgPeriodic, avg)
	return nil
}

// StaticOf returns the normalized static affinity of (u,v).
func (m *Model) StaticOf(u, v dataset.UserID) float64 {
	return m.Static[MakePair(u, v)]
}

// DriftOf returns the normalized drift of (u,v) in period k.
func (m *Model) DriftOf(u, v dataset.UserID, k int) float64 {
	return m.Drift[k][MakePair(u, v)]
}

// AffV implements Equation 1 for the discrete model: the mean of the
// per-period drifts from the beginning of time through period upTo
// (inclusive), i.e. Δ = number of periods.
func (m *Model) AffV(u, v dataset.UserID, upTo int) float64 {
	m.checkPeriod(upTo)
	pair := MakePair(u, v)
	var s float64
	for k := 0; k <= upTo; k++ {
		s += m.Drift[k][pair]
	}
	return s / float64(upTo+1)
}

// Discrete returns affD(u,v,p) = affS + affV for period index upTo,
// clamped to [0, 1] as the paper normalizes all affinities into [0,1].
func (m *Model) Discrete(u, v dataset.UserID, upTo int) float64 {
	return clamp01(m.StaticOf(u, v) + m.AffV(u, v, upTo))
}

// ContinuousRate is the default λ scale of the continuous model: the
// exponent is rate · Σdrift so a pair at maximal cumulative drift over
// 6 periods moves affS by a factor e^{±1.2}.
const ContinuousRate = 0.2

// Continuous returns affC(u,v,p) = affS · e^{λ·(f−s0)} where λ(f−s0)
// reduces to rate · Σ_{p'≤p} drift(p') (the Δ in Equation 1 cancels
// against the exponent's time length), clamped to [0, 1].
func (m *Model) Continuous(u, v dataset.UserID, upTo int) float64 {
	m.checkPeriod(upTo)
	pair := MakePair(u, v)
	var s float64
	for k := 0; k <= upTo; k++ {
		s += m.Drift[k][pair]
	}
	return clamp01(m.StaticOf(u, v) * math.Exp(ContinuousRate*s))
}

// TimeAgnostic returns the static-only affinity (used by the paper's
// "time-agnostic" quality baseline, Figure 1C).
func (m *Model) TimeAgnostic(u, v dataset.UserID) float64 {
	return clamp01(m.StaticOf(u, v))
}

func (m *Model) checkPeriod(k int) {
	if k < 0 || k >= len(m.Drift) {
		panic(fmt.Sprintf("affinity: period index %d outside [0,%d)", k, len(m.Drift)))
	}
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

// NonEmptyFraction reports, for the given network and granularity, the
// fraction of (user, period) cells with at least one page-like — the
// paper's Figure 4 metric for choosing the period length.
func NonEmptyFraction(nw *social.Network, start, end int64, g Granularity) (frac float64, numPeriods int) {
	tl := Segment(start, end, g)
	total, nonEmpty := 0, 0
	for u := 0; u < nw.NumUsers(); u++ {
		for _, p := range tl.Periods {
			total++
			if nw.HasLikesIn(dataset.UserID(u), p.Start, p.End) {
				nonEmpty++
			}
		}
	}
	if total == 0 {
		return 0, tl.NumPeriods()
	}
	return float64(nonEmpty) / float64(total), tl.NumPeriods()
}
