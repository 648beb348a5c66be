// Package affinity implements the paper's temporal affinity models
// (§2.1): a static component affS, a per-period periodic affinity affP
// with its population average, the accumulated drift affV, and the two
// dynamic models built from them — discrete (affD = affS + affV) and
// continuous (affC = affS · e^{λ(f−s0)} with λ the drift rate).
package affinity

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

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

// StaticSource yields the raw (unnormalized) static affinity of a pair
// — common Facebook friends in the paper's study.
type StaticSource interface {
	// Static binds the source once and returns its pair function, which
	// BuildModel calls concurrently.
	Static() func(u, v dataset.UserID) float64
}

// PeriodicSource yields the raw periodic affinity affP(u,u',p) — common
// page-like categories during p in the paper's study.
type PeriodicSource interface {
	// Periodic binds the source to period p and returns its pair
	// function, which the model calls concurrently.
	Periodic(p Period) func(u, v dataset.UserID) float64
}

// NetworkSource adapts a social.Network to both source interfaces
// using exactly the paper's §4.1.2 definitions.
type NetworkSource struct {
	Network *social.Network
}

// Static returns |friends(u) ∩ friends(v)|, a merge count of the
// network's sorted friend lists.
func (ns NetworkSource) Static() func(u, v dataset.UserID) float64 {
	return func(u, v dataset.UserID) float64 { return float64(ns.Network.CommonFriends(u, v)) }
}

// Periodic returns |page_like_categories(u,p) ∩ page_like_categories(v,p)|:
// each user's category set for p is computed once, and a pair is one
// bitset intersection.
func (ns NetworkSource) Periodic(p Period) func(u, v dataset.UserID) float64 {
	sets := make([]social.CategorySet, ns.Network.NumUsers())
	for u := range sets {
		sets[u] = ns.Network.CategoriesIn(dataset.UserID(u), p.Start, p.End)
	}
	return func(u, v dataset.UserID) float64 { return float64(sets[u].IntersectCount(sets[v])) }
}

// Model holds the precomputed temporal affinity state for a user
// population over a timeline: normalized static affinities and, per
// period, the normalized periodic drift of every pair. It is the
// "index structure that is extremely efficient with updates" of the
// paper: adding a new period only appends one drift table and touches
// nothing previously computed. Each table is one upper triangle over
// the rows of Users, pair (i, j > i) at i·(2n−i−1)/2 + (j−i−1), written
// once and read-only afterwards — no locks.
type Model struct {
	Timeline Timeline
	// Users is the population over which averages were computed.
	Users []dataset.UserID
	// AvgPeriodic[k] is AvgaffP(p_k), the population mean of the raw
	// periodic affinity (Equation 1's subtrahend), kept for
	// diagnostics and tests.
	AvgPeriodic []float64

	// pos[u] is u's row in Users, or -1.
	pos []int32
	// static holds affS per pair, normalized to [0,1] over the
	// population (divide by the max pairwise value, as in §4.1.2).
	static []float64
	// drift[k] holds the normalized periodic drift for period k:
	// (affP(u,v,p_k) − AvgaffP(p_k)) scaled into [-1, 1] by the
	// period's max absolute drift.
	drift    [][]float64
	periodic PeriodicSource
}

// BuildModel precomputes a Model for the given distinct, non-negative
// users and timeline. Both sources are evaluated for every unordered
// pair, so cost is O(|users|² · periods) — this mirrors the paper's
// precomputed T · n(n−1)/2 affinity entries.
func BuildModel(users []dataset.UserID, tl Timeline, st StaticSource, per PeriodicSource) (*Model, error) {
	if len(users) < 2 {
		return nil, fmt.Errorf("affinity: BuildModel needs at least 2 users, got %d", len(users))
	}
	if tl.NumPeriods() == 0 {
		return nil, fmt.Errorf("affinity: BuildModel needs a non-empty timeline")
	}
	if low := slices.Min(users); low < 0 {
		return nil, fmt.Errorf("affinity: negative user ID %d", low)
	}
	m := &Model{
		Timeline: tl,
		Users:    append([]dataset.UserID(nil), users...),
		pos:      slices.Repeat([]int32{-1}, int(slices.Max(users))+1),
		periodic: per,
	}
	for i, u := range users {
		if m.pos[u] >= 0 {
			return nil, fmt.Errorf("affinity: duplicate user %d", u)
		}
		m.pos[u] = int32(i)
	}

	// Static: raw values then population max normalization.
	m.static = m.fill(st.Static())
	var maxStatic float64
	for x, raw := range m.static {
		if raw < 0 {
			i, j := m.rows(x)
			return nil, fmt.Errorf("affinity: negative static affinity %g for pair (%d,%d)", raw, m.Users[i], m.Users[j])
		}
		if raw > maxStatic {
			maxStatic = raw
		}
	}
	scaleBy(m.static, maxStatic)
	for _, p := range tl.Periods {
		if err := m.addPeriod(p); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// addPeriod appends the drift table of p: drift = affP − population
// average, scaled by the period's max |drift| into [-1, 1] so that no
// single outlier period drowns the static component (the paper likewise
// normalizes into [0,1], §4.1.2). Only the fill runs across cores; the
// sum, the max and the scaling are sequential passes in index order, so
// every value is the same float64 whatever the core count.
func (m *Model) addPeriod(p Period) error {
	drift := m.fill(m.periodic.Periodic(p))
	var sum float64
	for x, a := range drift {
		if a < 0 {
			i, j := m.rows(x)
			return fmt.Errorf("affinity: negative periodic affinity %g for pair (%d,%d) period %d", a, m.Users[i], m.Users[j], len(m.drift))
		}
		sum += a
	}
	avg := sum / float64(len(drift))
	var maxAbs float64
	for x, a := range drift {
		drift[x] = a - avg
		if ab := math.Abs(drift[x]); ab > maxAbs {
			maxAbs = ab
		}
	}
	scaleBy(drift, maxAbs)
	m.drift = append(m.drift, drift)
	m.AvgPeriodic = append(m.AvgPeriodic, avg)
	return nil
}

// fill evaluates pair over every pair of the population into a new
// triangle. Rows are dealt to GOMAXPROCS goroutines through an atomic
// row counter; each goroutine writes only the rows it takes.
func (m *Model) fill(pair func(u, v dataset.UserID) float64) []float64 {
	n := len(m.Users)
	tri := make([]float64, n*(n-1)/2)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), n-1); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n-1; i = int(next.Add(1) - 1) {
				u, row := m.Users[i], tri[m.at(i, i+1):]
				for x, v := range m.Users[i+1:] {
					row[x] = pair(u, v)
				}
			}
		}()
	}
	wg.Wait()
	return tri
}

// scaleBy multiplies every entry by 1/peak when peak is positive.
func scaleBy(tri []float64, peak float64) {
	if f := 1 / peak; peak > 0 {
		for x := range tri {
			tri[x] *= f
		}
	}
}

// AppendPeriod extends the model with one new period without touching
// any previously computed drift — the incremental-maintenance property
// the paper highlights ("GRECA does not need to recalculate any of the
// previously calculated affinities and just augments the index").
func (m *Model) AppendPeriod(p Period) error {
	if n := m.Timeline.NumPeriods(); n > 0 && p.Start < m.Timeline.Periods[n-1].End {
		return fmt.Errorf("affinity: AppendPeriod %v overlaps existing timeline", p)
	}
	if err := m.addPeriod(p); err != nil {
		return err
	}
	m.Timeline.Periods = append(m.Timeline.Periods, p)
	m.Timeline.End = max(m.Timeline.End, p.End)
	return nil
}

// at returns the triangle index of the pair of rows i != j.
func (m *Model) at(i, j int) int {
	if i > j {
		i, j = j, i
	}
	return i*(2*len(m.Users)-i-1)/2 + j - i - 1
}

// rows returns the pair of rows (i, j > i) at triangle index x.
func (m *Model) rows(x int) (i, j int) {
	for n := len(m.Users); x >= n-1-i; i++ {
		x -= n - 1 - i
	}
	return i, i + 1 + x
}

// row returns u's row in Users, or -1.
func (m *Model) row(u dataset.UserID) int {
	if u < 0 || int(u) >= len(m.pos) {
		return -1
	}
	return int(m.pos[u])
}

// pairAt returns the triangle index of (u,v), or -1 when either user is
// outside the population. Equal users are a caller bug.
func (m *Model) pairAt(u, v dataset.UserID) int {
	if u == v {
		panic(fmt.Sprintf("affinity: pair of identical users %d", u))
	}
	if i, j := m.row(u), m.row(v); i >= 0 && j >= 0 {
		return m.at(i, j)
	}
	return -1
}

// read returns (u,v)'s entry of tri; a user outside the population
// reads 0.
func (m *Model) read(tri []float64, u, v dataset.UserID) float64 {
	if x := m.pairAt(u, v); x >= 0 {
		return tri[x]
	}
	return 0
}

// StaticOf returns the normalized static affinity of (u,v).
func (m *Model) StaticOf(u, v dataset.UserID) float64 { return m.read(m.static, u, v) }

// DriftOf returns the normalized drift of (u,v) in period k.
func (m *Model) DriftOf(u, v dataset.UserID, k int) float64 { return m.read(m.drift[k], u, v) }

// driftSum returns Σ_{k ≤ upTo} drift(u,v,k), summed in period order.
func (m *Model) driftSum(u, v dataset.UserID, upTo int) float64 {
	m.checkPeriod(upTo)
	var s float64
	if x := m.pairAt(u, v); x >= 0 {
		for _, drift := range m.drift[:upTo+1] {
			s += drift[x]
		}
	}
	return s
}

// AffV implements Equation 1 for the discrete model: the mean of the
// per-period drifts from the beginning of time through period upTo
// (inclusive), i.e. Δ = number of periods.
func (m *Model) AffV(u, v dataset.UserID, upTo int) float64 {
	return m.driftSum(u, v, upTo) / float64(upTo+1)
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
	return clamp01(m.StaticOf(u, v) * math.Exp(ContinuousRate*m.driftSum(u, v, upTo)))
}

// TimeAgnostic returns the static-only affinity (used by the paper's
// "time-agnostic" quality baseline, Figure 1C).
func (m *Model) TimeAgnostic(u, v dataset.UserID) float64 {
	return clamp01(m.StaticOf(u, v))
}

func (m *Model) checkPeriod(k int) {
	if k < 0 || k >= len(m.drift) {
		panic(fmt.Sprintf("affinity: period index %d outside [0,%d)", k, len(m.drift)))
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
