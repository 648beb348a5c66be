// Package affinity implements the paper's temporal affinity models
// (§2.1): a static component affS, a per-period periodic affinity affP
// with its population average, the accumulated drift affV, and the two
// dynamic models built from them — discrete (affD = affS + affV) and
// continuous (affC = affS · e^{λ(f−s0)} with λ the drift rate).
package affinity

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/dataset"
	"repro/internal/social"
)

// Period is a time interval [Start, End) in Unix seconds. The paper
// writes periods as [s, f]; we use half-open intervals so consecutive
// periods tile the timeline without overlap.
type Period struct {
	Start, End int64
}

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

// NumPeriods returns the number of periods.
func (tl Timeline) NumPeriods() int { return len(tl.Periods) }

// Stats is what the model keeps of a table's raw values: their sum,
// least and greatest over the population's n(n−1)/2 unordered pairs.
type Stats struct {
	Sum, Lo, Hi float64
}

// countStats returns the Stats of integer pair values. Each count is
// below 2⁵³, so every partial sum is exact and Sum is the float64 an
// ordered fold over the pairs would reach.
func countStats(sum, lo, hi int) Stats {
	return Stats{Sum: float64(sum), Lo: float64(lo), Hi: float64(hi)}
}

// check refuses a table whose stats are negative or not finite, naming
// the table: its period, or −1 for the static table.
func (st Stats) check(what string, period int) error {
	for _, x := range [3]float64{st.Sum, st.Lo, st.Hi} {
		if !(x >= 0) || math.IsInf(x, 1) {
			at := ""
			if period >= 0 {
				at = fmt.Sprintf(" in period %d", period)
			}
			return fmt.Errorf("affinity: negative or non-finite %s stats (sum %g, lo %g, hi %g)%s", what, st.Sum, st.Lo, st.Hi, at)
		}
	}
	return nil
}

// StaticSource yields the raw (unnormalized) static affinity of a pair
// — common Facebook friends in the paper's study.
type StaticSource interface {
	// Static binds the source to the population, in row order, and
	// returns its pair function and the Stats of its values over the
	// population's pairs. The model keeps the function and calls it
	// concurrently on every read, with the user of the lower row first,
	// so it must give a pair the same value on every call.
	Static(users []dataset.UserID) (func(u, v dataset.UserID) float64, Stats)
}

// PeriodicSource yields the raw periodic affinity affP(u,u',p) — common
// page-like categories during p in the paper's study.
type PeriodicSource interface {
	// Periodic binds the source to period p and the population and
	// returns what Static does, for p's table.
	Periodic(p Period, users []dataset.UserID) (func(u, v dataset.UserID) float64, Stats)
}

// NetworkSource adapts a social.Network to both source interfaces
// using exactly the paper's §4.1.2 definitions. Both are counts, so
// their Stats are counted, not folded over the pairs. The population
// must be users of the network. A network never changes once built,
// so a model built from it reads the network it was bound to.
type NetworkSource struct {
	Network *social.Network
}

// Static returns |friends(u) ∩ friends(v)|, a merge count of the
// network's sorted friend lists. Its Stats are wedge counts: a pair
// gets one for every path u–w–v, w any user of the network, so one
// walk over the friend lists of u's friends counts row u against every
// later row.
func (ns NetworkSource) Static(users []dataset.UserID) (func(u, v dataset.UserID) float64, Stats) {
	nw := ns.Network
	row := make([]int32, nw.NumUsers()) // row + 1; 0 outside the population
	for i, u := range users {
		row[u] = int32(i) + 1
	}
	// The rows of w's friends in the population, ascending, are
	// rows[off[w]:off[w+1]].
	off := make([]int, nw.NumUsers()+1)
	edges := 0
	for w := range nw.NumUsers() {
		edges += len(nw.Friends(dataset.UserID(w)))
	}
	rows := make([]int32, 0, edges)
	for w := range nw.NumUsers() {
		for _, v := range nw.Friends(dataset.UserID(w)) {
			if r := row[v]; r > 0 {
				rows = append(rows, r-1)
			}
		}
		off[w+1] = len(rows)
		slices.Sort(rows[off[w]:])
	}
	// count[j] is row i's count against row j > i. Reading it back is
	// one sweep of a counter per pair, cheaper than tracking the rows
	// touched on every increment.
	count := make([]int32, len(users))
	sum, lo, hi := 0, math.MaxInt, 0
	for i, u := range users {
		for _, w := range nw.Friends(u) {
			for x := off[w+1] - 1; x >= off[w] && rows[x] > int32(i); x-- {
				count[rows[x]]++
			}
		}
		for j := i + 1; j < len(users); j++ {
			c := int(count[j])
			sum, lo, hi = sum+c, min(lo, c), max(hi, c)
			count[j] = 0
		}
	}
	return func(u, v dataset.UserID) float64 { return float64(nw.CommonFriends(u, v)) }, countStats(sum, lo, hi)
}

// Periodic returns |page_like_categories(u,p) ∩ page_like_categories(v,p)|:
// each user's category set for p is computed once, and a pair is one
// bitset intersection. Its Stats come from the population's sets
// (setStats).
func (ns NetworkSource) Periodic(p Period, users []dataset.UserID) (func(u, v dataset.UserID) float64, Stats) {
	sets := make([]social.CategorySet, ns.Network.NumUsers())
	for u := range sets {
		sets[u] = ns.Network.CategoriesIn(dataset.UserID(u), p.Start, p.End)
	}
	pop := make([]social.CategorySet, len(users))
	for i, u := range users {
		pop[i] = sets[u]
	}
	return func(u, v dataset.UserID) float64 { return float64(sets[u].IntersectCount(sets[v])) }, setStats(pop)
}

// setStats returns the Stats of |A∩B| over the pairs of two or more
// sets, reordering them, without a pass over the pairs:
//   - the sum is Σ_c C(n_c, 2), n_c the number of sets holding c;
//   - the max is a search by descending size that stops once no set
//     left is larger than the best count, since |A∩B| ≤ min(|A|, |B|);
//   - the min is a search from the small end that stops at the first
//     disjoint pair.
//
// Each is exact.
func setStats(sets []social.CategorySet) Stats {
	var holders [len(social.CategorySet{}) * 64]int
	for _, s := range sets {
		for w, word := range s {
			for ; word != 0; word &= word - 1 {
				holders[w*64+bits.TrailingZeros64(word)]++
			}
		}
	}
	sum := 0
	for _, n := range holders {
		sum += n * (n - 1) / 2
	}
	slices.SortFunc(sets, func(a, b social.CategorySet) int { return b.Count() - a.Count() })
	hi := 0
	for x, a := range sets {
		if a.Count() <= hi {
			break
		}
		for _, b := range sets[x+1:] {
			if b.Count() <= hi {
				break
			}
			hi = max(hi, a.IntersectCount(b))
		}
	}
	lo := math.MaxInt
	for x := len(sets) - 1; x > 0 && lo > 0; x-- {
		for y := x - 1; y >= 0 && lo > 0; y-- {
			lo = min(lo, sets[x].IntersectCount(sets[y]))
		}
	}
	return countStats(sum, lo, hi)
}

// Model holds the temporal affinity state for a user population over a
// timeline: not its pairs, but for each table the bound pair function
// and the normalizers its values need. The static table keeps its peak
// (the max raw value); each period keeps its population mean and its
// max |drift|. A read calls the source for its pair and normalizes, so
// the model's size is the population and the periods' bound sources,
// not T · n(n−1)/2 entries. Adding a period binds one more table from
// its source's Stats and touches nothing previously computed — the
// paper's "just augments the index". A table is written once and
// read-only afterwards, so reads take no lock; only AppendPeriod must
// not run beside them.
type Model struct {
	Timeline Timeline
	// Users is the population over which averages were computed.
	Users []dataset.UserID
	// AvgPeriodic[k] is AvgaffP(p_k), the population mean of the raw
	// periodic affinity (Equation 1's subtrahend), kept for
	// diagnostics and tests.
	AvgPeriodic []float64

	// rows maps a user to its row in Users.
	rows rowIndex
	// static is affS, normalized to [0,1] over the population (divide
	// by the max pairwise value, as in §4.1.2).
	static table
	// drift[k] is the normalized periodic drift for period k:
	// (affP(u,v,p_k) − AvgaffP(p_k)) scaled into [-1, 1] by the
	// period's max absolute drift.
	drift    []table
	periodic PeriodicSource
}

// table is one affinity table: its bound pair function and the two
// normalizers of its values, value = (pair(u,v) − shift) · scale. A
// static table has shift 0 (x − 0 is x, bit for bit), and a table whose
// peak is not positive has scale 1 (x · 1 is x), so every value is the
// float64 that normalizing a stored table in place would give.
type table struct {
	pair         func(u, v dataset.UserID) float64
	shift, scale float64
}

// value returns the pair's normalized value. u must be the user of the
// lower row: the source is bound to the rows in that order.
func (t *table) value(u, v dataset.UserID) float64 {
	return (t.pair(u, v) - t.shift) * t.scale
}

// scaleOf returns the factor that normalizes a table by peak: 1/peak
// when peak is positive, 1 otherwise.
func scaleOf(peak float64) float64 {
	if peak > 0 {
		return 1 / peak
	}
	return 1
}

// BuildModel computes a Model's normalizers for the given distinct,
// non-negative users and timeline from the Stats each source hands over
// with its pair function; the model evaluates no pair.
func BuildModel(users []dataset.UserID, tl Timeline, static StaticSource, per PeriodicSource) (*Model, error) {
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
		periodic: per,
	}
	var err error
	if m.rows, err = newRowIndex(m.Users); err != nil {
		return nil, err
	}
	pair, st := static.Static(m.Users)
	if err := st.check("static", -1); err != nil {
		return nil, err
	}
	m.static = table{pair: pair, scale: scaleOf(st.Hi)}
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
// normalizes into [0,1], §4.1.2). Rounding is monotone and negation
// exact, so the max over the table of |fl(a − avg)| is the larger of
// fl(max − avg) and fl(avg − min).
func (m *Model) addPeriod(p Period) error {
	pair, st := m.periodic.Periodic(p, m.Users)
	if err := st.check("periodic", len(m.drift)); err != nil {
		return err
	}
	n := len(m.Users)
	avg := st.Sum / float64(n*(n-1)/2)
	maxAbs := max(0, st.Hi-avg, avg-st.Lo)
	m.drift = append(m.drift, table{pair: pair, shift: avg, scale: scaleOf(maxAbs)})
	m.AvgPeriodic = append(m.AvgPeriodic, avg)
	return nil
}

// AppendPeriod extends the model with one new period without touching
// any previously computed drift — the incremental-maintenance property
// the paper highlights ("GRECA does not need to recalculate any of the
// previously calculated affinities and just augments the index"). A
// failed append leaves the model as it was.
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

// rowIndex maps a user ID to its row in Model.Users. IDs close together
// get an offset table; far-apart ones a map, so the index is sized by
// the population, never by the largest ID.
type rowIndex struct {
	base dataset.UserID
	// table[id−base] is id's row plus one, 0 for an ID in the span that
	// the population does not hold; nil when the IDs are too spread out.
	table  []int32
	sparse map[dataset.UserID]int32
}

// newRowIndex indexes users, which must be non-negative; a repeated ID
// is an error.
func newRowIndex(users []dataset.UserID) (rowIndex, error) {
	ix := rowIndex{base: slices.Min(users)}
	if span := uint64(slices.Max(users) - ix.base); span < uint64(8*len(users)+1024) {
		ix.table = make([]int32, span+1)
	} else {
		ix.sparse = make(map[dataset.UserID]int32, len(users))
	}
	for i, u := range users {
		if ix.of(u) >= 0 {
			return rowIndex{}, fmt.Errorf("affinity: duplicate user %d", u)
		}
		if ix.sparse != nil {
			ix.sparse[u] = int32(i)
		} else {
			ix.table[u-ix.base] = int32(i) + 1
		}
	}
	return ix, nil
}

// of returns u's row, or −1 for a user outside the population.
func (ix *rowIndex) of(u dataset.UserID) int {
	if ix.sparse != nil {
		if i, ok := ix.sparse[u]; ok {
			return int(i)
		}
		return -1
	}
	off := uint64(u) - uint64(ix.base)
	if off >= uint64(len(ix.table)) {
		return -1
	}
	return int(ix.table[off]) - 1
}

// row returns u's row in Users, or −1.
func (m *Model) row(u dataset.UserID) int { return m.rows.of(u) }

// ordered returns (u,v) with the user of the lower row first — the
// order the build called the source in — or false when either user is
// outside the population. Equal users are a caller bug.
func (m *Model) ordered(u, v dataset.UserID) (dataset.UserID, dataset.UserID, bool) {
	if u == v {
		panic(fmt.Sprintf("affinity: pair of identical users %d", u))
	}
	i, j := m.row(u), m.row(v)
	if i > j {
		u, v = v, u
	}
	return u, v, i >= 0 && j >= 0
}

// read returns (u,v)'s value in t; a user outside the population reads
// 0.
func (m *Model) read(t *table, u, v dataset.UserID) float64 {
	if u, v, ok := m.ordered(u, v); ok {
		return t.value(u, v)
	}
	return 0
}

// StaticOf returns the normalized static affinity of (u,v).
func (m *Model) StaticOf(u, v dataset.UserID) float64 { return m.read(&m.static, u, v) }

// DriftOf returns the normalized drift of (u,v) in period k.
func (m *Model) DriftOf(u, v dataset.UserID, k int) float64 { return m.read(&m.drift[k], u, v) }

// GroupAffinity fills static with the normalized static affinity of
// every pair of group, and drift[t] with their normalized drift in
// period t, each in (i, j > i) order over the members — core.PairIndex's
// order. Every row must hold g(g−1)/2 entries; drift may cover fewer
// periods than the timeline, or none. Each member's row is resolved
// once, and a pair with a member outside the population reads 0. The
// values are StaticOf's and DriftOf's, bit for bit.
func (m *Model) GroupAffinity(group []dataset.UserID, static []float64, drift [][]float64) {
	if len(drift) > 0 {
		m.checkPeriod(len(drift) - 1)
	}
	var buf [16]int
	rows := buf[:0]
	for _, u := range group {
		rows = append(rows, m.row(u))
	}
	x := 0
	for a, u := range group {
		for b := a + 1; b < len(group); b++ {
			v := group[b]
			if u == v {
				panic(fmt.Sprintf("affinity: pair of identical users %d", u))
			}
			lo, hi := u, v
			if rows[a] > rows[b] {
				lo, hi = v, u
			}
			if rows[a] < 0 || rows[b] < 0 {
				static[x] = 0
				for _, row := range drift {
					row[x] = 0
				}
			} else {
				static[x] = m.static.value(lo, hi)
				for t, row := range drift {
					row[x] = m.drift[t].value(lo, hi)
				}
			}
			x++
		}
	}
}

// driftSum returns Σ_{k ≤ upTo} drift(u,v,k), summed in period order.
func (m *Model) driftSum(u, v dataset.UserID, upTo int) float64 {
	m.checkPeriod(upTo)
	var s float64
	if u, v, ok := m.ordered(u, v); ok {
		for k := range m.drift[:upTo+1] {
			s += m.drift[k].value(u, v)
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
