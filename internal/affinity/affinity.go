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
	// Static binds the source once and returns its pair function. The
	// model keeps it and calls it concurrently, at build and on every
	// read, so it must give a pair the same value on every call.
	Static() func(u, v dataset.UserID) float64
}

// PeriodicSource yields the raw periodic affinity affP(u,u',p) — common
// page-like categories during p in the paper's study.
type PeriodicSource interface {
	// Periodic binds the source to period p and returns its pair
	// function, which the model keeps and calls as it does Static's.
	Periodic(p Period) func(u, v dataset.UserID) float64
}

// NetworkSource adapts a social.Network to both source interfaces
// using exactly the paper's §4.1.2 definitions. Binding a period needs
// the network frozen, so a model built from it reads a network that no
// longer changes.
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

// Model holds the temporal affinity state for a user population over a
// timeline: not its pairs, but for each table the bound pair function
// and the normalizers its values need. The static table keeps its peak
// (the max raw value); each period keeps its population mean and its
// max |drift|. A read calls the source for its pair and normalizes, so
// the model's size is the population and the periods' bound sources,
// not T · n(n−1)/2 entries. Adding a period is one more pass over the
// pairs that touches nothing previously computed — the paper's
// "just augments the index". A table is written once and read-only
// afterwards, so reads take no lock; only AppendPeriod must not run
// beside them.
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
// lower row: the build called the source in that order.
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
// non-negative users and timeline. Both sources are evaluated once for
// every unordered pair, so cost is O(|users|² · periods) — the paper's
// T · n(n−1)/2 affinity entries, each seen once and none kept.
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

	// Static: one pass for the population max, the normalizer.
	bufs := m.newScratch()
	pair := static.Static()
	st := m.scan(pair, bufs)
	if err := st.check(m, "static", -1); err != nil {
		return nil, err
	}
	m.static = table{pair: pair, scale: scaleOf(st.hi)}
	for _, p := range tl.Periods {
		if err := m.addPeriod(p, bufs); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// addPeriod appends the drift table of p: drift = affP − population
// average, scaled by the period's max |drift| into [-1, 1] so that no
// single outlier period drowns the static component (the paper likewise
// normalizes into [0,1], §4.1.2). One pass finds both normalizers:
// rounding is monotone and negation exact, so the max over the table of
// |fl(a − avg)| is the larger of fl(max − avg) and fl(avg − min).
func (m *Model) addPeriod(p Period, bufs [][]float64) error {
	pair := m.periodic.Periodic(p)
	st := m.scan(pair, bufs)
	if err := st.check(m, "periodic", len(m.drift)); err != nil {
		return err
	}
	n := len(m.Users)
	avg := st.sum / float64(n*(n-1)/2)
	var maxAbs float64
	for _, d := range [2]float64{st.hi - avg, avg - st.lo} {
		if d > maxAbs {
			maxAbs = d
		}
	}
	m.drift = append(m.drift, table{pair: pair, shift: avg, scale: scaleOf(maxAbs)})
	m.AvgPeriodic = append(m.AvgPeriodic, avg)
	return nil
}

// blockPairs bounds one goroutine's scratch in a build pass: a block is
// as many whole rows as fit in it, and at least one.
const blockPairs = 4096

// blockRows returns how many rows make one block.
func (m *Model) blockRows() int { return max(1, blockPairs/(len(m.Users)-1)) }

// newScratch returns one block buffer per goroutine of a build pass;
// every pass of one build reuses them.
func (m *Model) newScratch() [][]float64 {
	n := len(m.Users)
	workers := min(runtime.GOMAXPROCS(0), (n-1+m.blockRows()-1)/m.blockRows())
	bufs := make([][]float64, workers)
	for w := range bufs {
		bufs[w] = make([]float64, 0, m.blockRows()*(n-1))
	}
	return bufs
}

// tableStats is one build pass's fold of a table's raw values, taken in
// (i, j > i) order.
type tableStats struct {
	sum, lo, hi float64
	// bad is the first negative or NaN value, at rows (badI, badJ);
	// badI is −1 when there is none.
	bad        float64
	badI, badJ int
}

// scan evaluates pair once for every pair of the population, lower row
// first, and folds the values in (i, j > i) order. Blocks of rows are
// dealt to one goroutine per buffer through an atomic block counter;
// each fills its block into its buffer and then waits for the fold to
// reach that block. So the fold sees every value in index order — the
// sum is the same float64 whatever the core count — and no goroutine
// holds more than one block.
func (m *Model) scan(pair func(u, v dataset.UserID) float64, bufs [][]float64) tableStats {
	n, per := len(m.Users), m.blockRows()
	blocks := (n - 1 + per - 1) / per
	ps := &pass{st: tableStats{lo: math.Inf(1), hi: math.Inf(-1), badI: -1}}
	ps.turn.L = &ps.mu
	ps.wg.Add(len(bufs))
	for _, buf := range bufs {
		go func() {
			defer ps.wg.Done()
			for b := int(ps.next.Add(1) - 1); b < blocks; b = int(ps.next.Add(1) - 1) {
				first, last := b*per, min((b+1)*per, n-1)
				vals := buf[:0]
				for i := first; i < last; i++ {
					u := m.Users[i]
					for _, v := range m.Users[i+1:] {
						vals = append(vals, pair(u, v))
					}
				}
				ps.mu.Lock()
				for ps.folded != b {
					ps.turn.Wait()
				}
				ps.st.fold(vals, first, last, n)
				ps.folded++
				ps.turn.Broadcast()
				ps.mu.Unlock()
			}
		}()
	}
	ps.wg.Wait()
	return ps.st
}

// pass is one scan's shared state: the block counter, and the fold
// with the turn that orders it.
type pass struct {
	next   atomic.Int64
	mu     sync.Mutex
	turn   sync.Cond
	folded int // blocks folded so far
	wg     sync.WaitGroup
	st     tableStats
}

// fold adds the values of rows first..last−1, row by row.
func (st *tableStats) fold(vals []float64, first, last, n int) {
	x := 0
	for i := first; i < last; i++ {
		for j := i + 1; j < n; j++ {
			a := vals[x]
			x++
			if !(a >= 0) && st.badI < 0 {
				st.bad, st.badI, st.badJ = a, i, j
			}
			st.sum += a
			if a < st.lo {
				st.lo = a
			}
			if a > st.hi {
				st.hi = a
			}
		}
	}
}

// check returns the build error for the table's first negative or NaN
// value, naming its pair and, for a periodic table, its period (−1 for
// the static table).
func (st *tableStats) check(m *Model, what string, period int) error {
	if st.badI < 0 {
		return nil
	}
	kind := fmt.Sprintf("negative %s affinity %g", what, st.bad)
	if math.IsNaN(st.bad) {
		kind = "NaN " + what + " affinity"
	}
	at := ""
	if period >= 0 {
		at = fmt.Sprintf(" period %d", period)
	}
	return fmt.Errorf("affinity: %s for pair (%d,%d)%s", kind, m.Users[st.badI], m.Users[st.badJ], at)
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
	if err := m.addPeriod(p, m.newScratch()); err != nil {
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
