package affinity

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/social"
)

func TestSegmentGranularities(t *testing.T) {
	// One 365-day year must yield the paper's Figure 4 period counts.
	start := social.StudyStart
	end := start + 365*24*3600
	want := map[Granularity]int{
		Week:     53,
		Month:    12,
		TwoMonth: 6,
		Season:   4,
		HalfYear: 2,
	}
	for g, n := range want {
		tl := Segment(start, end, g)
		if tl.NumPeriods() != n {
			t.Errorf("%v: %d periods, want %d", g, tl.NumPeriods(), n)
		}
		// Periods must tile [start, end) without gaps.
		cur := start
		for _, p := range tl.Periods {
			if p.Start != cur {
				t.Fatalf("%v: gap at %d", g, cur)
			}
			if p.End <= p.Start {
				t.Fatalf("%v: empty period %+v", g, p)
			}
			cur = p.End
		}
		if cur != end {
			t.Errorf("%v: timeline ends at %d, want %d", g, cur, end)
		}
	}
}

func testModel(t *testing.T) *Model {
	t.Helper()
	users := []dataset.UserID{0, 1, 2}
	tl := uniformTimeline(300, 3)
	src := pairSources{
		static: func(u, v dataset.UserID) float64 { return float64(u + v) },
		periodic: func(u, v dataset.UserID, p Period) float64 {
			// Pair (0,1) gains affinity over time, (1,2) loses it.
			base := float64(u+v) / 3
			frac := float64(p.Start) / 300
			switch {
			case u == 0 && v == 1:
				return base + 3*frac
			case u == 1 && v == 2:
				return base + 3*(1-frac)
			default:
				return base
			}
		},
	}
	m, err := BuildModel(users, tl, src, src)
	if err != nil {
		t.Fatalf("BuildModel: %v", err)
	}
	return m
}

func TestBuildModelStaticNormalization(t *testing.T) {
	m := testModel(t)
	// Raw statics: (0,1)=1, (0,2)=2, (1,2)=3 → normalized by 3.
	if got := m.StaticOf(0, 1); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("static(0,1) = %v, want 1/3", got)
	}
	if got := m.StaticOf(1, 2); got != 1 {
		t.Errorf("static(1,2) = %v, want 1", got)
	}
	if m.StaticOf(0, 2) != m.StaticOf(2, 0) {
		t.Errorf("static not symmetric")
	}
}

func TestDriftSignsTrackEvolution(t *testing.T) {
	m := testModel(t)
	// Pair (0,1) grows: late drift must exceed early drift.
	if !(m.DriftOf(0, 1, 2) > m.DriftOf(0, 1, 0)) {
		t.Errorf("growing pair's drift not increasing: %v vs %v", m.DriftOf(0, 1, 2), m.DriftOf(0, 1, 0))
	}
	// Pair (1,2) decays.
	if !(m.DriftOf(1, 2, 2) < m.DriftOf(1, 2, 0)) {
		t.Errorf("decaying pair's drift not decreasing")
	}
	// Per-period normalization keeps drifts within [-1, 1].
	for k := 0; k < 3; k++ {
		for _, pr := range [][2]dataset.UserID{{0, 1}, {0, 2}, {1, 2}} {
			if d := m.DriftOf(pr[0], pr[1], k); d < -1 || d > 1 {
				t.Errorf("drift %v out of range at period %d", d, k)
			}
		}
	}
}

func TestAffVIsMeanOfDrifts(t *testing.T) {
	m := testModel(t)
	want := (m.DriftOf(0, 1, 0) + m.DriftOf(0, 1, 1)) / 2
	if got := m.AffV(0, 1, 1); math.Abs(got-want) > 1e-12 {
		t.Errorf("AffV = %v, want %v", got, want)
	}
}

func TestDiscreteContinuousBounds(t *testing.T) {
	m := testModel(t)
	f := func(a, b, k uint8) bool {
		u := dataset.UserID(a % 3)
		v := dataset.UserID(b % 3)
		if u == v {
			return true
		}
		upTo := int(k) % 3
		d := m.Discrete(u, v, upTo)
		c := m.Continuous(u, v, upTo)
		return d >= 0 && d <= 1 && c >= 0 && c <= 1 &&
			d == m.Discrete(v, u, upTo) && c == m.Continuous(v, u, upTo)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestContinuousGrowthAndDecay(t *testing.T) {
	m := testModel(t)
	// For a growing pair with positive cumulative drift, continuous
	// affinity exceeds static alone; for a decaying pair with negative
	// cumulative drift it falls below.
	growSum := m.DriftOf(0, 1, 0) + m.DriftOf(0, 1, 1) + m.DriftOf(0, 1, 2)
	if growSum > 0 {
		if !(m.Continuous(0, 1, 2) >= m.TimeAgnostic(0, 1)) {
			t.Errorf("positive drift should not shrink continuous affinity")
		}
	}
	decaySum := m.DriftOf(1, 2, 0) + m.DriftOf(1, 2, 1) + m.DriftOf(1, 2, 2)
	if decaySum < 0 {
		if !(m.Continuous(1, 2, 2) <= m.TimeAgnostic(1, 2)) {
			t.Errorf("negative drift should not grow continuous affinity")
		}
	}
}

func TestAppendPeriodIncremental(t *testing.T) {
	m := testModel(t)
	before := m.Timeline.NumPeriods()
	beforeDrift0 := m.DriftOf(0, 1, 0)
	if err := m.AppendPeriod(Period{300, 400}); err != nil {
		t.Fatalf("AppendPeriod: %v", err)
	}
	if m.Timeline.NumPeriods() != before+1 {
		t.Errorf("period not appended")
	}
	// Previously computed drifts must be untouched (the paper's
	// incremental maintenance property).
	if m.DriftOf(0, 1, 0) != beforeDrift0 {
		t.Errorf("existing drift recomputed")
	}
	// Overlapping append must fail.
	if err := m.AppendPeriod(Period{350, 450}); err == nil {
		t.Errorf("overlapping AppendPeriod accepted")
	}
}

func TestBuildModelValidation(t *testing.T) {
	src := pairSources{
		static:   func(u, v dataset.UserID) float64 { return 1 },
		periodic: func(u, v dataset.UserID, p Period) float64 { return 1 },
	}
	tl := uniformTimeline(100, 2)
	if _, err := BuildModel([]dataset.UserID{0}, tl, src, src); err == nil {
		t.Errorf("single-user model accepted")
	}
	if _, err := BuildModel([]dataset.UserID{0, 1}, Timeline{}, src, src); err == nil {
		t.Errorf("empty timeline accepted")
	}
	neg := pairSources{
		static:   func(u, v dataset.UserID) float64 { return -1 },
		periodic: func(u, v dataset.UserID, p Period) float64 { return 1 },
	}
	if _, err := BuildModel([]dataset.UserID{0, 1}, tl, neg, neg); err == nil {
		t.Errorf("negative static affinity accepted")
	}
	// A row index holds each user once: a repeated or negative ID is an
	// error, not a panic.
	for _, users := range [][]dataset.UserID{{0, 1, 1}, {2, 0, 2}, {0, -1, 2}} {
		if _, err := BuildModel(users, tl, src, src); err == nil {
			t.Errorf("BuildModel(%v) accepted", users)
		}
	}
}

func TestNetworkSourceMatchesPaperFormulas(t *testing.T) {
	nw := social.NewNetwork(4, [][2]dataset.UserID{{0, 2}, {1, 2}, {0, 3}, {1, 3}}, []social.PageLike{
		{User: 0, Category: 1, Time: 10},
		{User: 0, Category: 2, Time: 20},
		{User: 1, Category: 2, Time: 15},
		{User: 1, Category: 3, Time: 95},
	})
	src := NetworkSource{Network: nw}
	users := denseUsers(4)
	// affS(0,1) = |friends ∩| = |{2,3}| = 2, and affS(2,3) = |{0,1}|;
	// the other four pairs share no friend.
	static, st := src.Static(users)
	if got := static(0, 1); got != 2 {
		t.Errorf("static = %v, want 2", got)
	}
	if want := (Stats{Sum: 4, Lo: 0, Hi: 2}); st != want {
		t.Errorf("static stats %+v, want %+v", st, want)
	}
	// affP over [0,50): common categories of {1,2} and {2} = 1.
	early, st := src.Periodic(Period{0, 50}, users)
	if got := early(0, 1); got != 1 {
		t.Errorf("periodic[0,50) = %v, want 1", got)
	}
	if want := (Stats{Sum: 1, Lo: 0, Hi: 1}); st != want {
		t.Errorf("periodic[0,50) stats %+v, want %+v", st, want)
	}
	// affP over [50,100): {} vs {3} = 0.
	late, st := src.Periodic(Period{50, 100}, users)
	if got := late(0, 1); got != 0 {
		t.Errorf("periodic[50,100) = %v, want 0", got)
	}
	if st != (Stats{}) {
		t.Errorf("periodic[50,100) stats %+v, want zero", st)
	}
}

func TestNonEmptyFractionMonotoneInGranularity(t *testing.T) {
	sn, err := social.GenerateNetwork(social.DefaultSynthConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := sn.Config
	var prev float64 = -1
	for _, g := range []Granularity{Week, Month, TwoMonth, Season, HalfYear} {
		frac, n := NonEmptyFraction(sn.Network, cfg.Start, cfg.End, g)
		if frac < prev {
			t.Errorf("%v: non-empty fraction %.3f decreased from %.3f", g, frac, prev)
		}
		if n != Segment(cfg.Start, cfg.End, g).NumPeriods() {
			t.Errorf("%v: period count mismatch", g)
		}
		prev = frac
	}
}

func TestGranularityString(t *testing.T) {
	if Week.String() != "Week" || HalfYear.String() != "Half-Year" {
		t.Errorf("granularity labels wrong")
	}
}
