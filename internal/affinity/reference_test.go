package affinity

import (
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/social"
)

// pairSources are plain per-pair affinity functions, the form the
// reference builder calls. As model sources they fold their Stats by
// brute force, in the reference's (i, j > i) order.
type pairSources struct {
	static   func(u, v dataset.UserID) float64
	periodic func(u, v dataset.UserID, p Period) float64
}

func (s pairSources) Static(users []dataset.UserID) (func(u, v dataset.UserID) float64, Stats) {
	return s.static, pairStats(users, s.static)
}

func (s pairSources) Periodic(p Period, users []dataset.UserID) (func(u, v dataset.UserID) float64, Stats) {
	pair := func(u, v dataset.UserID) float64 { return s.periodic(u, v, p) }
	return pair, pairStats(users, pair)
}

// pairStats folds pair over the population's pairs in (i, j > i) order,
// the user of the lower row first. A NaN value makes every field NaN.
func pairStats(users []dataset.UserID, pair func(u, v dataset.UserID) float64) Stats {
	st := Stats{Lo: math.Inf(1), Hi: math.Inf(-1)}
	for i, u := range users {
		for _, v := range users[i+1:] {
			a := pair(u, v)
			st.Sum, st.Lo, st.Hi = st.Sum+a, min(st.Lo, a), max(st.Hi, a)
		}
	}
	return st
}

// uniformTimeline cuts [0, end) into n periods of near-equal length.
func uniformTimeline(end int64, n int) Timeline {
	tl := Timeline{End: end}
	for i := range int64(n) {
		tl.Periods = append(tl.Periods, Period{Start: end * i / int64(n), End: end * (i + 1) / int64(n)})
	}
	return tl
}

// networkPairs applies §4.1.2's set definitions to one pair at a time:
// the friends both users have, and the categories both liked during p.
func networkPairs(nw *social.Network) pairSources {
	return pairSources{
		static: func(u, v dataset.UserID) float64 {
			n := 0
			for w := range nw.NumUsers() {
				if w := dataset.UserID(w); nw.AreFriends(u, w) && nw.AreFriends(v, w) {
					n++
				}
			}
			return float64(n)
		},
		periodic: func(u, v dataset.UserID, p Period) float64 {
			return float64(nw.CategoriesIn(u, p.Start, p.End).IntersectCount(nw.CategoriesIn(v, p.Start, p.End)))
		},
	}
}

type refKey [2]dataset.UserID

func keyOf(u, v dataset.UserID) refKey {
	if u > v {
		u, v = v, u
	}
	return refKey{u, v}
}

// referenceModel is the affinity model built the plain way: one source
// call per pair, one map per table, and the formulas of §2.1 and §4.1.2
// applied serially, sums in (i, j > i) order.
type referenceModel struct {
	static map[refKey]float64
	drift  []map[refKey]float64
}

func buildReference(users []dataset.UserID, periods []Period, src pairSources) referenceModel {
	ref := referenceModel{static: map[refKey]float64{}}
	var maxStatic float64
	for i, u := range users {
		for _, v := range users[i+1:] {
			raw := src.static(u, v)
			ref.static[keyOf(u, v)] = raw
			if raw > maxStatic {
				maxStatic = raw
			}
		}
	}
	if maxStatic > 0 {
		f := 1 / maxStatic
		for k, raw := range ref.static {
			ref.static[k] = raw * f
		}
	}
	for _, p := range periods {
		drift := map[refKey]float64{}
		var sum float64
		for i, u := range users {
			for _, v := range users[i+1:] {
				a := src.periodic(u, v, p)
				drift[keyOf(u, v)] = a
				sum += a
			}
		}
		avg := sum / float64(len(drift))
		var maxAbs float64
		for k, a := range drift {
			drift[k] = a - avg
			if ab := math.Abs(a - avg); ab > maxAbs {
				maxAbs = ab
			}
		}
		if maxAbs > 0 {
			f := 1 / maxAbs
			for k, d := range drift {
				drift[k] = d * f
			}
		}
		ref.drift = append(ref.drift, drift)
	}
	return ref
}

func (r referenceModel) driftSum(u, v dataset.UserID, upTo int) float64 {
	var s float64
	for t := 0; t <= upTo; t++ {
		s += r.drift[t][keyOf(u, v)]
	}
	return s
}

func (r referenceModel) discrete(u, v dataset.UserID, upTo int) float64 {
	return clamp01(r.static[keyOf(u, v)] + r.driftSum(u, v, upTo)/float64(upTo+1))
}

func (r referenceModel) continuous(u, v dataset.UserID, upTo int) float64 {
	return clamp01(r.static[keyOf(u, v)] * math.Exp(ContinuousRate*r.driftSum(u, v, upTo)))
}

// assertMatchesReference compares every static, drift, discrete and
// continuous value of m with the reference, bit for bit, in both
// argument orders.
func assertMatchesReference(t *testing.T, m *Model, ref referenceModel) {
	t.Helper()
	if len(m.drift) != len(ref.drift) {
		t.Fatalf("model has %d periods, reference %d", len(m.drift), len(ref.drift))
	}
	same := func(what string, u, v dataset.UserID, k int, got, want float64) {
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s(%d,%d) at period %d = %v, reference %v", what, u, v, k, got, want)
		}
	}
	for i, u := range m.Users {
		for _, v := range m.Users[i+1:] {
			for _, o := range [][2]dataset.UserID{{u, v}, {v, u}} {
				a, b := o[0], o[1]
				same("StaticOf", a, b, -1, m.StaticOf(a, b), ref.static[keyOf(a, b)])
				for k := range ref.drift {
					same("DriftOf", a, b, k, m.DriftOf(a, b, k), ref.drift[k][keyOf(a, b)])
					same("Discrete", a, b, k, m.Discrete(a, b, k), ref.discrete(a, b, k))
					same("Continuous", a, b, k, m.Continuous(a, b, k), ref.continuous(a, b, k))
				}
			}
		}
	}
}

func referenceNetwork(t *testing.T, users, communities int) *social.SynthNetwork {
	t.Helper()
	cfg := social.DefaultSynthConfig()
	cfg.Users, cfg.Communities = users, communities
	sn, err := social.GenerateNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sn
}

func denseUsers(n int) []dataset.UserID {
	users := make([]dataset.UserID, n)
	for i := range users {
		users[i] = dataset.UserID(i)
	}
	return users
}

// The count-built normalizers and the on-demand reads reproduce the
// serial per-pair reference bit for bit. Run it with -race -cpu 1,4:
// reads run beside each other without a lock.
func TestModelMatchesReference(t *testing.T) {
	sn := referenceNetwork(t, 120, 10)
	tl := Segment(sn.Config.Start, sn.Config.End, TwoMonth)
	users := denseUsers(sn.Config.Users)
	src := NetworkSource{Network: sn.Network}
	ref := buildReference(users, tl.Periods, networkPairs(sn.Network))

	t.Run("batch", func(t *testing.T) {
		m, err := BuildModel(users, tl, src, src)
		if err != nil {
			t.Fatal(err)
		}
		if tl.NumPeriods() != 6 {
			t.Fatalf("%d periods, want 6", tl.NumPeriods())
		}
		assertMatchesReference(t, m, ref)
	})

	t.Run("appended", func(t *testing.T) {
		initial := Timeline{Start: tl.Start, End: tl.Periods[1].End, Periods: append([]Period(nil), tl.Periods[:2]...)}
		m, err := BuildModel(users, initial, src, src)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range tl.Periods[2:] {
			if err := m.AppendPeriod(p); err != nil {
				t.Fatal(err)
			}
		}
		if m.Timeline.End != tl.End {
			t.Errorf("timeline ends at %d, want %d", m.Timeline.End, tl.End)
		}
		assertMatchesReference(t, m, ref)
		batch, err := BuildModel(users, tl, src, src)
		if err != nil {
			t.Fatal(err)
		}
		for k := range batch.AvgPeriodic {
			if math.Float64bits(m.AvgPeriodic[k]) != math.Float64bits(batch.AvgPeriodic[k]) {
				t.Errorf("period %d mean %v appended, %v batch", k, m.AvgPeriodic[k], batch.AvgPeriodic[k])
			}
		}
	})

	// A source that is not a count hands over stats it folded itself;
	// the model normalizes with them as given.
	t.Run("fractional", func(t *testing.T) {
		frac := pairSources{
			static: func(u, v dataset.UserID) float64 { return math.Sqrt(float64(u*v + 1)) },
			periodic: func(u, v dataset.UserID, p Period) float64 {
				return math.Mod(float64(u*v)/7+float64(u+v)/3+float64(p.Start/86400), 5)
			},
		}
		m, err := BuildModel(users, tl, frac, frac)
		if err != nil {
			t.Fatal(err)
		}
		assertMatchesReference(t, m, buildReference(users, tl.Periods, frac))
	})
}

// A population whose IDs are neither 0..n−1 nor sorted: rows follow the
// population order, and an ID outside it reads 0.
func TestSparsePopulationMatchesReference(t *testing.T) {
	sn := referenceNetwork(t, 200, 12)
	tl := Segment(sn.Config.Start, sn.Config.End, TwoMonth)
	perm := rand.New(rand.NewSource(3)).Perm(sn.Config.Users)
	users := make([]dataset.UserID, 70)
	for i := range users {
		users[i] = dataset.UserID(perm[i])
	}
	outside := dataset.UserID(perm[len(users)])
	src := NetworkSource{Network: sn.Network}
	m, err := BuildModel(users, tl, src, src)
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesReference(t, m, buildReference(users, tl.Periods, networkPairs(sn.Network)))

	last := tl.NumPeriods() - 1
	for _, o := range []dataset.UserID{outside, -1, 1 << 20} {
		u := users[0]
		reads := []float64{
			m.StaticOf(u, o), m.StaticOf(o, u), m.DriftOf(u, o, last), m.AffV(o, u, last),
			m.Discrete(u, o, last), m.Continuous(o, u, last), m.TimeAgnostic(u, o),
		}
		for _, x := range reads {
			if x != 0 {
				t.Errorf("user %d outside the population reads %v, want 0", o, x)
			}
		}
	}
}

// countsMatchReference checks that NetworkSource's counted Stats are a
// brute-force fold of its own pair values over users, for the static
// table and every period of tl, and that a model built from them — the
// first period at build, the rest appended — reads as the reference.
// It returns the model.
func countsMatchReference(t *testing.T, nw *social.Network, users []dataset.UserID, tl Timeline) *Model {
	t.Helper()
	src := NetworkSource{Network: nw}
	pair, st := src.Static(users)
	if want := pairStats(users, pair); st != want {
		t.Fatalf("static stats %+v, brute force %+v", st, want)
	}
	for k, p := range tl.Periods {
		pair, st := src.Periodic(p, users)
		if want := pairStats(users, pair); st != want {
			t.Fatalf("period %d stats %+v, brute force %+v", k, st, want)
		}
	}
	first := Timeline{Start: tl.Start, End: tl.Periods[0].End, Periods: tl.Periods[:1:1]}
	m, err := BuildModel(users, first, src, src)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range tl.Periods[1:] {
		if err := m.AppendPeriod(p); err != nil {
			t.Fatal(err)
		}
	}
	assertMatchesReference(t, m, buildReference(users, tl.Periods, networkPairs(nw)))
	return m
}

// The counted stats hold on the edge cases of each count and of each
// search's stopping rule: no disjoint pair, no likes at all, a common
// friend outside the population, a population that is a strict subset
// of the network out of ID order, and two users.
func TestNetworkStatsMatchReference(t *testing.T) {
	// A five-user clique: every pair of the population {3,1,0,2} shares
	// three friends, one of them user 4, outside it. In [0,100) all five
	// like category 7, so no pair is disjoint; nobody likes anything in
	// [100,200); in [200,300) some pairs share a category and some not.
	// In [300,400) the sets {1}, {1,2}, {2,3,4}, {1,3,4,5} meet in every
	// pair adjacent in size, and only the smallest and third are disjoint.
	// In [400,500) the smallest set {1,2} meets every other, and the
	// disjoint pair is {1,3,4} and {2,5,6}. In [500,600) the largest set
	// {1,2,3,4,6} meets {6,7} and {6,7} in one category, and they meet
	// each other in two.
	clique := social.NewNetwork(5)
	for u := range dataset.UserID(5) {
		for v := u + 1; v < 5; v++ {
			clique.AddFriendship(u, v)
		}
	}
	for _, l := range [][3]int{
		{0, 7, 10}, {1, 7, 20}, {2, 7, 30}, {3, 7, 40}, {4, 7, 50},
		{0, 1, 60}, {1, 2, 61}, {2, 1, 62}, {2, 2, 63}, {3, 9, 64},
		{0, 5, 210}, {2, 5, 220}, {2, 6, 230}, {1, 6, 240}, {3, 8, 250},
		{0, 1, 310}, {1, 1, 320}, {1, 2, 321}, {2, 2, 330}, {2, 3, 331}, {2, 4, 332},
		{3, 1, 340}, {3, 3, 341}, {3, 4, 342}, {3, 5, 343},
		{0, 1, 410}, {0, 2, 411}, {1, 1, 420}, {1, 3, 421}, {1, 4, 422},
		{2, 2, 430}, {2, 5, 431}, {2, 6, 432}, {3, 1, 440}, {3, 2, 441}, {3, 3, 442}, {3, 5, 443},
		{0, 1, 510}, {0, 2, 511}, {0, 3, 512}, {0, 4, 513}, {0, 6, 514},
		{1, 6, 520}, {1, 7, 521}, {2, 6, 530}, {2, 7, 531}, {3, 8, 540},
	} {
		clique.AddLike(social.PageLike{User: dataset.UserID(l[0]), Category: l[1], Time: int64(l[2])})
	}
	clique.Freeze()
	tl := uniformTimeline(600, 6)

	t.Run("clique", func(t *testing.T) {
		users := []dataset.UserID{3, 1, 0, 2}
		m := countsMatchReference(t, clique, users, tl)
		src := NetworkSource{Network: clique}
		if _, st := src.Static(users); st.Lo != 3 || st.Hi != 3 {
			t.Errorf("static stats %+v, want every pair at 3", st)
		}
		if _, st := src.Periodic(tl.Periods[0], users); st.Lo == 0 {
			t.Errorf("period 0 stats %+v have a disjoint pair", st)
		}
		if _, st := src.Periodic(tl.Periods[1], users); st != (Stats{}) || m.drift[1].scale != 1 {
			t.Errorf("empty period stats %+v, scale %v", st, m.drift[1].scale)
		}
	})
	t.Run("two users", func(t *testing.T) {
		countsMatchReference(t, clique, []dataset.UserID{2, 0}, tl)
	})
	t.Run("subset out of ID order", func(t *testing.T) {
		sn := referenceNetwork(t, 150, 10)
		perm := rand.New(rand.NewSource(4)).Perm(sn.Config.Users)
		users := make([]dataset.UserID, 60)
		for i := range users {
			users[i] = dataset.UserID(perm[i])
		}
		countsMatchReference(t, sn.Network, users, Segment(sn.Config.Start, sn.Config.End, TwoMonth))
	})
}

func TestIdenticalUsersPanic(t *testing.T) {
	m := testModel(t)
	for name, read := range map[string]func(){
		"StaticOf":   func() { m.StaticOf(1, 1) },
		"DriftOf":    func() { m.DriftOf(2, 2, 0) },
		"AffV":       func() { m.AffV(0, 0, 1) },
		"Discrete":   func() { m.Discrete(1, 1, 2) },
		"Continuous": func() { m.Continuous(2, 2, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s of identical users did not panic", name)
				}
			}()
			read()
		}()
	}
}

// badPairs gives the pair (1,2) x and every other pair 1, in the period
// starting at from and later.
func badPairs(x float64, from int64) func(u, v dataset.UserID, p Period) float64 {
	return func(u, v dataset.UserID, p Period) float64 {
		if p.Start >= from && keyOf(u, v) == (refKey{1, 2}) {
			return x
		}
		return 1
	}
}

func onePair(u, v dataset.UserID) float64 { return 1 }

type badCase struct {
	src  pairSources
	want string
}

// assertBuildRefused builds c.src on a population whose rows are not in
// ID order and wants exactly c.want as the error.
func assertBuildRefused(t *testing.T, cases []badCase) {
	t.Helper()
	users := []dataset.UserID{3, 1, 2, 0}
	tl := uniformTimeline(300, 3)
	for _, c := range cases {
		_, err := BuildModel(users, tl, c.src, c.src)
		if err == nil || err.Error() != c.want {
			t.Errorf("BuildModel error %v, want %q", err, c.want)
		}
	}
}

// A negative affinity makes its table's stats negative, and the build
// refuses the table, naming it: the static one, or a periodic one by its
// period.
func TestNegativeAffinityNamesFirstPair(t *testing.T) {
	assertBuildRefused(t, []badCase{
		{pairSources{static: func(u, v dataset.UserID) float64 { return badPairs(-3, 0)(u, v, Period{}) }, periodic: badPairs(1, 0)},
			"affinity: negative or non-finite static stats (sum 2, lo -3, hi 1)"},
		{pairSources{static: onePair, periodic: badPairs(-1, 200)},
			"affinity: negative or non-finite periodic stats (sum 4, lo -1, hi 1) in period 2"},
	})
}

// A NaN or infinite affinity makes its table's stats non-finite, and the
// table is refused at build or on append, naming it as above.
func TestNaNAffinityNamesFirstPair(t *testing.T) {
	assertBuildRefused(t, []badCase{
		{pairSources{static: func(u, v dataset.UserID) float64 { return badPairs(math.NaN(), 0)(u, v, Period{}) }, periodic: badPairs(1, 0)},
			"affinity: negative or non-finite static stats (sum NaN, lo NaN, hi NaN)"},
		{pairSources{static: onePair, periodic: badPairs(math.Inf(1), 100)},
			"affinity: negative or non-finite periodic stats (sum +Inf, lo 1, hi +Inf) in period 1"},
	})
	late := pairSources{static: onePair, periodic: badPairs(math.NaN(), 300)}
	m, err := BuildModel([]dataset.UserID{3, 1, 2, 0}, uniformTimeline(300, 3), late, late)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AppendPeriod(Period{300, 400}); err == nil || err.Error() != "affinity: negative or non-finite periodic stats (sum NaN, lo NaN, hi NaN) in period 3" {
		t.Errorf("AppendPeriod error %v", err)
	}
}

// skewPairs is a fractional source that is not symmetric:
// pair(u,v) ≠ pair(v,u).
var skewPairs = pairSources{
	static: func(u, v dataset.UserID) float64 { return math.Sqrt(float64(3*u+v+1)) / 7 },
	periodic: func(u, v dataset.UserID, p Period) float64 {
		return math.Mod(float64(u)/3+float64(v*v)/11+float64(p.Start)/97, 4)
	},
}

// shuffledUsers returns n distinct IDs below 3n/2 whose rows are not in
// ID order.
func shuffledUsers(n int) []dataset.UserID {
	perm := rand.New(rand.NewSource(5)).Perm(3 * n / 2)
	users := make([]dataset.UserID, n)
	for i := range users {
		users[i] = dataset.UserID(perm[i])
	}
	return users
}

// A source need not be symmetric: the build and every read call it with
// the user of the lower row first. The population's rows are not in ID
// order, so a read that ordered by ID would call it the other way round.
func TestAsymmetricSourceMatchesReference(t *testing.T) {
	tl := uniformTimeline(600, 4)
	users := shuffledUsers(60)
	if skewPairs.static(users[0], users[1]) == skewPairs.static(users[1], users[0]) {
		t.Fatal("the source is symmetric on the first pair")
	}
	m, err := BuildModel(users, tl, skewPairs, skewPairs)
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesReference(t, m, buildReference(users, tl.Periods, skewPairs))
}

// GroupAffinity reads what StaticOf and DriftOf read, bit for bit, in
// core.PairIndex order over the members as given, whatever their rows;
// a member outside the population reads 0 in every pair it is in.
func TestGroupAffinityMatchesReference(t *testing.T) {
	tl := uniformTimeline(600, 4)
	users := shuffledUsers(60)
	m, err := BuildModel(users, tl, skewPairs, skewPairs)
	if err != nil {
		t.Fatal(err)
	}
	ref := buildReference(users, tl.Periods, skewPairs)
	outside := shuffledUsers(90)[60]
	groups := [][]dataset.UserID{
		{users[7], users[3]},
		{users[40], users[2], users[59], users[13], users[5]},
		{users[12], outside, users[4]},
		users[:18],
	}
	for _, group := range groups {
		g := len(group)
		static := make([]float64, g*(g-1)/2)
		drift := make([][]float64, tl.NumPeriods())
		for k := range drift {
			drift[k] = make([]float64, len(static))
		}
		m.GroupAffinity(group, static, drift)
		x := 0
		for a, u := range group {
			for _, v := range group[a+1:] {
				want := ref.static[keyOf(u, v)]
				if math.Float64bits(static[x]) != math.Float64bits(want) || static[x] != m.StaticOf(v, u) {
					t.Fatalf("group %v: static(%d,%d) = %v, reference %v", group, u, v, static[x], want)
				}
				for k := range drift {
					want := ref.drift[k][keyOf(u, v)]
					if math.Float64bits(drift[k][x]) != math.Float64bits(want) || drift[k][x] != m.DriftOf(u, v, k) {
						t.Fatalf("group %v: drift(%d,%d) at period %d = %v, reference %v", group, u, v, k, drift[k][x], want)
					}
				}
				x++
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("GroupAffinity of a group with a repeated member did not panic")
		}
	}()
	m.GroupAffinity([]dataset.UserID{users[4], users[9], users[4]}, make([]float64, 3), nil)
}

// Rows are indexed by the population, not by its largest ID: two users
// 2^36 apart build and read like any other pair, and a repeated far ID
// is still refused.
func TestLargeUserIDs(t *testing.T) {
	far := dataset.UserID(1) << 36
	tl := uniformTimeline(300, 3)
	src := pairSources{
		static:   func(u, v dataset.UserID) float64 { return float64(u%7 + v%5) },
		periodic: func(u, v dataset.UserID, p Period) float64 { return float64((u+v)%3) + float64(p.Start)/100 },
	}
	for _, users := range [][]dataset.UserID{{0, far}, {far + 9, 4, far, 1 << 40}} {
		m, err := BuildModel(users, tl, src, src)
		if err != nil {
			t.Fatalf("BuildModel(%v): %v", users, err)
		}
		assertMatchesReference(t, m, buildReference(users, tl.Periods, src))
		for _, o := range []dataset.UserID{1, far + 1, far - 1} {
			if x := m.StaticOf(users[0], o); x != 0 {
				t.Errorf("population %v: user %d outside it reads %v", users, o, x)
			}
		}
	}
	if _, err := BuildModel([]dataset.UserID{far, 0, far}, tl, src, src); err == nil {
		t.Error("a repeated far user ID was accepted")
	}
}

// The model keeps its normalizers and bound sources, not the pairs: at
// 1 000 users over six periods the seven tables would hold 28 MB.
func TestModelRetainsNoTable(t *testing.T) {
	sn := referenceNetwork(t, 1000, 80)
	tl := Segment(sn.Config.Start, sn.Config.End, TwoMonth)
	users := denseUsers(sn.Config.Users)
	src := NetworkSource{Network: sn.Network}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m, err := BuildModel(users, tl, src, src)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if tl.NumPeriods() != 6 {
		t.Fatalf("%d periods, want 6", tl.NumPeriods())
	}
	if kept := int64(after.HeapAlloc) - int64(before.HeapAlloc); kept >= 1<<20 {
		t.Errorf("the model retains %d bytes of heap, want under 1 MB", kept)
	}
	runtime.KeepAlive(m)
}

// An append that fails leaves the model as it was: no period, no mean,
// and every read the same.
func TestFailedAppendLeavesModelUnchanged(t *testing.T) {
	users := []dataset.UserID{3, 1, 2, 0}
	src := pairSources{
		static: func(u, v dataset.UserID) float64 { return float64(u+v) / 3 },
		periodic: func(u, v dataset.UserID, p Period) float64 {
			if p.Start >= 300 && keyOf(u, v) == (refKey{1, 2}) {
				return -1
			}
			return float64(u*v)/5 + float64(p.Start)/70
		},
	}
	m, err := BuildModel(users, uniformTimeline(300, 3), src, src)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := func() []float64 {
		vals := append([]float64{float64(m.Timeline.NumPeriods()), float64(m.Timeline.End)}, m.AvgPeriodic...)
		for i, u := range m.Users {
			for _, v := range m.Users[i+1:] {
				vals = append(vals, m.StaticOf(u, v))
				for k := range m.Timeline.NumPeriods() {
					vals = append(vals, m.DriftOf(u, v, k), m.Discrete(v, u, k), m.Continuous(u, v, k))
				}
			}
		}
		return vals
	}
	want := snapshot()
	if err := m.AppendPeriod(Period{300, 400}); err == nil || !strings.HasPrefix(err.Error(), "affinity: negative or non-finite periodic stats") || !strings.HasSuffix(err.Error(), " in period 3") {
		t.Fatalf("AppendPeriod error %v", err)
	}
	got := snapshot()
	if len(got) != len(want) {
		t.Fatalf("snapshot has %d values after the failed append, %d before", len(got), len(want))
	}
	for x := range want {
		if math.Float64bits(got[x]) != math.Float64bits(want[x]) {
			t.Fatalf("value %d is %v after the failed append, %v before", x, got[x], want[x])
		}
	}
}
