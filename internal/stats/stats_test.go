package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestMean(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{}, 0},
		{[]float64{4}, 4},
		{[]float64{1, 2, 3}, 2},
		{[]float64{-1, 1}, 0},
	}
	for _, tc := range cases {
		if got := Mean(tc.xs); !almostEq(got, tc.want) {
			t.Errorf("Mean(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestSampleVarianceAndStdErr(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if got := sampleVariance(xs); !almostEq(got, 2.5) {
		t.Errorf("sampleVariance = %v, want 2.5", got)
	}
	want := math.Sqrt(2.5) / math.Sqrt(5)
	if got := StdErr(xs); !almostEq(got, want) {
		t.Errorf("StdErr = %v, want %v", got, want)
	}
	if got := StdErr([]float64{1}); got != 0 {
		t.Errorf("StdErr of singleton = %v, want 0", got)
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Errorf("Clamp misbehaves")
	}
}

// valid reports whether iv is well formed (Lo <= Hi) and free of NaNs.
func valid(iv Interval) bool {
	return !math.IsNaN(iv.Lo) && !math.IsNaN(iv.Hi) && iv.Lo <= iv.Hi
}

func TestIntervalBasics(t *testing.T) {
	iv := Interval{1, 2}
	if Point(3) != (Interval{3, 3}) {
		t.Errorf("Point misbehaves")
	}
	if got := iv.Clamp(1.5, 3); got.Lo != 1.5 || got.Hi != 2 {
		t.Errorf("Clamp = %v", got)
	}
	if got := Point(5).Clamp(0, 1); got.Lo != 1 || got.Hi != 1 {
		t.Errorf("disjoint Clamp should collapse to edge: %v", got)
	}
}

func TestIntervalAbsDiff(t *testing.T) {
	a := Interval{1, 2}
	b := Interval{4, 6}
	d := a.AbsDiff(b)
	if !almostEq(d.Lo, 2) || !almostEq(d.Hi, 5) {
		t.Errorf("AbsDiff disjoint = %v, want [2,5]", d)
	}
	c := Interval{1.5, 5}
	d = a.AbsDiff(c)
	if d.Lo != 0 {
		t.Errorf("overlapping AbsDiff should have Lo 0: %v", d)
	}
}

// quickInterval converts two arbitrary floats into a valid interval in
// a bounded range to avoid overflow artifacts.
func quickInterval(a, b float64) Interval {
	a = math.Mod(a, 100)
	b = math.Mod(b, 100)
	if math.IsNaN(a) {
		a = 0
	}
	if math.IsNaN(b) {
		b = 0
	}
	return Interval{min(a, b), max(a, b)}
}

// pick returns a point inside iv parameterized by t in [0,1].
func pick(iv Interval, t float64) float64 {
	t = math.Mod(math.Abs(t), 1)
	return iv.Lo + t*(iv.Hi-iv.Lo)
}

// TestQuickIntervalSoundness: for random intervals and random points
// inside them, every arithmetic op's result interval contains the op
// applied to the points. This is the soundness property GRECA's bound
// correctness rests on.
func TestQuickIntervalSoundness(t *testing.T) {
	f := func(a1, a2, b1, b2, t1, t2 float64) bool {
		A := quickInterval(a1, a2)
		B := quickInterval(b1, b2)
		x := pick(A, t1)
		y := pick(B, t2)
		const eps = 1e-9
		if !containsEps(A.Add(B), x+y, eps) {
			return false
		}
		if !containsEps(A.Sub(B), x-y, eps) {
			return false
		}
		if !containsEps(A.Mul(B), x*y, eps) {
			return false
		}
		if !containsEps(A.AbsDiff(B), math.Abs(x-y), eps) {
			return false
		}
		if !containsEps(A.MinI(B), math.Min(x, y), eps) {
			return false
		}
		if !containsEps(A.Scale(2.5), 2.5*x, eps) {
			return false
		}
		if !containsEps(A.Scale(-1.5), -1.5*x, eps) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func containsEps(iv Interval, x, eps float64) bool {
	return iv.Lo-eps <= x && x <= iv.Hi+eps
}

// TestQuickIntervalValidity: ops on valid intervals yield valid
// intervals.
func TestQuickIntervalValidity(t *testing.T) {
	f := func(a1, a2, b1, b2 float64) bool {
		A := quickInterval(a1, a2)
		B := quickInterval(b1, b2)
		return valid(A.Add(B)) && valid(A.Sub(B)) && valid(A.Mul(B)) &&
			valid(A.AbsDiff(B)) && valid(A.MinI(B)) && valid(A.Clamp(0, 1))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestIntervalMulFastPathMatchesCorners: for valid intervals with
// non-negative ends Mul takes the like-ends shortcut; it must return the
// four-corner formula's answer to the bit. The grid holds +0, 1, equal
// ends, subnormal and irrational-ish values. A −0 end only has to
// compare ==: sums and products of GRECA's validated non-negative
// inputs never produce one, and [+0, −0] is the one shape on which the
// two formulas pick differently signed zeros.
func TestIntervalMulFastPathMatchesCorners(t *testing.T) {
	ends := []float64{0, 5e-324, 1e-9, 0.1, 0.25, 1.0 / 3, 0.5, 0.7, 1 - 1e-16, 1, 1.5, 7}
	var grid []Interval
	for i, lo := range ends {
		for _, hi := range ends[i:] {
			grid = append(grid, Interval{lo, hi})
		}
	}
	for _, a := range grid {
		for _, b := range grid {
			got, want := a.Mul(b), a.mulCorners(b)
			if math.Float64bits(got.Lo) != math.Float64bits(want.Lo) || math.Float64bits(got.Hi) != math.Float64bits(want.Hi) {
				t.Fatalf("%v.Mul(%v) = {%b, %b}, four-corner {%b, %b}", a, b, got.Lo, got.Hi, want.Lo, want.Hi)
			}
		}
	}
	negZero := math.Copysign(0, -1)
	for _, a := range []Interval{{negZero, negZero}, {negZero, 0}, {negZero, 0.5}, {0, negZero}} {
		for _, b := range grid {
			for _, pair := range [][2]Interval{{a, b}, {b, a}} {
				got, want := pair[0].Mul(pair[1]), pair[0].mulCorners(pair[1])
				if got != want {
					t.Fatalf("%v.Mul(%v) = %v, four-corner %v", pair[0], pair[1], got, want)
				}
			}
		}
	}
	// Any negative lower end must still reach the four-corner formula.
	for _, c := range []struct{ a, b, want Interval }{
		{Interval{-0.5, 0.5}, Interval{0.2, 1}, Interval{-0.5, 0.5}},
		{Interval{0.2, 1}, Interval{-0.5, 0.5}, Interval{-0.5, 0.5}},
		{Interval{-1, -0.5}, Interval{-1, 0.25}, Interval{-0.25, 1}},
	} {
		if got := c.a.Mul(c.b); got != c.want {
			t.Errorf("%v.Mul(%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}
