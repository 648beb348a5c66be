package repro

import (
	"context"
	"fmt"
	"math"
	"strings"

	"repro/internal/affinity"
	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/dataset"
)

// TimeModel selects how pairwise affinity is evaluated (§2.1 and the
// quality-study baselines of §4.1.4).
type TimeModel int

const (
	// Discrete is the paper's default: affD = affS + mean periodic
	// drift.
	Discrete TimeModel = iota
	// Continuous: affC = affS · e^{rate·Σdrift}.
	Continuous
	// TimeAgnostic uses the static component only (Figure 1C
	// baseline).
	TimeAgnostic
	// AffinityAgnostic ignores affinity entirely (Figure 1B baseline);
	// consensus aggregates absolute preferences alone.
	AffinityAgnostic
)

// ParseTimeModel resolves a time-model name as the CLIs and the HTTP
// API spell them: discrete, continuous, static (or time-agnostic),
// none (or affinity-agnostic), case-insensitively. The empty string
// selects the paper's default, Discrete.
func ParseTimeModel(name string) (TimeModel, error) {
	switch strings.ToLower(name) {
	case "", "discrete":
		return Discrete, nil
	case "continuous":
		return Continuous, nil
	case "static", "time-agnostic":
		return TimeAgnostic, nil
	case "none", "affinity-agnostic":
		return AffinityAgnostic, nil
	default:
		return 0, fmt.Errorf("repro: unknown time model %q (want discrete, continuous, static, none)", name)
	}
}

// String names the time model as in the paper's figures.
func (t TimeModel) String() string {
	switch t {
	case Discrete:
		return "discrete"
	case Continuous:
		return "continuous"
	case TimeAgnostic:
		return "time-agnostic"
	case AffinityAgnostic:
		return "affinity-agnostic"
	default:
		return fmt.Sprintf("TimeModel(%d)", int(t))
	}
}

// Options parameterizes one Recommend call. The zero value requests
// the paper's defaults: k=10, AP consensus, discrete time model at the
// latest period, 3900 candidate items, GRECA execution.
type Options struct {
	// K is the result size (10 if zero — the paper's default).
	K int
	// Consensus is the group consensus function (AP if zero value).
	Consensus consensus.Spec
	// TimeModel selects the affinity model variant.
	TimeModel TimeModel
	// Period is the 1-based number of the "now" period; 0 (the zero
	// value) means the latest period. Earlier periods reproduce the
	// paper's per-period scalability sweep (Figure 6).
	Period int
	// Items optionally fixes the candidate item set. When nil, the
	// NumItems most popular items not rated by any group member are
	// used (the paper's problem definition excludes items already
	// consumed by a member). An explicit set names each item once
	// (ErrDuplicateItem otherwise) and only catalog items (an error
	// wrapping dataset.ErrUnknownItem otherwise). The slice is copied at
	// submission, so the caller may reuse or mutate it as soon as the
	// call is made.
	Items []dataset.ItemID
	// NumItems is the candidate count when Items is nil (3900 if
	// zero — the paper's default).
	NumItems int
	// Mode selects GRECA or a baseline executor.
	Mode core.Mode
	// CheckInterval is GRECA's stopping-check cadence in rounds
	// (0 or 1 = every round; negative values are rejected).
	CheckInterval int
	// ProgressEvery thins RecommendStream's progress frames to every
	// N-th stopping check (0 or 1 = every check; negative values are
	// rejected). The terminal frame is never thinned. Skipped checks
	// build no snapshot, so large values make streaming nearly as cheap
	// as RecommendContext.
	ProgressEvery int
	// Epsilon, when positive, enables bound-gap ε stopping (NRA-style
	// ε-approximation): the run stops at the first stopping check
	// certifying that every item outside the current top-k — unseen
	// (bounded by the global threshold) or buffered (bounded by its
	// own upper bound) — scores less than Epsilon above the k-th best
	// guaranteed lower bound (core.Runner.EpsilonReached: the exact
	// threshold + buffer stopping conditions relaxed by ε). The
	// current top-k is returned as a Partial recommendation with
	// Stats.Stop = core.StopEpsilon — approximate exactness traded
	// for latency. 0 (the default) keeps runs exact; negative values
	// are rejected.
	Epsilon float64
	// MonolithicAffinityLists disables the paper's per-user
	// partitioning of affinity lists (ablation).
	MonolithicAffinityLists bool
	// LooseBounds disables cursor-based bound tightening (ablation;
	// see core.Input.LooseBounds).
	LooseBounds bool
}

// DefaultK and DefaultNumItems are the paper's §4.2 defaults.
const (
	DefaultK        = 10
	DefaultNumItems = 3900
)

// fill applies the paper's defaults to zero-valued fields and rejects
// values that are nonsensical rather than defaulted — negative K or
// NumItems would otherwise flow downstream as silently shrunken slices
// or allocation panics, and a negative CheckInterval or ProgressEvery
// would silently run as 1.
func (o *Options) fill() error {
	if o.K < 0 {
		return fmt.Errorf("repro: negative K %d", o.K)
	}
	if o.NumItems < 0 {
		return fmt.Errorf("repro: negative NumItems %d", o.NumItems)
	}
	if o.CheckInterval < 0 {
		return fmt.Errorf("repro: negative CheckInterval %d", o.CheckInterval)
	}
	if o.ProgressEvery < 0 {
		return fmt.Errorf("repro: negative ProgressEvery %d", o.ProgressEvery)
	}
	if o.Epsilon < 0 || math.IsNaN(o.Epsilon) {
		return fmt.Errorf("repro: invalid Epsilon %v (want >= 0)", o.Epsilon)
	}
	if o.K == 0 {
		o.K = DefaultK
	}
	zero := consensus.Spec{}
	if o.Consensus == zero {
		o.Consensus = consensus.AP()
	}
	if o.NumItems == 0 {
		o.NumItems = DefaultNumItems
	}
	// Defensive copy: a run reads its candidate slice for its whole
	// lifetime, so a caller mutating its slice after submission (from a
	// progress callback, or another goroutine) must not reach it. The
	// copy of an empty slice stays non-nil — nil selects candidate
	// generation, empty is a (rejected) explicit choice.
	if o.Items != nil {
		o.Items = append(make([]dataset.ItemID, 0, len(o.Items)), o.Items...)
	}
	return nil
}

// ScoredItem is one recommended item. Score is the guaranteed lower
// bound of the item's consensus score (exact when UpperBound equals
// Score); GRECA's early termination may leave the top-k itemset only
// partially ordered, as the paper notes.
type ScoredItem struct {
	Item       dataset.ItemID
	Score      float64
	UpperBound float64
}

// Recommendation is the result of one Recommend call.
type Recommendation struct {
	Items []ScoredItem
	Stats core.AccessStats
	// Period is the resolved "now" period index.
	Period int
	// Partial marks a recommendation cut short before the exact
	// stopping conditions were met — a cancelled context, a streaming
	// consumer that stopped (both Stats.Stop = core.StopCancelled), or
	// the bound-gap ε policy firing (Stats.Stop = core.StopEpsilon).
	// Items then carry the best bounds known at interruption (possibly
	// fewer than K of them). Completed runs always have Partial false.
	Partial bool
}

// Recommend computes the top-k itemset for the ad-hoc group under opt.
// It is RecommendContext under a background context — a blocking,
// uncancellable call kept for compatibility.
func (w *World) Recommend(group []dataset.UserID, opt Options) (*Recommendation, error) {
	return w.RecommendContext(context.Background(), group, opt)
}

// BuildProblem exposes the assembled core problem for benchmarks and
// experiments that need direct control over Run modes. items maps the
// problem's item indexes back to dataset IDs. The problem escapes the
// facade here, so its preference rows are not pooled.
func (w *World) BuildProblem(group []dataset.UserID, opt Options) (*core.Problem, []dataset.ItemID, error) {
	prob, items, _, _, err := w.buildProblem(group, &opt)
	return prob, items, err
}

// buildProblem assembles the core problem. The returned release hands
// the problem's preference rows back to the assembler pool; callers
// must invoke it only once nothing can read the problem anymore, and
// exactly once (Recommend defers it; BuildProblem drops it so escaped
// problems keep their rows).
func (w *World) buildProblem(group []dataset.UserID, opt *Options) (*core.Problem, []dataset.ItemID, int, func(), error) {
	noRelease := func() {}
	if err := opt.fill(); err != nil {
		return nil, nil, 0, noRelease, err
	}
	if len(group) < 1 {
		return nil, nil, 0, noRelease, fmt.Errorf("repro: %w", ErrEmptyGroup)
	}
	if u, dup := firstDuplicate(group); dup {
		return nil, nil, 0, noRelease, fmt.Errorf("repro: %w %d", ErrDuplicateMember, u)
	}

	last := w.lastPeriod()
	period := last
	if opt.Period != 0 {
		if opt.Period < 1 || opt.Period > last+1 {
			return nil, nil, 0, noRelease, fmt.Errorf("repro: %w: period %d outside [1,%d]", ErrPeriodOutOfRange, opt.Period, last+1)
		}
		period = opt.Period - 1
	}

	items := opt.Items
	if items == nil {
		items = w.CandidateItems(group, opt.NumItems)
	} else {
		// An explicit set is the caller's: each item once, each in the
		// catalog. Generated candidates are both by construction.
		if it, dup := firstDuplicate(items); dup {
			return nil, nil, 0, noRelease, fmt.Errorf("repro: %w %d", ErrDuplicateItem, it)
		}
		for _, it := range items {
			if err := w.ratings.CheckItem(it); err != nil {
				return nil, nil, 0, noRelease, fmt.Errorf("repro: candidate item: %w", err)
			}
		}
	}
	if len(items) == 0 {
		return nil, nil, 0, noRelease, fmt.Errorf("repro: no candidate items for group")
	}
	if opt.K > len(items) {
		return nil, nil, 0, noRelease, fmt.Errorf("repro: %w: K=%d exceeds candidate count %d", ErrKExceedsCandidates, opt.K, len(items))
	}

	g := len(group)
	in := core.Input{
		Spec:              opt.Consensus,
		K:                 opt.K,
		PartitionAffinity: !opt.MonolithicAffinityLists,
		CheckInterval:     opt.CheckInterval,
		LooseBounds:       opt.LooseBounds,
	}

	// Affinity components per the selected time model.
	switch opt.TimeModel {
	case AffinityAgnostic:
		in.Agg = core.NoAffinityAggregator{}
	case TimeAgnostic:
		in.Agg = core.StaticAggregator{}
		in.Static, _ = w.groupAffinity(group, -1)
	case Continuous:
		in.Agg = core.ContinuousAggregator{Periods: period + 1, Rate: affinity.ContinuousRate}
		in.Static, in.Drift = w.groupAffinity(group, period)
	default: // Discrete
		in.Agg = core.DiscreteAggregator{Periods: period + 1}
		in.Static, in.Drift = w.groupAffinity(group, period)
	}
	if g < 2 {
		// Single-member group degenerates to individual top-k.
		in.Agg = core.NoAffinityAggregator{}
		in.Static, in.Drift = nil, nil
	}

	// Absolute preferences and the problem: the assembler serves the
	// rows from the sorted-list store's views when they cover this
	// candidate slice, densely otherwise — identical values either way.
	// With remote shard workers attached, either path fetches per-member
	// data over the wire and a dead worker surfaces here as a typed
	// transport error (ErrShardUnavailable / ErrShardTimeout).
	prob, release, err := w.asm.Problem(in, group, items)
	if err != nil {
		return nil, nil, 0, noRelease, fmt.Errorf("repro: building problem: %w", err)
	}
	return prob, items, period, release, nil
}

// firstDuplicate returns the first element of xs equal to an earlier
// one. Up to 64 elements — every realistic group — are scanned
// quadratically (a group is checked on every request, and a map would be
// the check's only allocation); longer slices go through a map.
func firstDuplicate[T comparable](xs []T) (T, bool) {
	if len(xs) <= 64 {
		for i, x := range xs {
			for _, y := range xs[:i] {
				if x == y {
					return x, true
				}
			}
		}
	} else {
		seen := make(map[T]bool, len(xs))
		for _, x := range xs {
			if seen[x] {
				return x, true
			}
			seen[x] = true
		}
	}
	var zero T
	return zero, false
}

// lastPeriod resolves the index of the newest indexed period under the
// period lock: AppendNextPeriod may be extending the timeline while
// requests resolve against it. A period index resolved here stays
// valid forever — periods only accrete, never move.
func (w *World) lastPeriod() int {
	w.periodMu.RLock()
	defer w.periodMu.RUnlock()
	return w.model.Timeline.NumPeriods() - 1
}

// groupAffinity reads the normalized affinities of every group pair,
// each row in core.PairIndex order, through one model call: the static
// row and one drift row for each period 0..period (none when period is
// negative). Values are normalized over the population (§4.1.2
// normalizes per group instead; a population-wide scale is the same up
// to a per-group constant but keeps affinities comparable across
// groups, which the scalability sweeps rely on). The period lock covers
// the read: AppendNextPeriod may be appending to the model's period
// tables.
func (w *World) groupAffinity(group []dataset.UserID, period int) (static []float64, drift [][]float64) {
	np := core.NumPairs(len(group))
	vals := make([]float64, (period+2)*np)
	static = vals[:np:np]
	if period >= 0 {
		drift = make([][]float64, period+1)
		for t := range drift {
			drift[t] = vals[(t+1)*np : (t+2)*np : (t+2)*np]
		}
	}
	w.periodMu.RLock()
	defer w.periodMu.RUnlock()
	w.model.GroupAffinity(group, static, drift)
	return static, drift
}

// CandidateItems returns up to n of the most popular items that no
// group member has rated — the paper's candidate pool with the
// problem-definition exclusion applied. n <= 0 returns every unrated
// item. The walk is the store's (dataset.Store.UnratedPopular): the
// members' rows OR-ed into one bitset over item positions, then the
// precomputed popularity ranking.
func (w *World) CandidateItems(group []dataset.UserID, n int) []dataset.ItemID {
	return w.ratings.UnratedPopular(group, n)
}

// PairAffinity returns the pairwise affinity of (u,v) under the given
// time model at period index (use -1 for the latest period). It is the
// exact value GRECA's lists are built from, before group-level static
// re-normalization. A user paired with itself reads 0, as does a pair
// with a user outside the study population.
func (w *World) PairAffinity(u, v dataset.UserID, tm TimeModel, period int) float64 {
	if u == v {
		return 0
	}
	w.periodMu.RLock()
	defer w.periodMu.RUnlock()
	last := w.model.Timeline.NumPeriods() - 1
	if period < 0 || period > last {
		period = last
	}
	switch tm {
	case AffinityAgnostic:
		return 0
	case TimeAgnostic:
		return w.model.TimeAgnostic(u, v)
	case Continuous:
		return w.model.Continuous(u, v, period)
	default:
		return w.model.Discrete(u, v, period)
	}
}
