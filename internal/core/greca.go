package core

import (
	"fmt"
	"sort"
)

// Mode selects the execution strategy.
type Mode int

const (
	// ModeGRECA is the paper's algorithm: NRA-style sequential
	// accesses, interval bounds, global-threshold and buffer stopping
	// conditions with incremental pruning.
	ModeGRECA Mode = iota
	// ModeThresholdExact is the conservative TA-style baseline used in
	// the ablation study: it may stop only once k items have fully
	// known (exact) scores and the k-th exact score dominates the
	// global threshold. It never prunes on partial bounds, so it
	// needs substantially more accesses than GRECA.
	ModeThresholdExact
	// ModeFullScan reads every entry of every list and ranks by exact
	// score — the naive baseline defining 100% accesses.
	ModeFullScan
	// ModeTA is the classic Threshold Algorithm adapted naively: each
	// sorted access on a preference list triggers random accesses that
	// resolve the item's complete score (every apref component plus
	// every affinity entry each member's relative preference touches —
	// the paper's §3.1 example counts 21 RAs per item for a 3-member
	// group over 2 periods). It stops when the k-th best exact score
	// reaches the threshold. GRECA exists to avoid exactly this RA
	// volume.
	ModeTA
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeGRECA:
		return "GRECA"
	case ModeThresholdExact:
		return "threshold-exact"
	case ModeFullScan:
		return "full-scan"
	case ModeTA:
		return "TA"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// StopReason records which condition terminated the run.
type StopReason int

const (
	// StopThreshold: the global threshold fell to (or below) the k-th
	// lower bound with exactly k candidates alive — Algorithm 1 lines
	// 17-19.
	StopThreshold StopReason = iota
	// StopBuffer: the buffer condition pruned the candidate set to k
	// items (the k-th lower bound dominated every other buffered
	// item's upper bound) — the paper's novel termination.
	StopBuffer
	// StopExhausted: every list was scanned to the end (no saveup).
	StopExhausted
	// StopCancelled: the run was abandoned mid-flight (context
	// cancellation or a streaming consumer that stopped). Only partial
	// snapshots carry this reason; a completed Run never does.
	StopCancelled
	// StopEpsilon: the run was cut short by a bound-gap ε policy —
	// Runner.EpsilonReached certified that both exact stopping
	// conditions hold within the caller's epsilon, so the returned
	// itemset is an ε-approximate top-k: every item outside it, seen
	// or unseen, is guaranteed within ε of the returned k-th lower
	// bound. Like StopCancelled, only partial results carry it.
	StopEpsilon
)

// String names the reason.
func (r StopReason) String() string {
	switch r {
	case StopThreshold:
		return "threshold"
	case StopBuffer:
		return "buffer"
	case StopExhausted:
		return "exhausted"
	case StopCancelled:
		return "cancelled"
	case StopEpsilon:
		return "epsilon"
	default:
		return fmt.Sprintf("StopReason(%d)", int(r))
	}
}

// ItemScore is one result item with its final score bounds. For early
// terminations LB and UB may not coincide; the returned set is still
// guaranteed to be a correct top-k itemset (the paper's partial-order
// result).
type ItemScore struct {
	Key    int
	LB, UB float64
}

// AccessStats quantifies the work done, in the paper's currency.
type AccessStats struct {
	// SequentialAccesses is the number of list entries read.
	SequentialAccesses int
	// RandomAccesses is the number of direct component fetches
	// (ModeTA only; GRECA makes none by design).
	RandomAccesses int
	// TotalEntries is the full-scan access count.
	TotalEntries int
	// Rounds is the number of round-robin sweeps executed.
	Rounds int
	// Checks is the number of stopping-condition evaluations.
	Checks int
	// Stop records the terminating condition.
	Stop StopReason
}

// PercentSA returns 100·SA/TotalEntries — the paper's "average #SA %"
// metric (smaller is better; the paper reports 75%+ saveup, i.e.
// values below 25%).
func (s AccessStats) PercentSA() float64 {
	if s.TotalEntries == 0 {
		return 0
	}
	return 100 * float64(s.SequentialAccesses) / float64(s.TotalEntries)
}

// Saveup returns 100 − PercentSA.
func (s AccessStats) Saveup() float64 { return 100 - s.PercentSA() }

// Result is the outcome of a Run.
type Result struct {
	TopK  []ItemScore
	Stats AccessStats
}

// candidate tracks one buffered item during a run. lb is always the
// item's lower bound under current knowledge; ub is its upper bound as
// of the last time it was scored — an over-estimate ever since, because
// bounds only tighten (see grecaState.rescore).
type candidate struct {
	key    int
	lb, ub float64
	alive  bool
	// top is the candidate's index in the stepper's top-k heap, -1
	// outside it; pos is its index in the alive set.
	top, pos int32
}

// itemKeyed reports whether entries of the list kind carry item keys
// (as opposed to member-pair keys).
func itemKeyed(k ListKind) bool { return k == PrefList || k == AgreementList }

// Run executes the problem in the given mode. The problem's cursors
// are rewound first, so Run may be called repeatedly (not
// concurrently). Run is the blocking closed loop over Runner — the
// anytime form callers use to step, snapshot, and cancel mid-run.
func (p *Problem) Run(mode Mode) (Result, error) {
	r, err := p.Runner(mode)
	if err != nil {
		return Result{}, err
	}
	for !r.Step(1) {
	}
	return r.Result()
}

// RAPerItem is the number of random accesses the naive TA adaptation
// spends to resolve one item's complete score for a group of size g
// over T periods: g absolute preferences plus, for each member's
// relative preference, one lookup per other member per affinity list
// (static + T drift lists). For the paper's running example (g=3,
// T=2) this is 3 + 3·2·3 = 21, matching §3.1.
func RAPerItem(g, T int) int {
	if g < 2 {
		return 1
	}
	return g + g*(g-1)*(1+T)
}

func topKFromMap(exact map[int]float64, k int) []ItemScore {
	all := make([]ItemScore, 0, len(exact))
	for key, s := range exact {
		all = append(all, ItemScore{Key: key, LB: s, UB: s})
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].LB != all[b].LB {
			return all[a].LB > all[b].LB
		}
		return all[a].Key < all[b].Key
	})
	if k > len(all) {
		k = len(all)
	}
	return all[:k]
}

func topKExact(scores []float64, k int) []ItemScore {
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if scores[idx[a]] != scores[idx[b]] {
			return scores[idx[a]] > scores[idx[b]]
		}
		return idx[a] < idx[b]
	})
	if k > len(idx) {
		k = len(idx)
	}
	out := make([]ItemScore, k)
	for i := 0; i < k; i++ {
		out[i] = ItemScore{Key: idx[i], LB: scores[idx[i]], UB: scores[idx[i]]}
	}
	return out
}

func toItemScores(cands []*candidate) []ItemScore {
	out := make([]ItemScore, len(cands))
	for i, c := range cands {
		out[i] = ItemScore{Key: c.key, LB: c.lb, UB: c.ub}
	}
	return out
}
