package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/consensus"
)

// SnapshotItem is one entry of a partial top-k: the item's current
// guaranteed bounds and whether they have converged to an exact score.
type SnapshotItem struct {
	Key    int
	LB, UB float64
	// Resolved reports LB == UB: the score is exact, no further
	// stepping can move this item's bounds.
	Resolved bool
}

// Snapshot is a bounds-consistent view of a Runner between steps: the
// current top-k ordered by descending lower bound, the work done so
// far, and the state of the stopping conditions. Snapshots are
// monotone across steps — an item's LB never decreases and its UB
// never increases — because GRECA's cursor bounds only tighten as
// lists are consumed.
type Snapshot struct {
	// TopK is the current top-k by lower bound (fewer than k items
	// until k candidates have been buffered). For an unfinished run it
	// is the best currently guaranteed itemset, not necessarily the
	// final one.
	TopK []SnapshotItem
	// Stats is the work done so far; Stats.Stop is meaningful only
	// when Done.
	Stats AccessStats
	// Threshold is the best score an unseen item could still reach, as
	// of the last stopping check (0 before the first check).
	Threshold float64
	// KthLB is the k-th largest candidate lower bound at the last
	// stopping check (0 until k candidates exist).
	KthLB float64
	// Evaluated reports whether Threshold and KthLB have actually been
	// computed yet. GRECA evaluates them at every check, but the
	// baseline modes reach their first threshold evaluation later
	// (threshold-exact needs all affinities plus K exact items, TA
	// needs K resolved items, full-scan never evaluates them) — until
	// then the zero values would be indistinguishable from a converged
	// run.
	Evaluated bool
	// Done reports whether the run has terminated.
	Done bool
}

// BoundGap is Threshold − KthLB clamped at 0: how far the global
// threshold still exceeds the k-th lower bound. It shrinks toward 0 as
// the run converges (0 once the run is Done) and is +Inf while the
// bounds have not yet been Evaluated, so "stop when the gap is small
// enough" consumers never mistake an early frame for convergence.
func (s Snapshot) BoundGap() float64 {
	if s.Done {
		return 0
	}
	if !s.Evaluated {
		return math.Inf(1)
	}
	gap := s.Threshold - s.KthLB
	if gap < 0 {
		gap = 0
	}
	return gap
}

// stepper is one mode's resumable execution state. step advances one
// unit of work (one stopping check for the round-based modes) and
// reports termination; snapshot and result read the current state.
type stepper interface {
	step() bool
	snapshot() Snapshot
	result() Result
}

// Runner is a resumable execution of a Problem: the anytime form of
// Run. Callers alternate Step with Snapshot to consume progressively
// tightening partial top-k results, and may simply stop stepping to
// cancel — the Problem and its buffers stay intact (Release still
// applies when the caller owns pooled rows).
//
// One step is one stopping-check interval (CheckInterval round-robin
// sweeps) for ModeGRECA and ModeThresholdExact, one sweep for ModeTA,
// and one full list for ModeFullScan. Like Run, a Runner is not safe
// for concurrent use, and only one Runner (or Run) may be active per
// Problem at a time; creating a Runner rewinds the cursors.
type Runner struct {
	s    stepper
	done bool
}

// Runner builds a resumable execution of p in the given mode. Run is
// equivalent to Runner followed by stepping to completion, and is
// implemented exactly that way, so the two cannot diverge.
func (p *Problem) Runner(mode Mode) (*Runner, error) {
	if p.released {
		return nil, fmt.Errorf("core: Runner on a Problem whose buffers were Released")
	}
	p.reset()
	var s stepper
	switch mode {
	case ModeGRECA:
		s = newGrecaState(p)
	case ModeThresholdExact:
		s = newThresholdExactState(p)
	case ModeFullScan:
		s = newFullScanState(p)
	case ModeTA:
		s = newTAState(p)
	default:
		return nil, fmt.Errorf("core: unknown mode %d", int(mode))
	}
	return &Runner{s: s}, nil
}

// Step advances the run by up to n steps, stopping early on
// termination, and reports whether the run is done. n <= 0 is a no-op.
func (r *Runner) Step(n int) bool {
	for i := 0; i < n && !r.done; i++ {
		r.done = r.s.step()
	}
	return r.done
}

// Done reports whether the run has terminated.
func (r *Runner) Done() bool { return r.done }

// epsilonStepper is implemented by the modes that can certify an
// ε-approximate top-k mid-run.
type epsilonStepper interface {
	epsilonReached(eps float64) bool
}

// EpsilonReached reports whether the run's current state certifies an
// ε-approximate top-K: K candidates are buffered, and every item NOT
// among the top K — unseen (bounded by the global threshold) or
// buffered outside the top-k (bounded by its own upper bound) — is
// guaranteed to score less than eps above the k-th best lower bound.
// This is the exact termination condition (threshold + buffer)
// relaxed by eps, so eps = 0 recovers exactness and the certificate
// is sound for any buffered candidate state — unlike the bare
// Snapshot.BoundGap, which ignores buffered candidates' upper bounds.
//
// It returns false before the bounds are first evaluated, while fewer
// than K candidates exist, for non-positive eps, once the run is Done
// (the final result is exact; no approximation applies), and for
// modes without bound tracking (full scan). Cost: for GRECA, one
// float compare per check until the threshold gap is inside eps; the
// baseline modes re-derive their exact-seen ranking, mirroring what
// their own stopping checks already compute each sweep.
func (r *Runner) EpsilonReached(eps float64) bool {
	if r.done || eps <= 0 {
		return false
	}
	es, ok := r.s.(epsilonStepper)
	return ok && es.epsilonReached(eps)
}

// Snapshot returns the current bounds-consistent partial top-k. After
// the final step it describes the final result.
func (r *Runner) Snapshot() Snapshot { return r.s.snapshot() }

// Result returns the final result. It errors until Done.
func (r *Runner) Result() (Result, error) {
	if !r.done {
		return Result{}, fmt.Errorf("core: Result on a Runner that is not Done")
	}
	return r.s.result(), nil
}

// trace installs a TracePoint observer (ModeGRECA runners only; a
// no-op otherwise). Used by RunTraced.
func (r *Runner) trace(observe func(TracePoint)) {
	if gs, ok := r.s.(*grecaState); ok {
		gs.observe = observe
	}
}

// snapshotFromScores converts final ItemScores to snapshot items.
func snapshotFromScores(topK []ItemScore) []SnapshotItem {
	out := make([]SnapshotItem, len(topK))
	for i, is := range topK {
		out[i] = SnapshotItem{Key: is.Key, LB: is.LB, UB: is.UB, Resolved: is.LB == is.UB}
	}
	return out
}

// grecaState is the resumable form of Algorithm 1 with the incremental
// buffer strategy (see the package comment on runGRECA semantics in
// greca.go). One step runs round-robin sweeps up to and including the
// next stopping check.
//
// A stopping check costs what moved since the last one, not the size
// of the buffer (rescore has the argument): lower bounds are kept
// exact by re-scoring the candidates the sweep touched, the k-th lower
// bound is maintained in a heap, upper bounds are left as last
// computed — sound over-estimates — until an exact one is observable
// (exactUB's callers), and a prune examines only the candidates whose
// upper bound moved unless the k-th lower bound rose (prune).
type grecaState struct {
	p  *Problem
	ev *evaluator
	st AccessStats
	// cands is indexed by item key, nil until seen. alive is the alive
	// set, in no order but one: its first nRescored entries are the
	// candidates scored since the last prune (score moves each there),
	// the only ones whose upper bound moved. A candidate's pos is its
	// index in alive.
	cands      []*candidate
	alive      []*candidate
	nRescored  int
	buffered   int // candidates ever buffered: alive plus pruned
	checkEvery int

	// dirty lists the alive candidates one of whose item-keyed entries
	// the sweep read since the last check, once per entry read.
	// affMoved records that an affinity list yielded an entry since
	// then; it starts true because the affinity cache has never been
	// filled.
	dirty    []*candidate
	affMoved bool
	// lbReadsUB is fixed per problem: the consensus' lower end reads
	// member upper ends (variance disagreement, and pairwise
	// disagreement evaluated without agreement lists), so any cursor can
	// move any candidate's lower bound. ev.affNegative is the same
	// hazard one level down, as of the last refreshAffinity: an
	// affinity interval with a negative lower end makes the four-corner
	// product's lower end read the other member's upper end.
	lbReadsUB bool
	// top is a min-heap on lb of the K alive candidates with the
	// largest lower bounds (all of them while fewer are buffered), so
	// top[0].lb is the k-th lower bound. Which of several candidates
	// tied there it holds is unobservable: only the value is read.
	top []*candidate
	// witness is a candidate strictly below the k-th lower bound whose
	// exact upper bound exceeded it at the last check that got as far
	// as the buffer condition: while it still does, the condition fails
	// without walking the buffer.
	witness *candidate
	// pruneKth is the k-th lower bound that prune last walked the whole
	// alive set at (−Inf before the first prune).
	pruneKth float64

	// lastTh / lastKth are the stopping-check values as of the last
	// check, for snapshots and trace points; evaluated marks that they
	// have been computed at least once.
	lastTh, lastKth float64
	evaluated       bool
	observe         func(TracePoint)
	done            bool
	res             Result
	// slab backs candidate records in chunks (pointer-stable: full
	// chunks are replaced, never grown) and topBuf / tieBuf are
	// canonicalTop's scratch; with dirty and top they keep the stepper's
	// hot loop allocation-free in steady state.
	slab           []candidate
	slabPos        int
	topBuf, tieBuf []*candidate
	// The work counters let a test pin the work of a run where a clock
	// cannot: scoreItem calls, candidate sorts, candidates prune
	// examined, and of those the ones examined by full walks of the
	// alive set (fullPrunes of them).
	scoreCalls, sortCalls                  int
	pruneExamined, pruneWalked, fullPrunes int
}

// newCandidate carves a candidate record out of the chunked slab.
func (s *grecaState) newCandidate(key int) *candidate {
	if s.slabPos == len(s.slab) {
		s.slab = make([]candidate, 128)
		s.slabPos = 0
	}
	c := &s.slab[s.slabPos]
	s.slabPos++
	*c = candidate{key: key, alive: true, top: -1, pos: int32(len(s.alive))}
	s.buffered++
	s.alive = append(s.alive, c)
	return c
}

// canonicalTop returns the n alive candidates first in canonical order
// (lower bound descending, key ascending), in that order, and the
// candidates tied with them at kth that fall outside; kth must be the
// n-th largest lower bound (top[0].lb with n = len(top)). Every
// candidate above kth is in, so only a tie run wider than the
// remaining slots is ordered by key, and only the n returned are
// sorted. Both slices are state-owned scratch, valid until the next
// call.
func (s *grecaState) canonicalTop(kth float64, n int) (top, tiedOut []*candidate) {
	top, ties := s.topBuf[:0], s.tieBuf[:0]
	for _, c := range s.alive {
		switch {
		case c.lb > kth:
			top = append(top, c)
		case c.lb == kth:
			ties = append(ties, c)
		}
	}
	s.tieBuf = ties
	if need := n - len(top); len(ties) > need {
		s.sortCalls++
		slices.SortFunc(ties, func(a, b *candidate) int { return cmp.Compare(a.key, b.key) })
		ties, tiedOut = ties[:need], ties[need:]
	}
	top = append(top, ties...)
	s.topBuf = top
	s.sortCalls++
	slices.SortFunc(top, func(a, b *candidate) int {
		if a.lb != b.lb {
			if a.lb > b.lb {
				return -1
			}
			return 1
		}
		return cmp.Compare(a.key, b.key)
	})
	return top, tiedOut
}

func newGrecaState(p *Problem) *grecaState {
	checkEvery := p.in.CheckInterval
	if checkEvery <= 0 {
		checkEvery = 1
	}
	// One block backs the heap and canonicalTop's scratch: the heap and
	// a returned top-k hold at most K candidates, and a tie run wider
	// than K grows its own.
	k := p.in.K
	scratch := make([]*candidate, 3*k)
	return &grecaState{
		p:          p,
		ev:         newEvaluator(p),
		st:         AccessStats{TotalEntries: p.totalEntries},
		cands:      make([]*candidate, p.m),
		checkEvery: checkEvery,
		dirty:      make([]*candidate, 0, len(p.lists)),
		top:        scratch[:0:k],
		topBuf:     scratch[k : k : 2*k],
		tieBuf:     scratch[2*k : 2*k],
		affMoved:   true,
		pruneKth:   math.Inf(-1),
		lbReadsUB:  p.in.Spec.Dis != consensus.NoDisagreement && !p.useAgreement,
	}
}

func (s *grecaState) emit() {
	if s.observe == nil {
		return
	}
	s.observe(TracePoint{
		Round:              s.st.Rounds,
		SequentialAccesses: s.st.SequentialAccesses,
		Threshold:          s.lastTh,
		KthLB:              s.lastKth,
		Alive:              len(s.alive),
	})
}

// score computes c's bounds under current knowledge and records c for
// the next prune by swapping it into the rescored prefix of the alive
// set. A walk of the alive set in index order may score as it goes:
// the swap only moves c back to a position the walk has passed and an
// entry it has passed to c's.
func (s *grecaState) score(c *candidate) {
	s.scoreCalls++
	iv := s.ev.scoreItem(c.key)
	c.lb, c.ub = iv.Lo, iv.Hi
	if i := s.nRescored; c.alive && int(c.pos) >= i {
		o := s.alive[i]
		s.alive[i], s.alive[c.pos] = c, o
		o.pos, c.pos = c.pos, int32(i)
		s.nRescored++
	}
}

// exactUB re-scores c and returns its upper bound under current
// knowledge. c.lb is current already (rescore), so the score leaves it
// and the heap as they are.
func (s *grecaState) exactUB(c *candidate) float64 {
	s.score(c)
	return c.ub
}

// rescore brings every alive candidate's lower bound, the affinity
// cache and the top-k heap up to the current cursors, re-scoring only
// the candidates whose lower bound can have moved since the last
// check.
//
// A lower bound is the consensus' lower end, and with non-negative
// affinities and a consensus whose lower end is built from member
// lower ends alone it is a function of the affinity cache, the lists'
// constant minima and the item's own seen components: an unseen
// component contributes [list minimum, cursor] and only the cursor
// moves. So when no affinity list has yielded since the last check,
// the candidates whose entries the sweep read — the dirty list — are
// the only ones whose lower bound changed, and each rose (a seen value
// is at least the list minimum it replaces). Everything is dirty, and
// the heap is rebuilt from scratch, exactly when that argument does not
// hold: an affinity list yielded (then, and only then, the affinity
// cache is stale), some affinity interval has a negative lower end, or
// the consensus' lower end reads upper ends.
//
// Upper bounds of the candidates not re-scored stay as last computed.
// Bounds only tighten, so a stale upper bound over-estimates the exact
// one; exactUB re-scores where the exact value is observable.
func (s *grecaState) rescore() {
	all := s.lbReadsUB
	if s.affMoved {
		s.affMoved = false
		s.ev.refreshAffinity()
		all = true
	}
	moved := s.dirty
	if all || s.ev.affNegative {
		moved = s.alive
		for _, c := range s.top {
			c.top = -1
		}
		s.top = s.top[:0]
	}
	for _, c := range moved {
		s.score(c)
		s.offer(c)
	}
	s.dirty = s.dirty[:0]
}

// offer restores the top-k heap after c's lower bound was re-computed
// and did not fall: a member is re-seated, a non-member enters while
// the heap is short or when it beats the minimum, which it evicts. The
// heap is hand-rolled rather than container/heap: the interface calls
// would dominate the compares at this call frequency.
func (s *grecaState) offer(c *candidate) {
	h := s.top
	i := int(c.top)
	switch {
	case i >= 0:
	case len(h) < s.p.in.K:
		i = len(h)
		h = append(h, c)
		s.top = h
	case c.lb > h[0].lb:
		h[0].top = -1
		i = 0
	default:
		return
	}
	// Sift c up from i (a new leaf), then down (a raised member, or the
	// replaced minimum); at most one of the two loops moves it.
	for i > 0 {
		p := (i - 1) / 2
		if h[p].lb <= c.lb {
			break
		}
		h[i] = h[p]
		h[i].top = int32(i)
		i = p
	}
	for {
		m := 2*i + 1
		if m >= len(h) {
			break
		}
		if r := m + 1; r < len(h) && h[r].lb < h[m].lb {
			m = r
		}
		if c.lb <= h[m].lb {
			break
		}
		h[i] = h[m]
		h[i].top = int32(i)
		i = m
	}
	h[i] = c
	c.top = int32(i)
}

// prune drops the alive candidates whose upper bound is below kthLB.
// The top-k by lower bound always survive: their UB >= LB >= kthLB.
//
// A candidate that survived the last prune kept an upper bound of at
// least that prune's k-th lower bound, and only a score moves an upper
// bound. So unless kthLB rose since then, the candidates scored since
// (the first nRescored of the alive set) are the only ones that can
// have fallen below it, and only they are examined, from the last
// down; a dead one is swapped out by the alive set's last entry, which
// is either unscored or already examined. The set left is the one a
// walk of the whole alive set leaves, which is what happens when kthLB
// rose.
func (s *grecaState) prune(kthLB float64) {
	if kthLB > s.pruneKth {
		s.pruneKth = kthLB
		s.fullPrunes++
		s.pruneWalked += len(s.alive)
		s.pruneExamined += len(s.alive)
		out := s.alive[:0]
		for _, c := range s.alive {
			if c.ub >= kthLB {
				c.pos = int32(len(out))
				out = append(out, c)
				continue
			}
			c.alive = false
		}
		s.alive = out
	} else {
		s.pruneExamined += s.nRescored
		for i := s.nRescored - 1; i >= 0; i-- {
			if c := s.alive[i]; c.ub < kthLB {
				last := s.alive[len(s.alive)-1]
				s.alive[i] = last
				last.pos = int32(i)
				s.alive = s.alive[:len(s.alive)-1]
				c.alive = false
			}
		}
	}
	s.nRescored = 0
	// Defensive: interval arithmetic guarantees ub >= lb, so at least
	// the k candidates defining kthLB survive. Verify cheaply.
	if k := s.p.in.K; len(s.alive) < k {
		panic(fmt.Sprintf("core: pruned below k (%d < %d); bound invariant violated", len(s.alive), k))
	}
}

// outsideBlocker returns the first candidate outside the canonical
// top-K at kth (the current k-th lower bound) for which blocks holds,
// or, when there is none, the top-K in canonical order. A lower bound
// strictly below kth places a candidate outside whatever the tie order,
// so those are found by one unordered walk; the order is needed only to
// split the run tied at kth, and only once none of the others blocks.
func (s *grecaState) outsideBlocker(kth float64, blocks func(*candidate) bool) (*candidate, []*candidate) {
	for _, c := range s.alive {
		if c.lb < kth && blocks(c) {
			return c, nil
		}
	}
	top, tiedOut := s.canonicalTop(kth, s.p.in.K)
	for _, c := range tiedOut {
		if blocks(c) {
			return c, nil
		}
	}
	return nil, top
}

// bufferHolds evaluates the buffer condition: no candidate outside the
// k selected by lower bound has an exact upper bound above kthLB. On
// success it returns those k in canonical order. A candidate whose
// last-known upper bound is already at most kthLB cannot block, so only
// the others are re-scored, and the scan ends at the first that still
// blocks.
func (s *grecaState) bufferHolds(kthLB float64) ([]*candidate, bool) {
	blocks := func(c *candidate) bool { return c.ub > kthLB && s.exactUB(c) > kthLB }
	if w := s.witness; w != nil {
		if w.lb < kthLB && blocks(w) {
			return nil, false
		}
		s.witness = nil
	}
	b, top := s.outsideBlocker(kthLB, blocks)
	if b != nil {
		if b.lb < kthLB {
			s.witness = b
		}
		return nil, false
	}
	return top, true
}

// finish records the terminal result: the given top-k, in order, with
// exact upper bounds.
func (s *grecaState) finish(topK []*candidate) {
	for _, c := range topK {
		s.exactUB(c)
	}
	s.res = Result{TopK: toItemScores(topK), Stats: s.st}
	s.done = true
}

func (s *grecaState) step() bool {
	if s.done {
		return true
	}
	k := s.p.in.K
	for {
		progressed := false
		for _, l := range s.p.lists {
			e, ok := l.Next()
			if !ok {
				continue
			}
			progressed = true
			s.st.SequentialAccesses++
			s.ev.observe(l, e)
			// Preference and agreement lists are item-keyed; affinity
			// lists are pair-keyed.
			if !itemKeyed(l.Kind) {
				s.affMoved = true
				continue
			}
			// Every item-keyed list entry makes the item a buffered
			// candidate: once any of its components has been read the
			// global threshold (which assumes cursor bounds for every
			// component) no longer covers it, so it must carry its own
			// bounds.
			c := s.cands[e.Key]
			if c == nil {
				c = s.newCandidate(e.Key)
				s.cands[e.Key] = c
			}
			if c.alive {
				s.dirty = append(s.dirty, c)
			}
		}
		s.st.Rounds++
		if progressed && s.st.Rounds%s.checkEvery != 0 {
			continue
		}
		s.st.Checks++
		s.rescore()

		if !progressed {
			// All lists exhausted: every bound is now exact.
			s.st.Stop = StopExhausted
			s.lastTh, s.lastKth = s.ev.threshold(), s.top[0].lb
			s.evaluated = true
			s.emit()
			top, _ := s.canonicalTop(s.lastKth, min(k, len(s.alive)))
			s.finish(top)
			return true
		}
		if len(s.alive) < k {
			s.lastTh, s.lastKth = s.ev.threshold(), 0
			s.evaluated = true
			s.emit()
			return false // not enough candidates yet
		}
		kthLB := s.top[0].lb
		th := s.ev.threshold()

		// Buffer condition, applied incrementally: prune candidates
		// whose UB is strictly below the k-th LB. Bounds only tighten
		// as cursors advance, so a pruned item can never re-qualify —
		// and a candidate whose stale UB keeps it here past the check
		// at which its exact UB fell below the k-th LB is pruned later
		// for the same reason: its lower bound stays below every later
		// k-th LB, so it never enters the top-k, and bufferHolds
		// re-scores it before letting it block the stop.
		s.prune(kthLB)
		s.lastTh, s.lastKth = th, kthLB
		s.evaluated = true
		s.emit()

		// Termination. The threshold condition guards unseen items
		// (they are not in the buffer); the buffer condition holds
		// when the k-th LB is at least the UB of every candidate
		// outside the k selected by lower bound. Non-strict
		// comparison keeps exact score ties from forcing a full scan:
		// an item tied with the k-th at ub == lb == kthLB cannot
		// *exceed* any returned item, so the returned set is still a
		// correct top-k itemset (the paper's partial-order result).
		if th > kthLB {
			return false
		}
		topK, ok := s.bufferHolds(kthLB)
		if !ok {
			return false
		}
		// With exactly K candidates ever buffered nothing was left for
		// the buffer condition to dominate: the threshold alone stopped
		// the run.
		if s.buffered > k {
			s.st.Stop = StopBuffer
		} else {
			s.st.Stop = StopThreshold
		}
		s.finish(topK)
		return true
	}
}

// epsilonReached mirrors the exact stopping conditions with an eps
// slack: K buffered candidates must exist (an ε-approximate top-k is
// still a top-K; certifying on a short buffer would return fewer
// items than every other mode requires), and the threshold condition
// (unseen items) and buffer condition (candidates outside the
// lower-bound top-k) must both hold within eps of the k-th lower
// bound. The cheap threshold comparison runs first, so the per-check
// cost of an ε-enabled run is one float compare until the run is
// actually near the stop.
func (s *grecaState) epsilonReached(eps float64) bool {
	if !s.evaluated || len(s.alive) < s.p.in.K {
		return false
	}
	// State is consistent here: step only returns at stopping checks,
	// where lower bounds were just brought up to date and
	// lastTh/lastKth recorded.
	if s.lastTh-s.lastKth >= eps {
		return false
	}
	b, _ := s.outsideBlocker(s.lastKth, func(c *candidate) bool {
		return c.ub-s.lastKth >= eps && s.exactUB(c)-s.lastKth >= eps
	})
	return b == nil
}

func (s *grecaState) snapshot() Snapshot {
	snap := Snapshot{
		Stats:     s.st,
		Threshold: s.lastTh,
		KthLB:     s.lastKth,
		Evaluated: s.evaluated,
		Done:      s.done,
	}
	if s.done {
		snap.TopK = snapshotFromScores(s.res.TopK)
		return snap
	}
	// Lower bounds and the heap were brought up to date at the last
	// stopping check — exactly where step returns — so top[0] is the
	// k-th lower bound; the emitted candidates' upper bounds are made
	// exact here.
	topK := s.topBuf[:0]
	if len(s.top) > 0 {
		topK, _ = s.canonicalTop(s.top[0].lb, len(s.top))
	}
	snap.TopK = make([]SnapshotItem, len(topK))
	for i, c := range topK {
		ub := s.exactUB(c)
		snap.TopK[i] = SnapshotItem{Key: c.key, LB: c.lb, UB: ub, Resolved: c.lb == ub}
	}
	return snap
}

func (s *grecaState) result() Result { return s.res }

// thresholdExactState is the resumable conservative baseline: it only
// trusts fully known (exact) scores, stopping when k items are fully
// resolved and the k-th exact score dominates the threshold. One step
// advances through the next stopping check.
type thresholdExactState struct {
	p          *Problem
	ev         *evaluator
	st         AccessStats
	seen       map[int]struct{}
	checkEvery int
	lastTh     float64
	evaluated  bool
	done       bool
	res        Result
}

func newThresholdExactState(p *Problem) *thresholdExactState {
	checkEvery := p.in.CheckInterval
	if checkEvery <= 0 {
		checkEvery = 1
	}
	return &thresholdExactState{
		p:          p,
		ev:         newEvaluator(p),
		st:         AccessStats{TotalEntries: p.totalEntries},
		seen:       make(map[int]struct{}, 256),
		checkEvery: checkEvery,
	}
}

func (s *thresholdExactState) step() bool {
	if s.done {
		return true
	}
	for {
		progressed := false
		for _, l := range s.p.lists {
			e, ok := l.Next()
			if !ok {
				continue
			}
			progressed = true
			s.st.SequentialAccesses++
			s.ev.observe(l, e)
			if itemKeyed(l.Kind) {
				s.seen[e.Key] = struct{}{}
			}
		}
		if !progressed {
			s.st.Rounds++
			s.st.Checks++
			s.st.Stop = StopExhausted
			scores := s.ev.exactAll()
			s.res = Result{TopK: topKExact(scores, s.p.in.K), Stats: s.st}
			s.done = true
			return true
		}
		s.st.Rounds++
		if s.st.Rounds%s.checkEvery != 0 {
			continue
		}
		s.st.Checks++

		s.ev.refreshAffinity()
		if !s.ev.affinityFullyKnown() {
			return false
		}
		exact := s.exactSeen()
		if len(exact) < s.p.in.K {
			return false
		}
		kth := exact[s.p.in.K-1].LB
		th := s.ev.threshold()
		s.lastTh = th
		s.evaluated = true
		if th <= kth {
			// Unseen items cannot beat the k-th exact score; partially
			// seen items might, so also require their UBs dominated.
			ok := true
			for key := range s.seen {
				if s.ev.fullyKnown(key) {
					continue
				}
				if iv := s.ev.scoreItem(key); iv.Hi > kth {
					ok = false
					break
				}
			}
			if ok {
				s.st.Stop = StopThreshold
				s.res = Result{TopK: exact[:s.p.in.K], Stats: s.st}
				s.done = true
				return true
			}
		}
		return false
	}
}

// exactSeen collects the fully known seen items, sorted descending by
// exact score (ties by ascending key).
func (s *thresholdExactState) exactSeen() []ItemScore {
	exact := make([]ItemScore, 0, len(s.seen))
	for key := range s.seen {
		if !s.ev.fullyKnown(key) {
			continue
		}
		iv := s.ev.scoreItem(key)
		exact = append(exact, ItemScore{Key: key, LB: iv.Lo, UB: iv.Hi})
	}
	sort.Slice(exact, func(a, b int) bool {
		if exact[a].LB != exact[b].LB {
			return exact[a].LB > exact[b].LB
		}
		return exact[a].Key < exact[b].Key
	})
	return exact
}

// epsilonReached relaxes this baseline's exact stop by eps: k fully
// resolved items whose k-th exact score is within eps of both the
// unseen-item threshold and every partially seen item's upper bound.
func (s *thresholdExactState) epsilonReached(eps float64) bool {
	if !s.evaluated {
		return false
	}
	exact := s.exactSeen()
	if len(exact) < s.p.in.K {
		return false
	}
	kth := exact[s.p.in.K-1].LB
	if s.lastTh-kth >= eps {
		return false
	}
	for key := range s.seen {
		if s.ev.fullyKnown(key) {
			continue
		}
		if s.ev.scoreItem(key).Hi-kth >= eps {
			return false
		}
	}
	return true
}

func (s *thresholdExactState) snapshot() Snapshot {
	snap := Snapshot{Stats: s.st, Threshold: s.lastTh, Evaluated: s.evaluated, Done: s.done}
	if s.done {
		snap.TopK = snapshotFromScores(s.res.TopK)
		return snap
	}
	// This baseline only ever trusts exact scores, so its partial
	// top-k is the best fully resolved items so far (empty until the
	// affinity components are all known).
	if !s.ev.affinityFullyKnown() {
		return snap
	}
	exact := s.exactSeen()
	k := s.p.in.K
	if k > len(exact) {
		k = len(exact)
	}
	snap.TopK = snapshotFromScores(exact[:k])
	if len(exact) >= s.p.in.K {
		snap.KthLB = exact[s.p.in.K-1].LB
	}
	return snap
}

func (s *thresholdExactState) result() Result { return s.res }

// fullScanState reads every entry of every list and ranks by exact
// score. One step drains one list; the final step computes the
// ranking. Its snapshots carry no partial top-k: exact scores exist
// only once every component is known.
type fullScanState struct {
	p    *Problem
	ev   *evaluator
	st   AccessStats
	next int // index of the next list to drain
	done bool
	res  Result
}

func newFullScanState(p *Problem) *fullScanState {
	return &fullScanState{
		p:  p,
		ev: newEvaluator(p),
		st: AccessStats{TotalEntries: p.totalEntries, Stop: StopExhausted},
	}
}

func (s *fullScanState) step() bool {
	if s.done {
		return true
	}
	l := s.p.lists[s.next]
	for {
		e, ok := l.Next()
		if !ok {
			break
		}
		s.st.SequentialAccesses++
		s.ev.observe(l, e)
	}
	s.next++
	if s.next < len(s.p.lists) {
		return false
	}
	scores := s.ev.exactAll()
	s.res = Result{TopK: topKExact(scores, s.p.in.K), Stats: s.st}
	s.done = true
	return true
}

func (s *fullScanState) snapshot() Snapshot {
	snap := Snapshot{Stats: s.st, Done: s.done}
	if s.done {
		snap.TopK = snapshotFromScores(s.res.TopK)
	}
	return snap
}

func (s *fullScanState) result() Result { return s.res }

// taState is the resumable naive Threshold Algorithm adaptation:
// round-robin sorted accesses over the preference lists only, with
// every newly encountered item fully resolved via random accesses. One
// step is one sweep (every sweep checks the stopping condition).
type taState struct {
	p      *Problem
	ev     *evaluator
	st     AccessStats
	raCost int
	exact  map[int]float64
	lastTh float64
	evald  bool
	done   bool
	res    Result
}

func newTAState(p *Problem) *taState {
	T := 0
	if p.useAffinity {
		T = p.in.Agg.NumPeriods()
	}
	raCost := RAPerItem(p.g, T)
	if p.useAgreement {
		raCost += p.nPairs // one agreement fetch per pair
	}
	return &taState{
		p:      p,
		ev:     newEvaluator(p),
		st:     AccessStats{TotalEntries: p.totalEntries},
		raCost: raCost,
		exact:  make(map[int]float64, 256),
	}
}

func (s *taState) step() bool {
	if s.done {
		return true
	}
	progressed := false
	for _, l := range s.p.prefList {
		e, ok := l.Next()
		if !ok {
			continue
		}
		progressed = true
		s.st.SequentialAccesses++
		s.ev.observe(l, e)
		if _, done := s.exact[e.Key]; !done {
			s.st.RandomAccesses += s.raCost
			s.exact[e.Key] = s.ev.exactScore(e.Key)
		}
	}
	s.st.Rounds++
	s.st.Checks++
	if len(s.exact) >= s.p.in.K {
		topK := topKFromMap(s.exact, s.p.in.K)
		kth := topK[s.p.in.K-1].LB
		// TA threshold: the best score an unseen item could have
		// given the preference cursors. Affinities are known
		// exactly (random accesses fetched them), so the interval
		// threshold is evaluated with point affinities.
		s.ev.refreshAffinityExact()
		th := s.ev.threshold()
		s.lastTh = th
		s.evald = true
		if th <= kth {
			s.st.Stop = StopThreshold
			s.res = Result{TopK: topK, Stats: s.st}
			s.done = true
			return true
		}
	}
	if !progressed {
		s.st.Stop = StopExhausted
		s.res = Result{TopK: topKFromMap(s.exact, s.p.in.K), Stats: s.st}
		s.done = true
		return true
	}
	return false
}

// epsilonReached relaxes TA's stop by eps. Every seen item is fully
// resolved on sight (random accesses), so items beyond the top-k in
// the exact map already score at most the k-th — only the unseen-item
// threshold can exceed it.
func (s *taState) epsilonReached(eps float64) bool {
	if !s.evald || len(s.exact) < s.p.in.K {
		return false
	}
	topK := topKFromMap(s.exact, s.p.in.K)
	return s.lastTh-topK[s.p.in.K-1].LB < eps
}

func (s *taState) snapshot() Snapshot {
	snap := Snapshot{Stats: s.st, Threshold: s.lastTh, Evaluated: s.evald, Done: s.done}
	if s.done {
		snap.TopK = snapshotFromScores(s.res.TopK)
		return snap
	}
	k := s.p.in.K
	if k > len(s.exact) {
		k = len(s.exact)
	}
	if k > 0 {
		snap.TopK = snapshotFromScores(topKFromMap(s.exact, k))
		if len(s.exact) >= s.p.in.K {
			snap.KthLB = snap.TopK[s.p.in.K-1].LB
		}
	}
	return snap
}

func (s *taState) result() Result { return s.res }
