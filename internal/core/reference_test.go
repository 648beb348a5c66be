package core

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/stats"
)

// eagerGrecaState is the GRECA stepper as it ran before stopping checks
// were made proportional to what the sweep touched: every check
// re-scores every alive candidate, selects the k-th lower bound from
// scratch, prunes on exact upper bounds and, once the threshold has
// fallen, sorts the whole alive set. It scores with its own member
// preference kernel (interval products throughout, referenceScore). It
// does far more work than grecaState and is kept, test-only, because it
// is the obviously correct reading of Algorithm 1 with the incremental
// buffer strategy:
// TestStoppingCheckMatchesReference and
// FuzzStoppingCheckMatchesReference require the production stepper to
// agree with it on everything a caller can observe.
type eagerGrecaState struct {
	p          *Problem
	ev         *evaluator
	st         AccessStats
	cands      []*candidate // indexed by item key; nil until seen
	alive      []*candidate
	checkEvery int
	prunedToK  bool
	// lastTh / lastKth are the stopping-check values as of the last
	// check, for snapshots and trace points; evaluated marks that they
	// have been computed at least once.
	lastTh, lastKth float64
	evaluated       bool
	observe         func(TracePoint)
	done            bool
	res             Result
	sortBuf         []*candidate
	kthBuf          []*candidate
}

// eagerRunner rewinds p and wraps the reference stepper in a Runner, so
// the differential drives both steppers through the same public
// surface (Step, Snapshot, EpsilonReached, Result).
func eagerRunner(p *Problem, observe func(TracePoint)) *Runner {
	p.reset()
	checkEvery := p.in.CheckInterval
	if checkEvery <= 0 {
		checkEvery = 1
	}
	return &Runner{s: &eagerGrecaState{
		p:          p,
		ev:         newEvaluator(p),
		st:         AccessStats{TotalEntries: p.totalEntries},
		cands:      make([]*candidate, p.m),
		checkEvery: checkEvery,
		observe:    observe,
	}}
}

func (s *eagerGrecaState) sortedByLB() []*candidate {
	s.sortBuf = sortByLBInto(s.sortBuf, s.alive)
	return s.sortBuf
}

func (s *eagerGrecaState) kthLB(k int) float64 {
	v, buf := kthLowerBoundInto(s.kthBuf, s.alive, k)
	s.kthBuf = buf
	return v
}

func (s *eagerGrecaState) emit() {
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

func (s *eagerGrecaState) step() bool {
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
			if itemKeyed(l.Kind) && s.cands[e.Key] == nil {
				c := &candidate{key: e.Key, alive: true}
				s.cands[e.Key] = c
				s.alive = append(s.alive, c)
			}
		}
		if !progressed {
			// All lists exhausted: every bound is now exact.
			s.st.Rounds++
			s.st.Checks++
			s.st.Stop = StopExhausted
			s.ev.refreshAffinity()
			refreshBounds(s.ev, s.alive)
			s.lastTh = referenceScore(s.ev, -1).Hi
			s.lastKth = s.kthLB(min(s.p.in.K, len(s.alive)))
			s.evaluated = true
			s.emit()
			s.res = Result{TopK: toItemScores(s.sortedByLB()[:min(s.p.in.K, len(s.alive))]), Stats: s.st}
			s.done = true
			return true
		}
		s.st.Rounds++
		if s.st.Rounds%s.checkEvery != 0 {
			continue
		}
		s.st.Checks++

		s.ev.refreshAffinity()
		refreshBounds(s.ev, s.alive)
		if len(s.alive) < s.p.in.K {
			s.lastTh, s.lastKth = referenceScore(s.ev, -1).Hi, 0
			s.evaluated = true
			s.emit()
			return false // not enough candidates yet
		}
		kthLB := s.kthLB(s.p.in.K)
		th := referenceScore(s.ev, -1).Hi

		// Buffer condition, applied incrementally: prune candidates
		// whose UB is strictly below the k-th LB.
		pruned := prune(s.alive, kthLB, s.p.in.K)
		if len(pruned) < len(s.alive) {
			s.prunedToK = true
		}
		s.alive = pruned
		s.lastTh, s.lastKth = th, kthLB
		s.evaluated = true
		s.emit()

		if th > kthLB {
			return false
		}
		sorted := s.sortedByLB()
		for _, c := range sorted[s.p.in.K:] {
			if c.ub > kthLB {
				return false
			}
		}
		if len(s.alive) > s.p.in.K || s.prunedToK {
			s.st.Stop = StopBuffer
		} else {
			s.st.Stop = StopThreshold
		}
		s.res = Result{TopK: toItemScores(sorted[:s.p.in.K]), Stats: s.st}
		s.done = true
		return true
	}
}

func (s *eagerGrecaState) epsilonReached(eps float64) bool {
	if !s.evaluated || len(s.alive) < s.p.in.K {
		return false
	}
	if s.lastTh-s.lastKth >= eps {
		return false
	}
	sorted := s.sortedByLB()
	for _, c := range sorted[s.p.in.K:] {
		if c.ub-s.lastKth >= eps {
			return false
		}
	}
	return true
}

func (s *eagerGrecaState) snapshot() Snapshot {
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
	sorted := s.sortedByLB()
	k := min(s.p.in.K, len(sorted))
	snap.TopK = make([]SnapshotItem, k)
	for i, c := range sorted[:k] {
		snap.TopK[i] = SnapshotItem{Key: c.key, LB: c.lb, UB: c.ub, Resolved: c.lb == c.ub}
	}
	return snap
}

func (s *eagerGrecaState) result() Result { return s.res }

func refreshBounds(ev *evaluator, alive []*candidate) {
	for _, c := range alive {
		iv := referenceScore(ev, c.key)
		c.lb, c.ub = iv.Lo, iv.Hi
	}
}

// referenceScore is evaluator.scoreItem for key >= 0 and the threshold
// for the virtual unseen item (key -1), with the member preferences
// formed by interval products whatever the affinities' signs — the
// kernel memberPrefs keeps only for a negative affinity lower end.
func referenceScore(ev *evaluator, key int) stats.Interval {
	p := ev.p
	for u := 0; u < p.g; u++ {
		l := p.prefList[u]
		if key >= 0 {
			ev.aprefIv[u] = ev.componentInterval(ev.aprefSeen[u][key], l)
		} else {
			ev.aprefIv[u] = stats.Interval{Lo: l.Min(), Hi: l.CursorValue()}
		}
	}
	copy(ev.prefIv, ev.aprefIv)
	if p.useAffinity {
		pr := 0
		for u := 0; u < p.g; u++ {
			for v := u + 1; v < p.g; v++ {
				aff := stats.Interval{Lo: ev.affLo[pr], Hi: ev.affHi[pr]}
				pr++
				ev.prefIv[u] = ev.prefIv[u].Add(aff.Mul(ev.aprefIv[v]))
				ev.prefIv[v] = ev.prefIv[v].Add(aff.Mul(ev.aprefIv[u]))
			}
		}
	}
	norm := 1 / (1 + float64(p.g-1)*p.in.Agg.MaxAffinity())
	for u, iv := range ev.prefIv {
		ev.prefIv[u] = iv.Scale(norm).Clamp(0, 1)
	}
	return ev.consensus(key)
}

// kthLowerBoundInto returns the k-th largest lower bound among alive
// candidates (len(alive) >= k >= 1) by a from-scratch O(n log k)
// selection over a size-k min-heap backed by buf.
func kthLowerBoundInto(buf, alive []*candidate, k int) (float64, []*candidate) {
	h := buf[:0]
	for _, c := range alive {
		if len(h) < k {
			// Sift up from the new leaf.
			h = append(h, c)
			for i := len(h) - 1; i > 0; {
				p := (i - 1) / 2
				if h[p].lb <= h[i].lb {
					break
				}
				h[i], h[p] = h[p], h[i]
				i = p
			}
		} else if c.lb > h[0].lb {
			// Replace the minimum and sift down.
			h[0] = c
			i := 0
			for {
				l := 2*i + 1
				if l >= len(h) {
					break
				}
				m := l
				if r := l + 1; r < len(h) && h[r].lb < h[l].lb {
					m = r
				}
				if h[i].lb <= h[m].lb {
					break
				}
				h[i], h[m] = h[m], h[i]
				i = m
			}
		}
	}
	return h[0].lb, h
}

// prune drops candidates whose upper bound cannot exceed kthLB while
// always keeping at least k candidates (the top-k by LB are never
// dropped: their UB >= LB >= ... >= kthLB).
func prune(alive []*candidate, kthLB float64, k int) []*candidate {
	out := alive[:0]
	for _, c := range alive {
		if c.ub >= kthLB {
			out = append(out, c)
			continue
		}
		c.alive = false
	}
	// Defensive: interval arithmetic guarantees ub >= lb, so at least
	// the k candidates defining kthLB survive. Verify cheaply.
	if len(out) < k {
		panic(fmt.Sprintf("core: pruned below k (%d < %d); bound invariant violated", len(out), k))
	}
	return out
}

// sortByLBInto returns the candidates ordered by descending lower
// bound (ties by ascending key — keys are unique, so the order is
// total and independent of the sort algorithm). buf backs the copy and
// is reused across calls; the result aliases it and is only valid
// until the next call with the same buffer.
func sortByLBInto(buf, alive []*candidate) []*candidate {
	sorted := append(buf[:0], alive...)
	slices.SortFunc(sorted, func(a, b *candidate) int {
		if a.lb != b.lb {
			if a.lb > b.lb {
				return -1
			}
			return 1
		}
		return cmp.Compare(a.key, b.key)
	})
	return sorted
}
