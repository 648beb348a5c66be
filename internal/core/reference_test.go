package core

// eagerGrecaState is the GRECA stepper as it ran before stopping checks
// were made proportional to what the sweep touched: every check
// re-scores every alive candidate, selects the k-th lower bound from
// scratch, prunes on exact upper bounds and, once the threshold has
// fallen, sorts the whole alive set. It does far more work than
// grecaState and is kept, test-only, because it is the obviously
// correct reading of Algorithm 1 with the incremental buffer strategy:
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
			s.lastTh = s.ev.threshold()
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
			s.lastTh, s.lastKth = s.ev.threshold(), 0
			s.evaluated = true
			s.emit()
			return false // not enough candidates yet
		}
		kthLB := s.kthLB(s.p.in.K)
		th := s.ev.threshold()

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
		iv := ev.scoreItem(c.key)
		c.lb, c.ub = iv.Lo, iv.Hi
	}
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
