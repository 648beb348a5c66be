package core

// TracePoint is one stopping-check snapshot of a traced GRECA run:
// the state a systems operator would plot to understand why a query
// stopped when it did.
type TracePoint struct {
	// Round is the round-robin sweep number.
	Round int
	// SequentialAccesses so far.
	SequentialAccesses int
	// Threshold is the best score an unseen item could still reach.
	Threshold float64
	// KthLB is the k-th largest candidate lower bound (0 until k
	// candidates exist).
	KthLB float64
	// Alive is the number of buffered candidates whose last-known upper
	// bound still reaches the k-th lower bound. Upper bounds are
	// re-computed only where an exact one is needed, so this is an
	// upper bound on the count an exact prune would leave.
	Alive int
}

// RunTraced executes GRECA like Run(ModeGRECA) while streaming a
// TracePoint to observe at every stopping check. observe must not
// retain its argument across calls. It runs on the same stepper state
// machine as Run and Runner (the observer hooks into the GRECA
// stepper), so the three cannot diverge.
func (p *Problem) RunTraced(observe func(TracePoint)) (Result, error) {
	if observe == nil {
		return p.Run(ModeGRECA)
	}
	r, err := p.Runner(ModeGRECA)
	if err != nil {
		return Result{}, err
	}
	r.trace(observe)
	for !r.Step(1) {
	}
	return r.Result()
}
