package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"repro"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// runConfig is one pass through the life cycle: a workload, a seed, how
// long to measure and whether this is the traced pass.
type runConfig struct {
	wl      workload
	sc      scale
	seed    int64
	seconds float64
	trace   bool
	// skipOracle leaves the correctness checks to a later block of the
	// same run.
	skipOracle bool
	// outDir receives WAL directories (removed again) and trace files.
	outDir string
}

// phases splits the measured seconds: a tenth for the ramp (the first
// moments after warm-up are several times worse at the tail, so they are
// run at the steady rate and discarded), 55 % for steady, whose median
// needs the samples, and the rest for saturate or, on a traced run, the
// traced pass.
func (c runConfig) phases() (ramp, steady, last time.Duration) {
	total := time.Duration(c.seconds * float64(time.Second))
	ramp = total / 10
	steady = total * 55 / 100
	return ramp, steady, total - ramp - steady
}

// runResult is everything one run records.
type runResult struct {
	Workload      string  `json:"workload"`
	Seed          int64   `json:"seed"`
	Trace         bool    `json:"trace"`
	RateRPS       float64 `json:"rate_rps"`
	RatingRateRPS float64 `json:"rating_rate_rps"`
	SLOLimitMS    float64 `json:"slo_limit_ms"`
	Connections   int     `json:"connections"`
	// Blocks is how many passes through the life cycle the run is the
	// better of (see blocks.go); 1 for a single pass.
	Blocks int `json:"blocks"`
	// Phases holds sent/succeeded/failed for every phase that sent ops.
	Phases map[string]tally `json:"phases"`
	// Metrics are the end-to-end metrics, or the per-layer ones on a
	// traced run; Notes are numbers too unsteady to be either and, on a
	// run of several blocks, every block's own end-to-end values.
	Metrics metrics `json:"metrics"`
	Notes   metrics `json:"notes"`
	// Overloaded flags a steady phase whose backlog was still standing
	// at its end: its latencies measure the queue, not the program.
	Overloaded bool `json:"overloaded"`
	Attempted  int  `json:"attempted"`
	Failed     int  `json:"failed"`
	Correct    bool `json:"correct"`
}

func (r *runResult) count(phase string, t tally) {
	r.Phases[phase] = t
	r.Attempted += t.Sent
	r.Failed += t.Failed
}

// connections is how many keep-alive connections (and load-generator
// goroutines) a run uses: never more than the box has cores.
func connections() int { return min(runtime.NumCPU(), 4) }

// runOne goes through the life cycle once, in this process: set-up,
// warm-up, ramp, steady, then saturate or the traced pass, then the
// correctness checks.
func runOne(c runConfig) (*runResult, error) {
	res := &runResult{
		Workload: c.wl.name, Seed: c.seed, Trace: c.trace,
		RateRPS: c.wl.rate, RatingRateRPS: c.wl.ratingRate, SLOLimitMS: c.wl.sloMS,
		Connections: connections(), Blocks: 1,
		Phases: map[string]tally{}, Metrics: metrics{}, Notes: metrics{},
	}
	if err := os.MkdirAll(c.outDir, 0o755); err != nil {
		return nil, err
	}

	st, setupTook, err := setUp(c.wl, c.sc, c.outDir)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer st.discard()

	lg := newLoadgen(st.base, res.Connections)
	defer lg.close()
	gen := newGenerator(c.wl, c.sc, c.seed, st.world.Participants(), st.world.CandidateItems(nil, c.sc.ratingItems))

	// Warm-up: one closed-loop pass, timed because a restart pays it.
	warm := gen.warmupOps()
	samples, warmupTook := lg.closedLoop(0, func() (op, bool) {
		if len(warm) == 0 {
			return op{}, false
		}
		o := warm[0]
		warm = warm[1:]
		return o, true
	})
	res.count("warmup", tallyOf(samples, warmupTook))

	ramp, steady, last := c.phases()
	all, before, after, err := rampAndSteady(st, lg, gen.schedule(ramp+steady), ramp)
	if err != nil {
		return nil, err
	}
	nRamp := sort.Search(len(all), func(i int) bool { return all[i].due >= ramp })
	res.count("ramp", tallyOf(all[:nRamp], ramp))
	steadySamples := all[nRamp:]
	res.count("steady", tallyOf(steadySamples, steady))

	// The reference world the oracle compares against. The traced pass
	// of the remote workload needs it early, to price the transport.
	var ref *reference
	defer func() {
		if ref != nil {
			ref.close()
		}
	}()
	if c.trace {
		steadyLayerMetrics(res, steadySamples, ramp, steady, before, after)
		if c.wl.workers > 0 {
			if ref, err = newReference(c, nil); err != nil {
				return nil, err
			}
		}
		if err := tracedPass(c, res, st, lg, gen, ref, last); err != nil {
			return nil, err
		}
	} else {
		endToEndMetrics(res, c.wl, steadySamples, ramp, steady)
		samples, took := lg.closedLoop(last, func() (op, bool) { return gen.next(), true })
		t := tallyOf(samples, took)
		res.count("saturate", t)
		res.Metrics.set("throughput_rps", sliceThroughput(samples, last), "1/s")
		res.Notes.set("throughput_mean_rps", float64(t.Succeeded)/took.Seconds(), "1/s")
		res.Metrics.set("live_heap_mb", liveHeapMB(), "MB")
		res.Metrics.set("setup_s", setupTook.Seconds(), "s")
		res.Metrics.set("warmup_s", warmupTook.Seconds(), "s")
	}
	if c.skipOracle {
		res.Correct = res.Failed == 0
		return res, nil
	}

	// Correctness: the live server against a cold rebuild, then the
	// journal against the acks.
	if ref == nil {
		if ref, err = newReference(c, lg.ackedRatings()); err != nil {
			return nil, err
		}
	}
	mismatches := runOracle(lg, ref, gen.oracleOps())
	res.count("oracle", tally{Sent: oracleGroups, Succeeded: oracleGroups - mismatches, Failed: mismatches})
	walBytes, replayed := 0.0, 0
	if c.wl.wal {
		acked := len(lg.ackedRatings())
		st.close() // the journal must be closed before it is reopened
		walBytes = ratio(float64(dirSize(st.walDir)), float64(acked))
		if replayed, err = replayedOnReopen(c, st.walDir); err != nil {
			return nil, err
		}
		res.Attempted++
		if replayed != acked {
			res.Failed++
			fmt.Fprintf(os.Stderr, "%s: journal replays %d ratings, %d were acknowledged\n", c.wl.name, replayed, acked)
		}
	}
	if c.trace {
		res.Metrics.set("persist.wal_bytes_per_rating", walBytes, "B")
		res.Metrics.set("persist.replayed_on_reopen", float64(replayed), "count")
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// rampAndSteady runs ramp and steady as one open-loop schedule and
// snapshots the counters where ramp ends and where steady ends, so that
// what is reported of them is a difference over steady alone.
func rampAndSteady(st *stack, lg *loadgen, sched []op, ramp time.Duration) (all []sample, before, after snapshot, err error) {
	atRamp := make(chan error, 1)
	go func() {
		time.Sleep(ramp)
		var err error
		before, err = takeSnapshot(st.srv.Handler())
		atRamp <- err
	}()
	all = lg.openLoop(sched)
	if err = <-atRamp; err != nil {
		return nil, before, after, err
	}
	after, err = takeSnapshot(st.srv.Handler())
	return all, before, after, err
}

// replayedOnReopen opens the run's journal directory the way a restart
// would and reports how many ratings it replays.
func replayedOnReopen(c runConfig, dir string) (int, error) {
	w, open, err := repro.OpenWorld(c.wl.worldConfig(c.sc), dir)
	if err != nil {
		return 0, fmt.Errorf("reopening the journal: %w", err)
	}
	return open.ReplayedRatings, w.ClosePersistence()
}

// dirSize sums the sizes of the files directly under dir.
func dirSize(dir string) (n int64) {
	entries, _ := os.ReadDir(dir) // an unreadable journal shows as 0 bytes
	for _, e := range entries {
		if info, err := e.Info(); err == nil {
			n += info.Size()
		}
	}
	return n
}

// steadyWindows is how many equal windows the steady phase is cut into
// for the tail percentile.
const steadyWindows = 5

// windowedP95 is the median, over steadyWindows equal windows of the
// steady phase (in schedule order, due in [from, from+d)), of the
// window's p95 recommend latency: on a shared two-core box a single
// stall of the machine moves a whole-phase p95 by a factor, and this way
// it spoils one window and not the number.
func windowedP95(steady []sample, from, d time.Duration) float64 {
	var vals []float64
	lo := 0
	for w := 1; w <= steadyWindows; w++ {
		end := from + d*time.Duration(w)/steadyWindows
		hi := lo
		for hi < len(steady) && (steady[hi].due < end || w == steadyWindows) {
			hi++
		}
		v, _ := percentile(latenciesMS(steady[lo:hi], opRecommend), 95)
		vals = append(vals, v)
		lo = hi
	}
	return median(vals)
}

// sliceThroughput cuts a closed-loop phase of length d into whole
// seconds, snapping each cut to the last answer before it, and returns
// the median over the slices of answered operations per second. One
// stall costs one slice, not a share of the metric.
func sliceThroughput(samples []sample, d time.Duration) float64 {
	sorted := append([]sample(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].end < sorted[j].end })
	var (
		rates     []float64
		cut       time.Duration // end of the previous slice
		n         int           // answered since cut
		lastInCut time.Duration
	)
	flush := func() {
		if n > 0 && lastInCut > cut {
			rates = append(rates, float64(n)/(lastInCut-cut).Seconds())
		}
		cut, n = lastInCut, 0
	}
	next := time.Second
	for _, s := range sorted {
		if s.end > d {
			break
		}
		for s.end > next {
			flush()
			next += time.Second
		}
		if s.ok {
			n++
		}
		lastInCut = s.end
	}
	flush()
	return median(rates)
}

// endToEndMetrics derives the latency metric and notes from the steady
// phase, which began at from and lasted d.
func endToEndMetrics(res *runResult, wl workload, steady []sample, from, d time.Duration) {
	// Median and tail are printed, not gated: between identical runs on
	// the calibration box their spread was wider than any bound a driver
	// takes (see README.md, "Noise").
	lat := latenciesMS(steady, opRecommend)
	p50, _ := percentile(lat, 50)
	res.Notes.set("recommend_p50_ms", p50, "ms")
	res.Notes.set("recommend_p95_ms", windowedP95(steady, from, d), "ms")

	// The share of requests inside the limit counts every request of the
	// phase: a stall is exactly what it is there to count, and a failed
	// request misses the limit.
	sent, within := 0.0, 0.0
	for _, s := range steady {
		if s.kind != opRecommend {
			continue
		}
		sent++
		if s.ok && ms(s.latency) <= wl.sloMS {
			within++
		}
	}
	res.Metrics.set("slo_ok_ratio", ratio(within, sent), "ratio")

	for _, p := range []float64{95, 99} {
		if v, ok := percentile(lat, p); ok {
			res.Notes.set(fmt.Sprintf("recommend_p%g_ms_whole_phase", p), v, "ms")
		}
	}
	res.Notes.set("recommend_samples", float64(len(lat)), "count")
	loadgenNotes(res, steady, res.Notes, "")
}

// loadgenNotes reports how well the generator kept its schedule, and
// flags an overloaded run.
func loadgenNotes(res *runResult, steady []sample, into metrics, prefix string) {
	var delays []float64
	maxBacklog, tail, tailN := 0, 0, 0
	for i, s := range steady {
		delays = append(delays, ms(s.sendDelay))
		maxBacklog = max(maxBacklog, s.backlog)
		if i >= len(steady)*9/10 {
			tail += s.backlog
			tailN++
		}
	}
	d95, _ := percentile(sortedCopy(delays), 95)
	backlogEnd := ratio(float64(tail), float64(tailN))
	into.set(prefix+"send_delay_p95_ms", d95, "ms")
	into.set(prefix+"max_backlog", float64(maxBacklog), "count")
	into.set(prefix+"backlog_end", backlogEnd, "count")
	res.Overloaded = backlogEnd > float64(res.Connections)
}
