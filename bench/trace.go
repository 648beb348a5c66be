package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro"
	"repro/internal/consensus"
	"repro/internal/core"
)

// maxTracedOps bounds the traced sample.
const maxTracedOps = 200

// span is one timed call into a layer's public function. Spans of one
// sampled op share req. parent names the span that, in a real request,
// would have made this call; here each layer is a separate execution of
// the same warm request, deepest first, so a child's interval lies
// before its parent's, not inside it, and a layer's self time is its
// span's duration minus its children's durations.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Req     int    `json:"req"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

// time runs fn as a span and returns the span's index and duration.
func (t *tracer) time(name string, req int, fn func()) (int, time.Duration) {
	start := time.Since(t.t0)
	fn()
	end := time.Since(t.t0)
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Req: req, Name: name, StartNS: int64(start), EndNS: int64(end)})
	return len(t.spans) - 1, end - start
}

func (t *tracer) adopt(parent int, children ...int) {
	for _, c := range children {
		t.spans[c].Parent = t.spans[parent].ID
	}
}

// steadyLayerMetrics turns the /v1/stats and process differences over
// the steady phase into per-layer metrics.
func steadyLayerMetrics(res *runResult, steady []sample, from, length time.Duration, b, a snapshot) {
	m := res.Metrics
	recs, ratings := 0.0, float64(a.stats.Ingest.Posts-b.stats.Ingest.Posts)
	for _, s := range steady {
		if s.kind == opRecommend {
			recs++
		}
	}
	d := func(after, before uint64) float64 { return float64(after - before) }
	perReq := func(name string, after, before uint64) { m.set(name, ratio(d(after, before), recs), "1/req") }
	perRating := func(name string, after, before uint64) {
		m.set(name, ratio(d(after, before), ratings), "1/rating")
	}

	bc, ac := b.stats.Coalescer, a.stats.Coalescer
	m.set("server.mean_window_size", ratio(d(ac.Requests, bc.Requests), d(ac.Windows, bc.Windows)), "req")
	m.set("server.shed", d(ac.Shed, bc.Shed), "count")
	lat := latenciesMS(steady, opRecommend)
	p50, _ := percentile(lat, 50)
	m.set("server.recommend_p50_ms", p50, "ms")
	m.set("server.recommend_p95_ms", windowedP95(steady, from, length), "ms")
	p99, _ := percentile(lat, 99)
	m.set("server.recommend_p99_ms", p99, "ms")
	m.set("server.recommend_samples", float64(len(lat)), "count")
	acks := latenciesMS(steady, opRating)
	ack50, _ := percentile(acks, 50)
	ack95, _ := percentile(acks, 95)
	m.set("server.rating_ack_p50_ms", ack50, "ms")
	m.set("server.rating_ack_p95_ms", ack95, "ms")

	m.set("facade.mux_shared_per_req", ratio(float64(a.stats.Mux.Shared-b.stats.Mux.Shared), recs), "1/req")
	m.set("dataset.delta_pending_end", float64(a.stats.Ingest.Store.Pending), "count")

	bl, al := b.stats.Caches.ListStore, a.stats.Caches.ListStore
	hits, builds := d(al.ViewHits, bl.ViewHits), d(al.ViewBuilds, bl.ViewBuilds)
	m.set("liststore.view_hit_ratio", ratio(hits, hits+builds), "ratio")
	perReq("liststore.builds_per_req", al.ViewBuilds, bl.ViewBuilds)
	perReq("liststore.evictions_per_req", al.Evictions, bl.Evictions)
	perRating("liststore.invalidated_per_rating", al.Invalidations, bl.Invalidations)
	perRating("liststore.retained_per_rating", al.Retained, bl.Retained)
	perRating("liststore.patched_per_rating", al.Patched, bl.Patched)
	m.set("liststore.size_end", float64(al.Size), "count")

	bn, an := b.stats.Caches.Neighborhoods, a.stats.Caches.Neighborhoods
	nh, nm := d(an.Hits, bn.Hits), d(an.Misses, bn.Misses)
	m.set("cf.neighborhood_hit_ratio", ratio(nh, nh+nm), "ratio")
	perReq("cf.neighborhood_builds_per_req", an.Misses, bn.Misses)
	perRating("cf.neighborhoods_invalidated_per_rating", an.Invalidated, bn.Invalidated)
	perRating("cf.neighborhoods_retained_per_rating", an.Retained, bn.Retained)
	br, ar := b.stats.Caches.RowCache, a.stats.Caches.RowCache
	perReq("cf.rowcache_lookups_per_req", ar.Hits+ar.Misses, br.Hits+br.Misses)

	bt, at := b.stats.Remote.Transport, a.stats.Remote.Transport
	brpc, bview := b.stats.rpcs()
	arpc, aview := a.stats.rpcs()
	perReq("remote.rpcs_per_req", arpc, brpc)
	perReq("remote.view_rpcs_per_req", aview, bview)
	perReq("remote.conn_reuses_per_req", at.ConnReuses, bt.ConnReuses)
	perReq("remote.view_cache_hits_per_req", a.stats.Remote.ViewCache.Hits, b.stats.Remote.ViewCache.Hits)
	m.set("remote.dials", d(at.Dials, bt.Dials), "count")
	m.set("remote.retries", d(at.Retries, bt.Retries), "count")
	m.set("remote.breaker_opens", d(at.BreakerOpens, bt.BreakerOpens), "count")

	ops := float64(len(steady))
	m.set("process.cpu_ms_per_op", ratio(ms(a.proc.cpu-b.proc.cpu), ops), "ms")
	m.set("process.allocs_per_op", ratio(d(a.proc.mallocs, b.proc.mallocs), ops), "1/op")
	m.set("process.alloc_kb_per_op", ratio(d(a.proc.allocB, b.proc.allocB)/1024, ops), "KB")
	m.set("process.gc_pause_ms_total", ms(a.proc.gcPause-b.proc.gcPause), "ms")
	m.set("process.peak_rss_mb", float64(a.proc.maxRSSKB)/1024, "MB")

	t := res.Phases["steady"]
	m.set("loadgen.sent", float64(t.Sent), "count")
	m.set("loadgen.succeeded", float64(t.Succeeded), "count")
	m.set("loadgen.failed", float64(t.Failed), "count")
	loadgenNotes(res, steady, m, "loadgen.")
}

// tracedRecommend is the staged decomposition of one sampled request.
type tracedRecommend struct {
	candidates, assembly, warmAssembly, run time.Duration
	recommend, submit, http                 time.Duration
	// builds is how many views and prediction rows the first assembly
	// had to materialize; zero makes it a warm assembly.
	builds   uint64
	checks   int
	saPct    float64
	localAsm time.Duration
}

// tracedPass replays a seeded sample of ops one at a time until d has
// passed, wrapping each call into a layer's public function in a span,
// and writes the spans with their per-layer summary to the trace file.
//
// Within one recommend the order is deepest first — candidates,
// assembly, run, the plain facade call, the coalescer, HTTP — so the
// only execution that can be cold is the first assembly, and each
// overhead layer is the difference between two warm executions of the
// same request.
func tracedPass(c runConfig, res *runResult, st *stack, lg *loadgen, gen *generator, ref *reference, d time.Duration) error {
	tr := &tracer{t0: time.Now()}
	ctx := context.Background()
	var (
		recs              []tracedRecommend
		direct, viaHTTP   []float64 // rating latencies, ms
		sent, failed, req int
	)
	for time.Since(tr.t0) < d && req < maxTracedOps {
		o := gen.next()
		req++
		sent++
		if o.kind == opRating {
			// Ingest is not idempotent: every traced rating is a fresh
			// one, alternately applied directly and over HTTP.
			var ok bool
			if len(direct) <= len(viaHTTP) {
				_, took := tr.time("facade.add_rating", req, func() { ok = lg.applyDirect(st.world, o) })
				direct = append(direct, ms(took))
			} else {
				_, took := tr.time("server.http_rating", req, func() { ok, _ = lg.do(0, o) })
				viaHTTP = append(viaHTTP, ms(took))
			}
			if !ok {
				failed++
			}
			continue
		}

		spec, err := consensus.Parse(o.consensus)
		if err != nil {
			return err
		}
		opt := repro.Options{K: reqK, NumItems: reqNumItems, Consensus: spec}
		var t tracedRecommend

		sCand, took := tr.time("dataset.candidates", req, func() { opt.Items = st.world.CandidateItems(o.group, reqNumItems) })
		t.candidates = took

		// The first assembly is classified by the caches' own counters —
		// views built by the list store, rows missed by the row cache,
		// which serves the assemblies the list store cannot — and a
		// second, certainly warm one follows a miss.
		before, err := readStats(st.srv.Handler())
		if err != nil {
			return err
		}
		var prob *core.Problem
		sAsm, took := tr.time("engine.assembly", req, func() { prob, _, err = st.world.BuildProblem(o.group, opt) })
		if err != nil {
			return fmt.Errorf("traced assembly: %w", err)
		}
		after, err := readStats(st.srv.Handler())
		if err != nil {
			return err
		}
		t.assembly, t.warmAssembly = took, took
		t.builds = after.Caches.ListStore.ViewBuilds - before.Caches.ListStore.ViewBuilds +
			after.Caches.RowCache.Misses - before.Caches.RowCache.Misses
		if t.builds > 0 {
			sAsm, t.warmAssembly = tr.time("engine.assembly", req, func() { prob, _, err = st.world.BuildProblem(o.group, opt) })
			if err != nil {
				return fmt.Errorf("traced assembly: %w", err)
			}
		}

		sRun, took := tr.time("core.run", req, func() {
			var r *core.Runner
			if r, err = prob.Runner(opt.Mode); err != nil {
				return
			}
			for !r.Done() {
				r.Step(1)
			}
			var out core.Result
			if out, err = r.Result(); err == nil {
				t.checks = out.Stats.Checks
			}
		})
		if err != nil {
			return fmt.Errorf("traced run: %w", err)
		}
		t.run = took

		opt.Items = nil // from here on, the request as a client sends it
		sRec, took := tr.time("facade.recommend", req, func() { _, err = st.world.RecommendContext(ctx, o.group, opt) })
		if err != nil {
			return fmt.Errorf("traced recommend: %w", err)
		}
		t.recommend = took
		tr.adopt(sRec, sCand, sAsm, sRun)

		sSub, took := tr.time("server.coalescer_submit", req, func() {
			var out repro.Result
			if out, err = st.srv.Coalescer().Submit(ctx, repro.Request{Group: o.group, Options: opt}); err == nil {
				err = out.Err
			}
		})
		if err != nil {
			return fmt.Errorf("traced submit: %w", err)
		}
		t.submit = took
		tr.adopt(sSub, sRec)

		var (
			ok   bool
			body []byte
		)
		sHTTP, took := tr.time("server.http", req, func() { ok, body = lg.do(0, o) })
		t.http = took
		tr.adopt(sHTTP, sSub)
		var answer struct {
			Accesses     float64 `json:"accesses"`
			TotalEntries float64 `json:"total_entries"`
		}
		if !ok || json.Unmarshal(body, &answer) != nil {
			failed++
		}
		t.saPct = 100 * ratio(answer.Accesses, answer.TotalEntries)

		if ref != nil {
			// The same warm assembly on the single-process reference:
			// the difference is what the transport costs.
			for i := 0; i < 2; i++ {
				start := time.Now()
				if _, _, err := ref.world.BuildProblem(o.group, opt); err != nil {
					return fmt.Errorf("reference assembly: %w", err)
				}
				t.localAsm = time.Since(start)
			}
		}
		recs = append(recs, t)
	}
	res.count("traced", tally{Sent: sent, Succeeded: sent - failed, Failed: failed, Seconds: time.Since(tr.t0).Seconds()})
	tracedLayerMetrics(res.Metrics, recs, direct, viaHTTP, ref != nil)

	out := struct {
		Workload string  `json:"workload"`
		Seed     int64   `json:"seed"`
		Summary  metrics `json:"summary"`
		Spans    []span  `json:"spans"`
	}{c.wl.name, c.seed, res.Metrics, tr.spans}
	raw, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(c.outDir, "trace-"+c.wl.name+".json"), raw, 0o644)
}

// tracedLayerMetrics summarizes the traced sample: medians per layer,
// overheads as per-request differences.
func tracedLayerMetrics(m metrics, recs []tracedRecommend, direct, viaHTTP []float64, remote bool) {
	all := func(f func(tracedRecommend) float64) []float64 {
		xs := make([]float64, len(recs))
		for i, t := range recs {
			xs[i] = f(t)
		}
		return xs
	}
	sum := func(xs []float64) (s float64) {
		for _, x := range xs {
			s += x
		}
		return s
	}
	// The assemblies that had to build views or rows, and how many each built.
	var miss, missBuilds []float64
	for _, t := range recs {
		if t.builds > 0 {
			miss = append(miss, ms(t.assembly))
			missBuilds = append(missBuilds, float64(t.builds))
		}
	}

	staged := all(func(t tracedRecommend) float64 { return ms(t.candidates + t.warmAssembly + t.run) })
	plain := all(func(t tracedRecommend) float64 { return ms(t.recommend) })
	warm := median(all(func(t tracedRecommend) float64 { return ms(t.warmAssembly) }))
	run := median(all(func(t tracedRecommend) float64 { return ms(t.run) }))
	checks := median(all(func(t tracedRecommend) float64 { return float64(t.checks) }))

	m.set("dataset.candidates_ms", median(all(func(t tracedRecommend) float64 { return ms(t.candidates) })), "ms")
	m.set("engine.assembly_warm_ms", warm, "ms")
	m.set("engine.assembly_miss_ms", median(miss), "ms")
	perView := 0.0
	if len(miss) > 0 {
		perView = (median(miss) - warm) / (sum(missBuilds) / float64(len(missBuilds)))
	}
	m.set("engine.view_build_ms_per_view", perView, "ms")
	m.set("engine.assembly_miss_share", ratio(float64(len(miss)), float64(len(recs))), "ratio")
	m.set("core.run_ms", run, "ms")
	m.set("core.checks_per_req", checks, "count")
	m.set("core.us_per_check", 1000*ratio(run, checks), "us")
	m.set("core.sa_pct", median(all(func(t tracedRecommend) float64 { return t.saPct })), "%")
	m.set("facade.recommend_ms", median(plain), "ms")
	m.set("facade.overhead_ms", median(all(func(t tracedRecommend) float64 {
		return ms(t.recommend - t.candidates - t.warmAssembly - t.run)
	})), "ms")
	m.set("server.coalescer_wait_ms", median(all(func(t tracedRecommend) float64 { return ms(t.submit - t.recommend) })), "ms")
	m.set("server.http_overhead_ms", median(all(func(t tracedRecommend) float64 { return ms(t.http - t.submit) })), "ms")
	m.set("facade.add_rating_ms", median(direct), "ms")
	overhead := 0.0
	if len(direct) > 0 && len(viaHTTP) > 0 {
		overhead = median(viaHTTP) - median(direct)
	}
	m.set("server.rating_http_overhead_ms", overhead, "ms")
	tax := 0.0
	if remote {
		tax = median(all(func(t tracedRecommend) float64 { return ms(t.warmAssembly - t.localAsm) }))
	}
	m.set("remote.transport_tax_ms", tax, "ms")
	m.set("loadgen.traced_ops", float64(len(recs)+len(direct)+len(viaHTTP)), "count")
	m.set("loadgen.trace_reconcile_pct", 100*ratio(math.Abs(sum(staged)-sum(plain)), sum(plain)), "%")
}
