package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
)

// tinyScale is the 72-participant quick world: builds in ~0.1 s.
var tinyScale = scale{
	users: 300, items: 1200, ratings: 30_000,
	participants: 72, communities: 6,
	poolGroups: 12, churnListStore: 16, ratingItems: 600,
}

func testGenerator(wl workload, seed int64) *generator {
	participants := make([]dataset.UserID, 72)
	for i := range participants {
		participants[i] = dataset.UserID(i)
	}
	items := make([]dataset.ItemID, 100)
	for i := range items {
		items[i] = dataset.ItemID(i)
	}
	return newGenerator(wl, tinyScale, seed, participants, items)
}

// flatten renders everything the program would see of a run's ops.
func flatten(g *generator) []byte {
	var b bytes.Buffer
	ops := append(g.warmupOps(), g.schedule(3*time.Second)...)
	for i := 0; i < 20; i++ {
		ops = append(ops, g.next())
	}
	for _, o := range append(ops, g.oracleOps()...) {
		b.WriteString(o.path())
		b.Write(o.body)
		b.WriteString(o.due.String())
		b.WriteByte('\n')
	}
	return b.Bytes()
}

func TestSameSeedSameOps(t *testing.T) {
	for _, wl := range workloads {
		a, b, c := flatten(testGenerator(wl, 7)), flatten(testGenerator(wl, 7)), flatten(testGenerator(wl, 8))
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave different ops", wl.name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: different seeds gave the same ops", wl.name)
		}
	}
}

func TestScheduleIsPoissonAtTheFrozenRate(t *testing.T) {
	wl, _ := findWorkload("ingest_mix")
	ops := testGenerator(wl, 1).schedule(100 * time.Second)
	ratings := 0
	for i, o := range ops {
		if i > 0 && o.due < ops[i-1].due {
			t.Fatalf("op %d is due before op %d", i, i-1)
		}
		if o.kind == opRating {
			ratings++
		}
	}
	wantOps, wantRatings := 100*(wl.rate+wl.ratingRate), 100*wl.ratingRate
	if n := float64(len(ops)); n < 0.9*wantOps || n > 1.1*wantOps {
		t.Errorf("%d ops in 100 s, want about %.0f", len(ops), wantOps)
	}
	if n := float64(ratings); n < 0.85*wantRatings || n > 1.15*wantRatings {
		t.Errorf("%d ratings in 100 s, want about %.0f", ratings, wantRatings)
	}
}

func TestPercentileGuard(t *testing.T) {
	xs := make([]float64, 199)
	for i := range xs {
		xs[i] = float64(i)
	}
	if v, ok := percentile(xs, 50); v != 99 || !ok {
		t.Errorf("p50 of 0..198 = %v, %v; want 99, true", v, ok)
	}
	// 199 samples leave 9 beyond p95; one more makes ten.
	if _, ok := percentile(xs, 95); ok {
		t.Error("p95 of 199 samples passed the guard with 9 samples beyond it")
	}
	if _, ok := percentile(append(xs, 199), 95); !ok {
		t.Error("p95 of 200 samples failed the guard with 10 samples beyond it")
	}
	if _, ok := percentile(nil, 50); ok {
		t.Error("a percentile of nothing passed the guard")
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([10, 11, 12], n=4) == [10.0, 11.0, 12.0]
	q1, q3 = quartiles([]float64{11, 12, 10})
	if q1 != 10 || q3 != 12 {
		t.Errorf("quartiles = %v, %v; want 10, 12", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles = %v, %v; want 1.5, 12", q1, q3)
	}
}

// A server that stalls once must show in the latency of every op that
// was due during the stall, although those ops were sent late: latency
// runs from the due time, so the stall is not omitted.
func TestOpenLoopCountsStallFromDueTime(t *testing.T) {
	const stall = 200 * time.Millisecond
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()
	lg := newLoadgen(srv.URL, 1)
	defer lg.close()

	ops := make([]op, 10)
	for i := range ops {
		ops[i] = op{kind: opRecommend, body: []byte("{}"), due: time.Duration(i) * 10 * time.Millisecond}
	}
	samples := lg.openLoop(ops)
	for i, s := range samples {
		if !s.ok {
			t.Fatalf("op %d failed", i)
		}
		// Op i was due i*10 ms into a 200 ms stall on the only connection.
		if want := stall - ops[i].due; s.latency < want {
			t.Errorf("op %d: latency %v omits the stall; want at least %v", i, s.latency, want)
		}
	}
	if samples[5].sendDelay < 100*time.Millisecond {
		t.Errorf("op 5 left %v late; the stall should have held it back ~150 ms", samples[5].sendDelay)
	}
	if samples[1].backlog == 0 {
		t.Error("no backlog was seen behind the stall")
	}
}

func TestVerdict(t *testing.T) {
	lower := specMetric{Name: "recommend_p50_ms", Better: "lower", Bound: 0.10}
	higher := specMetric{Name: "throughput_rps", Better: "higher", Bound: 0.10}
	steady := func(median float64) side { return side{median: median, spread: 0.02, n: 5} }
	cases := []struct {
		m    specMetric
		a, b side
		want string
	}{
		{lower, steady(100), steady(109), "ok"},
		{lower, steady(100), steady(111), "worse"},
		{lower, steady(100), steady(50), "ok"},
		{higher, steady(100), steady(91), "ok"},
		{higher, steady(100), steady(89), "worse"},
		{higher, steady(100), steady(150), "ok"},
		{lower, steady(100), side{median: 100, spread: 0.11, n: 5}, "unresolved"},
		{lower, side{median: 100, spread: 0.5, n: 5}, steady(300), "unresolved"},
		{lower, steady(100), side{}, "missing"},
		{specMetric{Name: "setup_s", Better: "lower", Bound: 0.10}, steady(100), side{median: 105, spread: 0.3, n: 5}, "ok"},
	}
	for _, c := range cases {
		if got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("verdict(%s, %+v, %+v) = %s, want %s", c.m.Name, c.a, c.b, got, c.want)
		}
	}
}

func TestSideOfAndSameConditions(t *testing.T) {
	set := &runSet{GOMAXPROCS: 2, Connections: 2, Seconds: 20, Seeds: []int64{1, 2, 3}}
	for i, v := range []float64{10, 12, 11} {
		set.Runs = append(set.Runs,
			&runResult{Workload: "w", Seed: int64(i + 1), Metrics: metrics{"m": {Value: v}}},
			&runResult{Workload: "other", Seed: int64(i + 1), Metrics: metrics{"m": {Value: 1000}}})
	}
	s := sideOf(set, "w", "m")
	if s.n != 3 || s.median != 11 || s.spread != 2.0/11 {
		t.Errorf("sideOf = %+v; want n 3, median 11, spread 2/11", s)
	}
	other := *set
	if err := sameConditions(set, &other); err != nil {
		t.Errorf("identical conditions refused: %v", err)
	}
	for name, change := range map[string]func(*runSet){
		"gomaxprocs": func(r *runSet) { r.GOMAXPROCS = 4 },
		"seconds":    func(r *runSet) { r.Seconds = 10 },
		"seeds":      func(r *runSet) { r.Seeds = []int64{4, 5, 6} },
	} {
		o := *set
		change(&o)
		if sameConditions(set, &o) == nil {
			t.Errorf("run sets with different %s were accepted", name)
		}
	}
}

func TestAddToRunSet(t *testing.T) {
	path := t.TempDir() + "/set.json"
	part := func(seed int64, seconds float64) runSet {
		return runSet{GOMAXPROCS: 2, Connections: 2, Seconds: seconds, Seeds: []int64{seed},
			Runs: []*runResult{{Workload: "w", Seed: seed}}}
	}
	for _, seed := range []int64{1, 2} {
		if err := addToRunSet(path, part(seed, 18)); err != nil {
			t.Fatal(err)
		}
	}
	var got runSet
	if err := readJSON(path, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Seeds, []int64{1, 2}) || len(got.Runs) != 2 || got.Runs[1].Seed != 2 {
		t.Errorf("run set after two parts: seeds %v, %d runs", got.Seeds, len(got.Runs))
	}
	if err := addToRunSet(path, part(3, 10)); err == nil {
		t.Error("a part measured for other durations was added")
	}
}

// One short run per kind of stack on the tiny world: every phase sends,
// the oracle passes, and the metrics printed are exactly the ones
// BENCHMARK.json names, with its units.
func TestRunsReportTheSpecifiedMetrics(t *testing.T) {
	var spec benchSpec
	if err := readJSON("../"+specFile, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds is %v, defaultSeconds %v", spec.RunSeconds, defaultSeconds)
	}
	var names []string
	for _, wl := range spec.Workloads {
		names = append(names, wl.Name)
	}
	var have []string
	for _, wl := range workloads {
		have = append(have, wl.name)
	}
	if !reflect.DeepEqual(names, have) {
		t.Errorf("BENCHMARK.json workloads %v, program's %v", names, have)
	}

	for _, m := range spec.EndToEnd {
		if (m.Better == "higher") != higherIsBetter[m.Name] {
			t.Errorf("BENCHMARK.json says %s of %s is better, higherIsBetter says otherwise", m.Better, m.Name)
		}
	}

	for _, tc := range []struct {
		workload string
		trace    bool
		want     []specMetric
	}{
		{"ingest_mix", false, spec.EndToEnd},
		{"remote_reads", true, spec.PerLayer},
		{"cold_churn", true, spec.PerLayer},
	} {
		wl, err := findWorkload(tc.workload)
		if err != nil {
			t.Fatal(err)
		}
		res, err := runOne(runConfig{wl: wl, sc: tinyScale, seed: 3, seconds: 1.5, trace: tc.trace, outDir: t.TempDir()})
		if err != nil {
			t.Fatalf("%s: %v", tc.workload, err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Errorf("%s: %d of %d operations failed", tc.workload, res.Failed, res.Attempted)
		}
		for _, phase := range []string{"warmup", "ramp", "steady", "oracle"} {
			if res.Phases[phase].Sent == 0 {
				t.Errorf("%s: phase %s sent nothing", tc.workload, phase)
			}
		}
		want := map[string]string{}
		for _, m := range tc.want {
			want[m.Name] = m.Unit
		}
		got := map[string]string{}
		for name, m := range res.Metrics {
			got[name] = m.Unit
		}
		if !reflect.DeepEqual(got, want) {
			for name, unit := range want {
				if got[name] != unit {
					t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", tc.workload, name, got[name], unit)
				}
			}
			for name := range got {
				if _, ok := want[name]; !ok {
					t.Errorf("%s: metric %s is not in BENCHMARK.json", tc.workload, name)
				}
			}
		}
	}
}

func TestMergeBlocksKeepsTheBetterValue(t *testing.T) {
	part := func(p50, rps float64, failed int) *runResult {
		return &runResult{
			Workload: "w", Blocks: 1, Attempted: 10, Failed: failed, Correct: failed == 0,
			Phases:  map[string]tally{"steady": {Sent: 10, Succeeded: 10 - failed, Failed: failed, Seconds: 1}},
			Metrics: metrics{"recommend_p50_ms": {p50, "ms"}, "throughput_rps": {rps, "1/s"}},
			Notes:   metrics{"recommend_p95_ms": {2 * p50, "ms"}},
		}
	}
	res := mergeBlocks([]*runResult{part(12, 90, 0), part(10, 80, 1)})
	if got := res.Metrics["recommend_p50_ms"].Value; got != 10 {
		t.Errorf("recommend_p50_ms %v, want the lower, 10", got)
	}
	if got := res.Metrics["throughput_rps"].Value; got != 90 {
		t.Errorf("throughput_rps %v, want the higher, 90", got)
	}
	if res.Blocks != 2 || res.Attempted != 20 || res.Failed != 1 || res.Correct {
		t.Errorf("blocks %d attempted %d failed %d correct %t, want 2, 20, 1, false", res.Blocks, res.Attempted, res.Failed, res.Correct)
	}
	if got := res.Phases["steady"]; got.Sent != 20 || got.Failed != 1 || got.Seconds != 2 {
		t.Errorf("steady tally %+v, want the blocks' sum", got)
	}
	if res.Notes["b1.recommend_p50_ms"].Value != 12 || res.Notes["b2.recommend_p95_ms"].Value != 20 {
		t.Errorf("notes %v do not hold every block's own values", res.Notes)
	}
}
