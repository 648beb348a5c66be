package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/dataset"
	"repro/internal/remote"
	"repro/internal/shard"
)

// remoteWorldConfig is the shrunken world every process of a
// distributed differential stack builds — router, workers, and the
// in-process control all share it, so the config fingerprints match
// and every computed byte is comparable.
func remoteWorldConfig(shards int) repro.Config {
	cfg := repro.QuickConfig()
	cfg.Dataset.Users = 150
	cfg.Dataset.TargetRatings = 10_000
	cfg.Dataset.Items = 500
	cfg.Shards = shards
	return cfg
}

// remoteStack is a distributed serving stack: a router world fronting
// worker processes (in-process goroutines speaking the real TCP
// protocol), plus the worker servers for fault injection.
type remoteStack struct {
	router  *repro.World
	set     *remote.ShardSet
	workers []*remote.Server
	// ownerOf maps shard index → index into workers.
	ownerOf []int
}

// startRemoteStack builds worker worlds for each ownership split,
// serves them over loopback TCP, and attaches a router world to them.
// routerTweak functions adjust the router's config only — valid for
// router-local knobs excluded from the fingerprint (RemoteViewCache),
// which must not perturb the worker worlds.
func startRemoteStack(t *testing.T, shards int, owns [][]int, cc remote.ClientConfig, wrap func(remote.Backend) remote.Backend, routerTweak ...func(*repro.Config)) *remoteStack {
	t.Helper()
	st := &remoteStack{ownerOf: make([]int, shards)}
	var workersJSON []string
	for wi, owned := range owns {
		w, err := repro.NewWorld(remoteWorldConfig(shards))
		if err != nil {
			t.Fatalf("building worker world: %v", err)
		}
		backend, err := repro.NewShardBackend(w, owned)
		if err != nil {
			t.Fatalf("shard backend: %v", err)
		}
		var b remote.Backend = backend
		if wrap != nil {
			b = wrap(b)
		}
		srv := remote.NewServer(b)
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		go srv.Serve(lis)
		t.Cleanup(srv.Close)
		st.workers = append(st.workers, srv)
		for _, sh := range owned {
			st.ownerOf[sh] = wi
		}
		ownsJSON, _ := json.Marshal(owned)
		workersJSON = append(workersJSON, fmt.Sprintf(`{"addr": %q, "owns": %s}`, lis.Addr().String(), ownsJSON))
	}
	top, err := remote.ParseTopology([]byte(fmt.Sprintf(
		`{"shards": %d, "workers": [%s]}`, shards, strings.Join(workersJSON, ","))))
	if err != nil {
		t.Fatalf("topology: %v", err)
	}
	st.set, err = remote.NewShardSet(top, cc)
	if err != nil {
		t.Fatalf("shard set: %v", err)
	}
	t.Cleanup(st.set.Close)
	routerCfg := remoteWorldConfig(shards)
	for _, tweak := range routerTweak {
		tweak(&routerCfg)
	}
	st.router, err = repro.NewWorld(routerCfg)
	if err != nil {
		t.Fatalf("building router world: %v", err)
	}
	if err := st.router.AttachRemote(st.set); err != nil {
		t.Fatalf("AttachRemote: %v", err)
	}
	return st
}

// serveHTTP exposes a world through the full HTTP surface.
func serveHTTP(t *testing.T, w *repro.World) *httptest.Server {
	t.Helper()
	s := New(w, Config{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return ts
}

// groupOnShards picks n participants whose shards all fall in allowed
// (nil = no constraint).
func groupOnShards(t *testing.T, w *repro.World, shards, n int, allowed map[int]bool) []int64 {
	t.Helper()
	m, err := shard.New(shards)
	if err != nil {
		t.Fatal(err)
	}
	var group []int64
	for _, u := range w.Participants() {
		if allowed == nil || allowed[m.Of(int64(u))] {
			group = append(group, int64(u))
			if len(group) == n {
				return group
			}
		}
	}
	t.Fatalf("found only %d of %d participants on shards %v", len(group), n, allowed)
	return nil
}

func groupJSON(group []int64) string {
	parts := make([]string, len(group))
	for i, u := range group {
		parts[i] = fmt.Sprint(u)
	}
	return "[" + strings.Join(parts, ",") + "]"
}

// collectShape records every key path of a JSON document, recursing
// through objects and arrays — the stats differential compares shapes,
// not counter values.
func collectShape(v any, prefix string, out map[string]bool) {
	switch x := v.(type) {
	case map[string]any:
		for k, child := range x {
			p := prefix + "." + k
			out[p] = true
			collectShape(child, p, out)
		}
	case []any:
		for _, child := range x {
			collectShape(child, prefix+"[]", out)
		}
	}
}

func jsonShape(t *testing.T, data []byte) map[string]bool {
	t.Helper()
	var v any
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatalf("unmarshal %q: %v", data, err)
	}
	out := make(map[string]bool)
	collectShape(v, "", out)
	return out
}

// TestRemoteDifferentialByteIdentical is the distributed acceptance
// differential: a router fronting worker processes serves byte-for-byte
// the responses of the in-process world at the same shard count —
// single recommend, batch, the full SSE frame sequence, and the stats
// shape — including after a rating ingested through the remote path.
// The cached variants enable the router view cache and repeat every
// stage against warm cache state: a cache hit must serve the same
// bytes as the wire fetch it replaced, before and after ingest.
func TestRemoteDifferentialByteIdentical(t *testing.T) {
	cases := []struct {
		shards int
		owns   [][]int
		cache  bool
	}{
		{1, [][]int{{0}}, false},
		{4, [][]int{{0, 2}, {1, 3}}, false},
		{1, [][]int{{0}}, true},
		{4, [][]int{{0, 2}, {1, 3}}, true},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("shards=%d,cache=%v", tc.shards, tc.cache), func(t *testing.T) {
			local, err := repro.NewWorld(remoteWorldConfig(tc.shards))
			if err != nil {
				t.Fatalf("building local world: %v", err)
			}
			localTS := serveHTTP(t, local)
			stack := startRemoteStack(t, tc.shards, tc.owns, remote.ClientConfig{}, nil,
				func(c *repro.Config) {
					if tc.cache {
						c.RemoteViewCache = 256
					}
				})
			remoteTS := serveHTTP(t, stack.router)

			g3 := groupJSON(groupOnShards(t, stack.router, tc.shards, 3, nil))
			g1 := groupJSON(groupOnShards(t, stack.router, tc.shards, 1, nil))
			singles := []string{
				fmt.Sprintf(`{"group":%s,"k":5,"num_items":200}`, g3),
				fmt.Sprintf(`{"group":%s,"k":3,"num_items":120,"consensus":"MO"}`, g3),
				fmt.Sprintf(`{"group":%s,"k":4,"num_items":150}`, g1),
			}
			compare := func(stage string) {
				for _, body := range singles {
					ls, lb := postJSON(t, localTS.URL+"/v1/recommend", body)
					rs, rb := postJSON(t, remoteTS.URL+"/v1/recommend", body)
					if ls != http.StatusOK || rs != http.StatusOK {
						t.Fatalf("%s: status local %d remote %d (%s / %s)", stage, ls, rs, lb, rb)
					}
					if !bytes.Equal(lb, rb) {
						t.Errorf("%s: recommend bytes diverge for %s:\nlocal  %s\nremote %s", stage, body, lb, rb)
					}
				}
				batch := fmt.Sprintf(`{"requests":[%s]}`, strings.Join(singles, ","))
				ls, lb := postJSON(t, localTS.URL+"/v1/recommend/batch", batch)
				rs, rb := postJSON(t, remoteTS.URL+"/v1/recommend/batch", batch)
				if ls != http.StatusOK || rs != http.StatusOK {
					t.Fatalf("%s: batch status local %d remote %d", stage, ls, rs)
				}
				if !bytes.Equal(lb, rb) {
					t.Errorf("%s: batch bytes diverge:\nlocal  %s\nremote %s", stage, lb, rb)
				}
				stream := fmt.Sprintf(`{"group":%s,"k":5,"num_items":400}`, g3)
				ls, lb = postJSON(t, localTS.URL+"/v1/recommend/stream", stream)
				rs, rb = postJSON(t, remoteTS.URL+"/v1/recommend/stream", stream)
				if ls != http.StatusOK || rs != http.StatusOK {
					t.Fatalf("%s: stream status local %d remote %d", stage, ls, rs)
				}
				if !bytes.Equal(lb, rb) {
					t.Errorf("%s: SSE frame sequence diverges:\nlocal  %s\nremote %s", stage, lb, rb)
				}
			}
			compare("cold")
			if tc.cache {
				// Second pass over the same groups: the router now serves
				// views from its cache instead of the wire — same bytes.
				compare("warm")
			}

			// Ingest one rating through both surfaces; the acks and every
			// subsequent response must stay identical. The remote path
			// fans the rating to the workers and requires the owner's ack.
			u := groupOnShards(t, stack.router, tc.shards, 1, nil)[0]
			rating := fmt.Sprintf(`{"user":%d,"item":%d,"value":5,"time":978300000}`, u, 1)
			ls, lb := postJSON(t, localTS.URL+"/v1/ratings", rating)
			rs, rb := postJSON(t, remoteTS.URL+"/v1/ratings", rating)
			if ls != http.StatusOK || rs != http.StatusOK {
				t.Fatalf("ingest: status local %d remote %d (%s / %s)", ls, rs, lb, rb)
			}
			if !bytes.Equal(lb, rb) {
				t.Errorf("ingest acks diverge: local %s remote %s", lb, rb)
			}
			compare("post-ingest")
			if tc.cache {
				// Post-ingest warm pass: the views re-fetched after the ingest
				// dropped them serve from cache, still byte-identical.
				compare("post-ingest-warm")
			}

			// Stats: counter values differ (the remote substitutes worker
			// counters), but the wire shape must be identical, the
			// per-shard breakdown complete.
			var localStats, remoteStats json.RawMessage
			if st := getJSON(t, localTS.URL+"/v1/stats", &localStats); st != http.StatusOK {
				t.Fatalf("local stats status %d", st)
			}
			if st := getJSON(t, remoteTS.URL+"/v1/stats", &remoteStats); st != http.StatusOK {
				t.Fatalf("remote stats status %d", st)
			}
			lshape, rshape := jsonShape(t, localStats), jsonShape(t, remoteStats)
			for k := range lshape {
				if !rshape[k] {
					t.Errorf("remote stats missing key %s", k)
				}
			}
			for k := range rshape {
				if !lshape[k] {
					t.Errorf("remote stats has extra key %s", k)
				}
			}
			var parsed struct {
				Caches struct {
					PerShard []struct {
						Shard int `json:"shard"`
					} `json:"per_shard"`
				} `json:"caches"`
				Remote struct {
					Attached  bool `json:"attached"`
					Transport struct {
						CallsByOp    map[string]uint64 `json:"calls_by_op"`
						BatchedCalls uint64            `json:"batched_calls"`
					} `json:"transport"`
					ViewCacheEnabled bool `json:"view_cache_enabled"`
					ViewCache        struct {
						Hits   uint64 `json:"hits"`
						Misses uint64 `json:"misses"`
					} `json:"view_cache"`
				} `json:"remote"`
			}
			if err := json.Unmarshal(remoteStats, &parsed); err != nil {
				t.Fatalf("parsing remote stats: %v", err)
			}
			if len(parsed.Caches.PerShard) != tc.shards {
				t.Errorf("per_shard has %d entries, want %d", len(parsed.Caches.PerShard), tc.shards)
			}
			if !parsed.Remote.Attached {
				t.Error("remote.attached = false on the distributed stack")
			}
			if parsed.Remote.Transport.BatchedCalls == 0 || parsed.Remote.Transport.CallsByOp["view_multi"] == 0 {
				t.Errorf("batched reads not counted: %+v", parsed.Remote.Transport)
			}
			if tc.cache {
				if !parsed.Remote.ViewCacheEnabled {
					t.Error("view_cache_enabled = false with RemoteViewCache set")
				}
				if parsed.Remote.ViewCache.Misses == 0 || parsed.Remote.ViewCache.Hits == 0 {
					t.Errorf("warm passes did not exercise the view cache: %+v", parsed.Remote.ViewCache)
				}
			}
		})
	}
}

// TestRemoteWorkerDeathDegradesOnlyItsShards kills one of two workers
// and pins the failure semantics: reads touching its shards answer
// 503 shard_unavailable with a Retry-After header (recommend, stream;
// batch carries the code per result), while groups wholly on the
// surviving worker's shards keep serving. Ingest stays available for
// every user — the rating is durable on the router and the live
// replicas before the dead owner's ack is missed, so answering an
// error would invite a double-counting retry; the miss is counted in
// stats instead. Run with -race.
func TestRemoteWorkerDeathDegradesOnlyItsShards(t *testing.T) {
	const shards = 4
	stack := startRemoteStack(t, shards, [][]int{{0, 2}, {1, 3}}, remote.ClientConfig{
		DialTimeout: 200 * time.Millisecond,
		Backoff:     time.Millisecond,
	}, nil)
	ts := serveHTTP(t, stack.router)

	deadShards := map[int]bool{0: true, 2: true}
	liveShards := map[int]bool{1: true, 3: true}
	deadGroup := groupJSON(groupOnShards(t, stack.router, shards, 2, deadShards))
	liveGroup := groupJSON(groupOnShards(t, stack.router, shards, 2, liveShards))

	stack.workers[0].Close() // SIGKILL stand-in: shards 0 and 2 go dark

	deadBody := fmt.Sprintf(`{"group":%s,"k":3,"num_items":120}`, deadGroup)
	status, data := postJSON(t, ts.URL+"/v1/recommend", deadBody)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("dead-shard recommend status = %d, body %s", status, data)
	}
	var errResp struct {
		Code string `json:"code"`
	}
	if err := json.Unmarshal(data, &errResp); err != nil || errResp.Code != "shard_unavailable" {
		t.Errorf("dead-shard recommend code = %q (%v), want shard_unavailable", errResp.Code, err)
	}
	resp, err := http.Post(ts.URL+"/v1/recommend", "application/json", strings.NewReader(deadBody))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After header")
	}
	resp.Body.Close()

	liveBody := fmt.Sprintf(`{"group":%s,"k":3,"num_items":120}`, liveGroup)
	if status, data := postJSON(t, ts.URL+"/v1/recommend", liveBody); status != http.StatusOK {
		t.Errorf("live-shard recommend status = %d, body %s", status, data)
	}

	// Batch: mixed requests answer per-result; the dead group's slot
	// carries the transport code, the live one its recommendation.
	batch := fmt.Sprintf(`{"requests":[%s,%s]}`, deadBody, liveBody)
	status, data = postJSON(t, ts.URL+"/v1/recommend/batch", batch)
	if status != http.StatusOK {
		t.Fatalf("batch status = %d, body %s", status, data)
	}
	var br struct {
		Results []struct {
			Code     string          `json:"code"`
			Response json.RawMessage `json:"response"`
		} `json:"results"`
	}
	if err := json.Unmarshal(data, &br); err != nil || len(br.Results) != 2 {
		t.Fatalf("batch response %s: %v", data, err)
	}
	if br.Results[0].Code != "shard_unavailable" {
		t.Errorf("batch dead slot code = %q, want shard_unavailable", br.Results[0].Code)
	}
	if br.Results[1].Response == nil || br.Results[1].Code != "" {
		t.Errorf("batch live slot = %+v, want a response", br.Results[1])
	}

	// Stream: the pre-frame failure path answers a plain 503.
	status, data = postJSON(t, ts.URL+"/v1/recommend/stream", deadBody)
	if status != http.StatusServiceUnavailable {
		t.Errorf("dead-shard stream status = %d, body %s", status, data)
	}

	// Ingest: a rating stays accepted whichever worker owns its user —
	// it is already durable on the router and the live replicas, and a
	// 503 here would invite a retry that double-counts it. The missed
	// fanout is observable, not silent: counted in stats, and the dead
	// worker's shards keep failing reads above.
	deadUser := groupOnShards(t, stack.router, shards, 1, deadShards)[0]
	liveUser := groupOnShards(t, stack.router, shards, 1, liveShards)[0]
	status, data = postJSON(t, ts.URL+"/v1/ratings",
		fmt.Sprintf(`{"user":%d,"item":1,"value":4,"time":978300001}`, deadUser))
	if status != http.StatusOK {
		t.Errorf("dead-owner ingest status = %d, body %s", status, data)
	}
	status, data = postJSON(t, ts.URL+"/v1/ratings",
		fmt.Sprintf(`{"user":%d,"item":1,"value":4,"time":978300002}`, liveUser))
	if status != http.StatusOK {
		t.Errorf("live-owner ingest status = %d, body %s", status, data)
	}

	// Stats stay serveable: dead shards appear as zero-valued entries,
	// and the missed fanout deliveries are counted.
	var stats struct {
		Ingest struct {
			FanoutMisses uint64 `json:"fanout_misses"`
		} `json:"ingest"`
	}
	if st := getJSON(t, ts.URL+"/v1/stats", &stats); st != http.StatusOK {
		t.Errorf("stats status = %d", st)
	}
	if stats.Ingest.FanoutMisses == 0 {
		t.Error("fanout_misses = 0 after ingesting past a dead worker")
	}
}

// flakyLog is a repro.RatingLog that refuses appends while failing is
// set — a journal on a full or failing disk.
type flakyLog struct {
	failing  atomic.Bool
	appended atomic.Int64
}

func (l *flakyLog) Append(dataset.Rating) error {
	if l.failing.Load() {
		return errors.New("journal: no space left on device")
	}
	l.appended.Add(1)
	return nil
}

// TestRemoteIngestFansOutWhenJournalFails is the regression for a router
// that skipped the worker fan-out when its journal refused the rating:
// the rating was already in the router's store, the apply sequence did
// not advance, the next rating was contiguous — so no gap, dedup or
// fence ever noticed the router running one rating ahead of every
// worker. The journal error must still reach the client, and every
// replica must hold the rating: responses after the failure (views come
// from the workers, candidates from the router) are byte-identical to a
// fresh world that ingested it, and stay so after the next rating.
func TestRemoteIngestFansOutWhenJournalFails(t *testing.T) {
	const shards = 4
	stack := startRemoteStack(t, shards, [][]int{{0, 2}, {1, 3}}, remote.ClientConfig{}, nil)
	journal := &flakyLog{}
	stack.router.SetRatingLog(journal)
	remoteTS := serveHTTP(t, stack.router)
	control, err := repro.NewWorld(remoteWorldConfig(shards))
	if err != nil {
		t.Fatalf("building control world: %v", err)
	}
	controlTS := serveHTTP(t, control)

	group := groupOnShards(t, stack.router, shards, 3, nil)
	bodies := []string{
		fmt.Sprintf(`{"group":%s,"k":5,"num_items":200}`, groupJSON(group)),
		fmt.Sprintf(`{"group":%s,"k":4,"num_items":150,"consensus":"MO"}`, groupJSON(group[:1])),
	}
	compare := func(stage string) {
		t.Helper()
		for _, body := range bodies {
			cs, want := postJSON(t, controlTS.URL+"/v1/recommend", body)
			rs, got := postJSON(t, remoteTS.URL+"/v1/recommend", body)
			if cs != http.StatusOK || rs != http.StatusOK {
				t.Fatalf("%s: status control %d router %d (%s / %s)", stage, cs, rs, want, got)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: router diverged from a world holding the same ratings for %s:\nrouter  %s\ncontrol %s", stage, body, got, want)
			}
		}
	}
	compare("before")

	// Each rating: a group member's most popular unrated item, so it
	// moves both the member's view (built on a worker) and the group's
	// candidates (selected on the router).
	ratingBy := func(u int64, n int) string {
		for _, it := range control.Ratings().PopularityRanked() {
			if !control.Ratings().HasRated(dataset.UserID(u), it) {
				return fmt.Sprintf(`{"user":%d,"item":%d,"value":5,"time":%d}`, u, it, 978300000+n)
			}
		}
		t.Fatalf("user %d has rated everything", u)
		return ""
	}

	journal.failing.Store(true)
	lost := ratingBy(group[0], 1)
	status, data := postJSON(t, remoteTS.URL+"/v1/ratings", lost)
	var errResp struct {
		Code string `json:"code"`
	}
	if err := json.Unmarshal(data, &errResp); status != http.StatusInternalServerError || err != nil || errResp.Code != "ingest_failed" {
		t.Fatalf("unjournaled ingest answered %d %s, want 500 ingest_failed", status, data)
	}
	if status, data := postJSON(t, controlTS.URL+"/v1/ratings", lost); status != http.StatusOK {
		t.Fatalf("control ingest status = %d, body %s", status, data)
	}
	compare("after the unjournaled rating")

	journal.failing.Store(false)
	next := ratingBy(group[1], 2)
	for _, ts := range []*httptest.Server{remoteTS, controlTS} {
		if status, data := postJSON(t, ts.URL+"/v1/ratings", next); status != http.StatusOK {
			t.Fatalf("journaled ingest status = %d, body %s", status, data)
		}
	}
	compare("after the next rating")

	if got := journal.appended.Load(); got != 1 {
		t.Errorf("journal holds %d ratings, want only the one it accepted", got)
	}
	if fenced := stack.set.Fenced(); len(fenced) != 0 || stack.router.RemoteFanoutMisses() != 0 {
		t.Errorf("fenced workers %v, %d fan-out misses; want every delivery made", fenced, stack.router.RemoteFanoutMisses())
	}
	if got := stack.set.TransportStats().CallsByOp["apply"]; got != 4 {
		t.Errorf("apply calls = %d, want 4 (two ratings to two workers)", got)
	}
}

// slowBackend delays the data-plane reads past the client's call
// deadline while leaving the handshake fast — a wedged worker, as
// opposed to a dead one.
type slowBackend struct {
	remote.Backend
	delay time.Duration
}

func (b slowBackend) ViewScores(u dataset.UserID) ([]float64, error) {
	time.Sleep(b.delay)
	return b.Backend.ViewScores(u)
}

func (b slowBackend) PredictBatch(u dataset.UserID, items []dataset.ItemID) ([]float64, error) {
	time.Sleep(b.delay)
	return b.Backend.PredictBatch(u, items)
}

// TestRemoteWorkerTimeoutAnswers504 pins the second transport code: a
// worker that stalls past the call deadline (while staying connected)
// answers 504 shard_timeout — distinct from 503, because retrying
// immediately will not help a wedged worker.
func TestRemoteWorkerTimeoutAnswers504(t *testing.T) {
	stack := startRemoteStack(t, 1, [][]int{{0}}, remote.ClientConfig{
		CallTimeout: 100 * time.Millisecond,
		Backoff:     time.Millisecond,
	}, func(b remote.Backend) remote.Backend {
		return slowBackend{Backend: b, delay: 400 * time.Millisecond}
	})
	ts := serveHTTP(t, stack.router)

	group := groupJSON(groupOnShards(t, stack.router, 1, 2, nil))
	body := fmt.Sprintf(`{"group":%s,"k":3,"num_items":120}`, group)
	status, data := postJSON(t, ts.URL+"/v1/recommend", body)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("recommend status = %d, body %s", status, data)
	}
	var errResp struct {
		Code string `json:"code"`
	}
	if err := json.Unmarshal(data, &errResp); err != nil || errResp.Code != "shard_timeout" {
		t.Errorf("code = %q (%v), want shard_timeout", errResp.Code, err)
	}
	if status, _ := postJSON(t, ts.URL+"/v1/recommend/stream", body); status != http.StatusGatewayTimeout {
		t.Errorf("stream status = %d, want 504", status)
	}
}

// TestStatsExposesRemoteTransportCounters pins the wire names of the
// /v1/stats remote section: operators alert on batched-call adoption,
// breaker opens, and view-cache hit rates, so the JSON keys are
// contract, not implementation detail.
func TestStatsExposesRemoteTransportCounters(t *testing.T) {
	stack := startRemoteStack(t, 1, [][]int{{0}}, remote.ClientConfig{}, nil,
		func(c *repro.Config) { c.RemoteViewCache = 64 })
	ts := serveHTTP(t, stack.router)

	group := groupJSON(groupOnShards(t, stack.router, 1, 2, nil))
	// Two recommends over the same group: the first fetches the members'
	// views into the router's store, the second serves them from it (the
	// bodies differ so no request-level dedup can short-circuit it).
	for _, n := range []int{120, 140} {
		body := fmt.Sprintf(`{"group":%s,"k":3,"num_items":%d}`, group, n)
		if status, data := postJSON(t, ts.URL+"/v1/recommend", body); status != http.StatusOK {
			t.Fatalf("recommend status = %d, body %s", status, data)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw struct {
		Remote map[string]json.RawMessage `json:"remote"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"attached", "transport", "view_cache_enabled", "view_cache"} {
		if _, ok := raw.Remote[key]; !ok {
			t.Errorf("remote lacks %q; keys: %v", key, keysOf(raw.Remote))
		}
	}
	var transport map[string]json.RawMessage
	if err := json.Unmarshal(raw.Remote["transport"], &transport); err != nil {
		t.Fatalf("remote.transport: %v", err)
	}
	for _, key := range []string{"calls_by_op", "batched_calls", "retries", "breaker_opens", "dials", "conn_reuses"} {
		if _, ok := transport[key]; !ok {
			t.Errorf("remote.transport lacks %q; keys: %v", key, keysOf(transport))
		}
	}
	var callsByOp map[string]uint64
	if err := json.Unmarshal(transport["calls_by_op"], &callsByOp); err != nil {
		t.Fatalf("remote.transport.calls_by_op: %v", err)
	}
	for _, op := range []string{"apply", "stats", "view_multi", "predict_multi"} {
		if _, ok := callsByOp[op]; !ok {
			t.Errorf("calls_by_op lacks %q; keys: %v", op, callsByOp)
		}
	}
	if len(callsByOp) != 4 {
		t.Errorf("calls_by_op reports ops beyond the 4 live ones: %v", callsByOp)
	}
	var viewCache map[string]json.RawMessage
	if err := json.Unmarshal(raw.Remote["view_cache"], &viewCache); err != nil {
		t.Fatalf("remote.view_cache: %v", err)
	}
	for _, key := range []string{"hits", "misses", "invalidations", "evictions", "size", "capacity"} {
		if _, ok := viewCache[key]; !ok {
			t.Errorf("remote.view_cache lacks %q; keys: %v", key, keysOf(viewCache))
		}
	}
	if len(viewCache) != 6 {
		t.Errorf("remote.view_cache reports keys beyond the 6 live ones (retained and patched are gone): %v", keysOf(viewCache))
	}

	// And the counters moved: the first recommend batched its view
	// fetch over the wire, the second hit the cache.
	var st statsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("stats status = %d", code)
	}
	if !st.Remote.Attached || !st.Remote.ViewCacheEnabled {
		t.Errorf("attached/enabled = %v/%v, want true/true", st.Remote.Attached, st.Remote.ViewCacheEnabled)
	}
	if st.Remote.Transport.CallsByOp["view_multi"] == 0 || st.Remote.Transport.BatchedCalls == 0 {
		t.Errorf("no batched view fetch counted: %+v", st.Remote.Transport)
	}
	if st.Remote.ViewCache.Misses == 0 || st.Remote.ViewCache.Hits == 0 {
		t.Errorf("view cache unused across two recommends: %+v", st.Remote.ViewCache)
	}
}

// TestRemoteStreamFramesMatchLocal drains both SSE streams frame by
// frame and compares the event sequence — progress cadence included —
// not just the concatenated bytes.
func TestRemoteStreamFramesMatchLocal(t *testing.T) {
	const shards = 4
	local, err := repro.NewWorld(remoteWorldConfig(shards))
	if err != nil {
		t.Fatal(err)
	}
	localTS := serveHTTP(t, local)
	stack := startRemoteStack(t, shards, [][]int{{0, 2}, {1, 3}}, remote.ClientConfig{}, nil)
	remoteTS := serveHTTP(t, stack.router)

	group := groupJSON(groupOnShards(t, stack.router, shards, 3, nil))
	body := fmt.Sprintf(`{"group":%s,"k":5,"num_items":400,"progress_every":2}`, group)
	readFrames := func(url string) []string {
		resp, err := http.Post(url+"/v1/recommend/stream", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("stream status %d", resp.StatusCode)
		}
		var frames []string
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			if line := sc.Text(); line != "" {
				frames = append(frames, line)
			}
		}
		return frames
	}
	lf, rf := readFrames(localTS.URL), readFrames(remoteTS.URL)
	if len(lf) == 0 {
		t.Fatal("no SSE lines")
	}
	if len(lf) != len(rf) {
		t.Fatalf("frame counts diverge: local %d, remote %d", len(lf), len(rf))
	}
	for i := range lf {
		if lf[i] != rf[i] {
			t.Errorf("frame %d diverges:\nlocal  %s\nremote %s", i, lf[i], rf[i])
		}
	}
}
