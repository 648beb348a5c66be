package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/dataset"
)

// newTestServer builds a Server plus httptest listener over the shared
// world. Each test gets its own Server so its counters start at zero;
// the expensive world is shared.
func newTestServer(tb testing.TB, cfg Config) (*Server, *httptest.Server) {
	tb.Helper()
	s := New(testWorld(tb), cfg)
	ts := httptest.NewServer(s.Handler())
	tb.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postJSON(tb testing.TB, url, body string) (int, []byte) {
	tb.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		tb.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		tb.Fatalf("reading response: %v", err)
	}
	return resp.StatusCode, data
}

func getJSON(tb testing.TB, url string, into any) int {
	tb.Helper()
	resp, err := http.Get(url)
	if err != nil {
		tb.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		tb.Fatalf("reading response: %v", err)
	}
	if into != nil {
		if err := json.Unmarshal(data, into); err != nil {
			tb.Fatalf("decoding %s response %q: %v", url, data, err)
		}
	}
	return resp.StatusCode
}

// TestServeRecommend round-trips one request through HTTP and asserts
// the wire response carries exactly the direct Recommend result.
func TestServeRecommend(t *testing.T) {
	w := testWorld(t)
	_, ts := newTestServer(t, Config{})
	group := w.Participants()[:3]

	body := fmt.Sprintf(`{"group":[%d,%d,%d],"k":4,"num_items":120}`, group[0], group[1], group[2])
	status, data := postJSON(t, ts.URL+"/v1/recommend", body)
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, data)
	}
	var got recommendResponse
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("decoding response %q: %v", data, err)
	}

	want, err := w.Recommend(group, repro.Options{K: 4, NumItems: 120})
	if err != nil {
		t.Fatalf("direct recommend: %v", err)
	}
	if len(got.Items) != len(want.Items) {
		t.Fatalf("got %d items, want %d", len(got.Items), len(want.Items))
	}
	for i, it := range want.Items {
		if got.Items[i].Item != int(it.Item) || got.Items[i].Score != it.Score {
			t.Errorf("item %d: got (%d, %v), want (%d, %v)",
				i, got.Items[i].Item, got.Items[i].Score, it.Item, it.Score)
		}
	}
	if got.Period != want.Period+1 {
		t.Errorf("period = %d, want %d", got.Period, want.Period+1)
	}
	if got.TotalEntries != want.Stats.TotalEntries {
		t.Errorf("total_entries = %d, want %d", got.TotalEntries, want.Stats.TotalEntries)
	}
}

// TestServeRecommendBadRequests maps every client-shaped failure to a
// 400 (or 405 for a bad method) — never a 500.
func TestServeRecommendBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	cases := []struct {
		name string
		body string
	}{
		{"malformed json", `{"group": [1,2`},
		{"not json", `hello`},
		{"empty body", ``},
		{"trailing garbage", `{"group":[1]} trailing`},
		{"unknown field", `{"group":[1],"kk":3}`},
		{"retired max_wait_ms", `{"group":[1],"max_wait_ms":3}`},
		{"empty group", `{"group":[]}`},
		{"missing group", `{"k":3}`},
		{"negative k", `{"group":[1],"k":-1}`},
		{"negative num_items", `{"group":[1],"num_items":-5}`},
		{"negative period", `{"group":[1],"period":-2}`},
		{"negative user", `{"group":[-4]}`},
		{"unknown user", `{"group":[99999]}`},
		{"duplicate member", `{"group":[1,1]}`},
		{"bad consensus", `{"group":[1],"consensus":"XX"}`},
		{"bad model", `{"group":[1],"model":"cubic"}`},
		{"fractional k", `{"group":[1],"k":1.5}`},
		{"period out of range", `{"group":[1],"period":99}`},
		{"k exceeds candidates", `{"group":[1],"k":50,"num_items":10}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, data := postJSON(t, ts.URL+"/v1/recommend", tc.body)
			if status != http.StatusBadRequest {
				t.Errorf("status = %d, want 400 (body %s)", status, data)
			}
			var e errorResponse
			if err := json.Unmarshal(data, &e); err != nil || e.Error == "" {
				t.Errorf("error body %q is not an error response", data)
			}
		})
	}

	resp, err := http.Get(ts.URL + "/v1/recommend")
	if err != nil {
		t.Fatalf("GET /recommend: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /recommend status = %d, want 405", resp.StatusCode)
	}
}

// TestServeBatch exercises POST /recommend/batch: valid requests
// dispatch together, invalid ones come back as per-result errors, and
// results match the direct path.
func TestServeBatch(t *testing.T) {
	w := testWorld(t)
	s, ts := newTestServer(t, Config{})
	parts := w.Participants()

	body := fmt.Sprintf(`{"requests":[
		{"group":[%d,%d],"k":3,"num_items":100},
		{"group":[99999]},
		{"group":[%d,%d,%d],"k":2,"num_items":80,"model":"static"}
	]}`, parts[0], parts[1], parts[2], parts[3], parts[4])
	status, data := postJSON(t, ts.URL+"/v1/recommend/batch", body)
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, data)
	}
	var got batchResponse
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	if len(got.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(got.Results))
	}
	if got.Results[0].Response == nil || got.Results[0].Error != "" {
		t.Errorf("result 0 should have succeeded: %+v", got.Results[0])
	}
	if got.Results[1].Response != nil || !strings.Contains(got.Results[1].Error, "unknown user") {
		t.Errorf("result 1 should be an unknown-user error: %+v", got.Results[1])
	}
	if got.Results[2].Response == nil {
		t.Errorf("result 2 should have succeeded: %+v", got.Results[2])
	}

	want, err := w.Recommend(parts[:2], repro.Options{K: 3, NumItems: 100})
	if err != nil {
		t.Fatalf("direct recommend: %v", err)
	}
	if n := len(got.Results[0].Response.Items); n != len(want.Items) {
		t.Fatalf("result 0: %d items, want %d", n, len(want.Items))
	}
	for i, it := range want.Items {
		if got.Results[0].Response.Items[i].Score != it.Score {
			t.Errorf("result 0 item %d: score %v, want %v", i, got.Results[0].Response.Items[i].Score, it.Score)
		}
	}

	if s.batchCalls.Load() != 1 || s.batchRequests.Load() != 2 {
		t.Errorf("batch counters = (%d calls, %d requests), want (1, 2)",
			s.batchCalls.Load(), s.batchRequests.Load())
	}

	for _, bad := range []string{`{"requests":[]}`, `{}`, `[1,2]`, `{"requests":`, `{"requests":[{"group":[1]}]} trailing`} {
		if status, _ := postJSON(t, ts.URL+"/v1/recommend/batch", bad); status != http.StatusBadRequest {
			t.Errorf("batch body %q: status = %d, want 400", bad, status)
		}
	}
}

// TestServeHealthz checks liveness.
func TestServeHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var health struct {
		Status string `json:"status"`
	}
	if status := getJSON(t, ts.URL+"/v1/healthz", &health); status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	if health.Status != "ok" {
		t.Errorf("status field = %q, want ok", health.Status)
	}
}

// TestServeStats checks the observability surface end to end: traffic
// moves the admission counters and the engine cache counters.
func TestServeStats(t *testing.T) {
	w := testWorld(t)
	_, ts := newTestServer(t, Config{})
	group := w.Participants()[:2]
	body := fmt.Sprintf(`{"group":[%d,%d],"k":3,"num_items":100}`, group[0], group[1])

	for i := 0; i < 3; i++ {
		if status, data := postJSON(t, ts.URL+"/v1/recommend", body); status != http.StatusOK {
			t.Fatalf("priming request %d: status %d, body %s", i, status, data)
		}
	}

	var st statsResponse
	if status := getJSON(t, ts.URL+"/v1/stats", &st); status != http.StatusOK {
		t.Fatalf("stats status = %d", status)
	}
	if st.Coalescer.Requests != 3 {
		t.Errorf("coalescer.requests = %d, want 3", st.Coalescer.Requests)
	}
	if st.Coalescer.Parked != 0 || st.Coalescer.Shed != 0 {
		t.Errorf("coalescer = %+v, want nothing parked or shed at rest", st.Coalescer)
	}
	// Identical repeated requests are served from the sorted-list
	// store: views materialize once per member, then merge into every
	// subsequent problem. (The world is shared across the package's
	// tests, so only presence is asserted, not exact counts.)
	if st.Caches.ListStore.ViewBuilds == 0 {
		t.Errorf("no views built after traffic: %+v", st.Caches.ListStore)
	}
	if st.Caches.ListStore.ViewHits == 0 {
		t.Errorf("list store hits = 0 after repeated identical traffic: %+v", st.Caches.ListStore)
	}
	if st.Caches.Neighborhoods.Size == 0 {
		t.Errorf("no neighborhoods cached after traffic: %+v", st.Caches.Neighborhoods)
	}
	if st.World.Participants == 0 || st.World.Users == 0 {
		t.Errorf("world stats empty: %+v", st.World)
	}
}

// TestStatsServesBenchContract pins the /v1/stats paths bench/snapshot.go
// decodes, so a stats-shape break fails here and not only in the
// separate bench/ module (a path that goes missing decodes there as a
// silent zero). It also pins what the document no longer carries.
func TestStatsServesBenchContract(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var body json.RawMessage
	if status := getJSON(t, ts.URL+"/v1/stats", &body); status != http.StatusOK {
		t.Fatalf("stats status = %d", status)
	}
	var doc map[string]any
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("decoding /v1/stats: %v", err)
	}
	for _, path := range []string{
		"coalescer.requests", "coalescer.shed",
		"caches.list_store.view_hits", "caches.list_store.view_builds",
		"caches.list_store.invalidations", "caches.list_store.evictions",
		"caches.list_store.size",
		"caches.neighborhoods.hits", "caches.neighborhoods.misses", "caches.neighborhoods.size",
		"caches.neighborhoods.invalidated", "caches.neighborhoods.retained",
		"ingest.posts", "ingest.store.pending",
		"remote.transport.calls_by_op", "remote.transport.retries", "remote.transport.breaker_opens",
		"remote.transport.dials", "remote.transport.conn_reuses",
		"remote.view_cache.hits",
	} {
		if !statsHasPath(doc, path) {
			t.Errorf("/v1/stats lacks %q (bench/snapshot.go decodes it)", path)
		}
	}
	for _, gone := range []string{`"row_cache"`, `"row_cache_enabled"`, `"map_hits"`, `"map_misses"`} {
		if bytes.Contains(body, []byte(gone)) {
			t.Errorf("/v1/stats still carries %s", gone)
		}
	}
	// Gone by path, not by key: "retained" lives on under
	// caches.neighborhoods. bench/snapshot.go still decodes these (it is
	// frozen) and reads them as 0 from now on.
	for _, gone := range []string{
		"caches.list_store.retained", "caches.list_store.patched",
		"caches.list_store.patch_items",
		"caches.shards", "caches.per_shard",
		"remote.view_cache.retained", "remote.view_cache.patched",
		"remote.transport.calls_by_op.invalidate",
		"remote.transport.calls_by_op.predict_multi", "remote.transport.batched_calls",
		"caches.recheck_pool",
		"ingest.store.folds", "ingest.store.folded",
	} {
		if statsHasPath(doc, gone) {
			t.Errorf("/v1/stats still carries %q", gone)
		}
	}
}

// statsHasPath walks a dotted path through a decoded JSON document; a
// numeric segment indexes an array.
func statsHasPath(doc any, path string) bool {
	at := doc
	for _, key := range strings.Split(path, ".") {
		switch node := at.(type) {
		case map[string]any:
			next, ok := node[key]
			if !ok {
				return false
			}
			at = next
		case []any:
			i, err := strconv.Atoi(key)
			if err != nil || i < 0 || i >= len(node) {
				return false
			}
			at = node[i]
		default:
			return false
		}
	}
	return true
}

// TestServeBurstMatchesSequential fires a burst of concurrent identical
// POST /recommend calls — each runs on its own handler goroutine — and
// requires every response to be byte-identical to the sequential path.
func TestServeBurstMatchesSequential(t *testing.T) {
	w := testWorld(t)
	const burst = 8
	_, ts := newTestServer(t, Config{})
	group := w.Participants()[1:4]
	body := fmt.Sprintf(`{"group":[%d,%d,%d],"k":3,"num_items":100}`, group[0], group[1], group[2])

	want, err := w.Recommend(group, repro.Options{K: 3, NumItems: 100})
	if err != nil {
		t.Fatalf("direct recommend: %v", err)
	}
	wantWire, err := json.Marshal(toResponse(want))
	if err != nil {
		t.Fatalf("encoding want: %v", err)
	}

	var wg sync.WaitGroup
	responses := make([][]byte, burst)
	statuses := make([]int, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			statuses[i], responses[i] = postJSON(t, ts.URL+"/v1/recommend", body)
		}(i)
	}
	wg.Wait()

	for i := 0; i < burst; i++ {
		if statuses[i] != http.StatusOK {
			t.Fatalf("burst request %d: status %d, body %s", i, statuses[i], responses[i])
		}
		if !bytes.Equal(bytes.TrimSpace(responses[i]), wantWire) {
			t.Errorf("burst request %d diverged from sequential path:\n got %s\nwant %s",
				i, responses[i], wantWire)
		}
	}

	var st statsResponse
	if status := getJSON(t, ts.URL+"/v1/stats", &st); status != http.StatusOK {
		t.Fatalf("stats status = %d", status)
	}
	if st.Coalescer.Requests != burst || st.Coalescer.Parked != 0 {
		t.Fatalf("coalescer = %+v, want %d requests, 0 parked", st.Coalescer, burst)
	}
}

// holdRequests swaps the server's serve func for one that parks every
// admitted /recommend request until the returned release func is
// called, then serves it for real — in-flight requests on demand.
func holdRequests(s *Server) (release func()) {
	hold := make(chan struct{})
	real := s.co.serve
	s.co.serve = func(ctx context.Context, group []dataset.UserID, opt repro.Options) (*repro.Recommendation, error) {
		<-hold
		return real(ctx, group, opt)
	}
	return func() { close(hold) }
}

// TestServeShedsWith429 is the end-to-end load-shedding test: with one
// request in flight and MaxPending 1, the next is shed with 429 and
// Retry-After, and the in-flight one is unaffected.
func TestServeShedsWith429(t *testing.T) {
	w := testWorld(t)
	s, ts := newTestServer(t, Config{MaxPending: 1})
	release := holdRequests(s)
	group := w.Participants()[:2]
	body := fmt.Sprintf(`{"group":[%d,%d],"k":3,"num_items":100}`, group[0], group[1])

	inFlight := make(chan int, 1)
	go func() {
		status, _ := postJSON(t, ts.URL+"/v1/recommend", body)
		inFlight <- status
	}()
	waitParked(t, s.co, 1)

	resp, err := http.Post(ts.URL+"/v1/recommend", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("shed POST: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After = %q, want %q", got, "1")
	}
	if st := s.co.Stats(); st.Shed != 1 {
		t.Errorf("shed counter = %d, want 1", st.Shed)
	}

	release()
	if status := <-inFlight; status != http.StatusOK {
		t.Errorf("in-flight request finished with %d, want 200", status)
	}
}

// TestServeGracefulShutdown holds a burst in flight, closes the server
// under it, and asserts every admitted request finishes with a real
// response while post-drain requests get 503s.
func TestServeGracefulShutdown(t *testing.T) {
	w := testWorld(t)
	const inFlight = 4
	s, ts := newTestServer(t, Config{})
	release := holdRequests(s)
	group := w.Participants()[:2]
	body := fmt.Sprintf(`{"group":[%d,%d],"k":3,"num_items":100}`, group[0], group[1])

	var wg sync.WaitGroup
	statuses := make([]int, inFlight)
	for i := 0; i < inFlight; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			statuses[i], _ = postJSON(t, ts.URL+"/v1/recommend", body)
		}(i)
	}
	waitParked(t, s.co, inFlight)
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	release()
	<-closed
	wg.Wait()

	for i, status := range statuses {
		if status != http.StatusOK {
			t.Errorf("in-flight request %d: status %d, want 200 (drain must serve admitted callers)", i, status)
		}
	}
	if status, _ := postJSON(t, ts.URL+"/v1/recommend", body); status != http.StatusServiceUnavailable {
		t.Errorf("post-drain request: status %d, want 503", status)
	}
	if status, _ := postJSON(t, ts.URL+"/v1/recommend/stream", body); status != http.StatusServiceUnavailable {
		t.Errorf("post-drain stream: status %d, want 503", status)
	}
}

// TestServeRequestContextReachesRun pins the request's own context
// reaching the run: when it is cancelled mid-request (a disconnect, a
// deadline) the serve func sees it and stops, the handler answers 408,
// and the in-flight slot is released.
func TestServeRequestContextReachesRun(t *testing.T) {
	w := testWorld(t)
	s, _ := newTestServer(t, Config{})
	s.co.serve = func(ctx context.Context, _ []dataset.UserID, _ repro.Options) (*repro.Recommendation, error) {
		<-ctx.Done() // a run that only the request's context can stop
		return nil, ctx.Err()
	}
	group := w.Participants()[:2]
	body := fmt.Sprintf(`{"group":[%d,%d],"k":3,"num_items":100}`, group[0], group[1])

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/recommend", strings.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Handler().ServeHTTP(rec, req)
	}()
	waitParked(t, s.co, 1)
	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("the run never saw the request's cancellation")
	}
	var e errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &e); rec.Code != http.StatusRequestTimeout || err != nil || e.Code != "timeout" {
		t.Errorf("cancelled request answered %d %s, want 408 timeout", rec.Code, rec.Body)
	}
	if st := s.co.Stats(); st.Parked != 0 {
		t.Errorf("parked = %d after the cancelled request, want 0", st.Parked)
	}
}
