package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
)

// newTestServer builds a Server plus httptest listener over the shared
// world. Each test gets its own Server so coalescer counters start at
// zero; the expensive world is shared.
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

	for _, bad := range []string{`{"requests":[]}`, `{}`, `[1,2]`, `{"requests":`} {
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
// moves the coalescer counters and the engine cache counters.
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
	if st.Coalescer.Windows == 0 || st.Coalescer.Windows > 3 {
		t.Errorf("coalescer.windows = %d, want 1..3", st.Coalescer.Windows)
	}
	if !st.Caches.RowCacheEnabled {
		t.Error("row cache should be enabled in the default config")
	}
	if !st.Caches.ListStoreEnabled {
		t.Error("sorted-list store should be enabled in the default config")
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

// TestServeBurstCoalesces is the subsystem's acceptance test: a burst
// of K concurrent POST /recommend calls must be served in fewer than K
// RecommendBatch dispatches — coalescing observable via /stats — with
// every response identical to the sequential path.
func TestServeBurstCoalesces(t *testing.T) {
	w := testWorld(t)
	const burst = 8
	// A wide window (relative to test scheduling jitter) and a batch
	// bound equal to the burst: the window closes by size as soon as
	// all callers arrive.
	_, ts := newTestServer(t, Config{Window: 250 * time.Millisecond, MaxBatch: burst})
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
	if st.Coalescer.Requests != burst {
		t.Fatalf("coalescer.requests = %d, want %d", st.Coalescer.Requests, burst)
	}
	if st.Coalescer.Windows >= burst {
		t.Errorf("burst of %d requests took %d dispatches; coalescing had no effect (%+v)",
			burst, st.Coalescer.Windows, st.Coalescer)
	}
	if st.Coalescer.MaxWindowSize < 2 {
		t.Errorf("max window size %d: no two requests ever shared a window", st.Coalescer.MaxWindowSize)
	}
}

// TestServeMaxWait is the end-to-end per-request latency budget test:
// inside a window far beyond test patience, a request carrying
// max_wait_ms must come back quickly with a full result.
func TestServeMaxWait(t *testing.T) {
	w := testWorld(t)
	_, ts := newTestServer(t, Config{Window: time.Hour})
	group := w.Participants()[:2]
	body := fmt.Sprintf(`{"group":[%d,%d],"k":3,"num_items":100,"max_wait_ms":25}`, group[0], group[1])

	start := time.Now()
	status, data := postJSON(t, ts.URL+"/v1/recommend", body)
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, data)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("capped request took %v inside an hour-long window", elapsed)
	}
	var resp recommendResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	if len(resp.Items) != 3 {
		t.Errorf("items = %d, want 3", len(resp.Items))
	}

	// A negative budget is a client error.
	status, _ = postJSON(t, ts.URL+"/v1/recommend",
		fmt.Sprintf(`{"group":[%d],"max_wait_ms":-1}`, group[0]))
	if status != http.StatusBadRequest {
		t.Errorf("negative max_wait_ms: status = %d, want 400", status)
	}
}

// TestServeShedsWith429 is the end-to-end load-shedding test: with one
// caller parked and MaxPending 1, the next request is shed with 429
// and a Retry-After derived from the window.
func TestServeShedsWith429(t *testing.T) {
	w := testWorld(t)
	s, ts := newTestServer(t, Config{Window: 600 * time.Millisecond, MaxPending: 1})
	group := w.Participants()[:2]
	body := fmt.Sprintf(`{"group":[%d,%d],"k":3,"num_items":100}`, group[0], group[1])

	parked := make(chan int, 1)
	go func() {
		status, _ := postJSON(t, ts.URL+"/v1/recommend", body)
		parked <- status
	}()
	deadline := time.Now().Add(30 * time.Second)
	for s.co.Stats().Parked != 1 {
		if time.Now().After(deadline) {
			t.Fatal("first request never parked")
		}
		time.Sleep(time.Millisecond)
	}

	resp, err := http.Post(ts.URL+"/v1/recommend", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("shed POST: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After = %q, want %q (600ms window rounded up)", got, "1")
	}
	if st := s.co.Stats(); st.Shed != 1 {
		t.Errorf("shed counter = %d, want 1", st.Shed)
	}

	// The parked caller is unaffected: it completes when its window
	// fires.
	if status := <-parked; status != http.StatusOK {
		t.Errorf("parked request finished with %d, want 200", status)
	}
}

// TestServeGracefulShutdown parks a burst in a long window, closes the
// server mid-flight, and asserts every parked request drains with a
// real response while post-drain requests get 503s.
func TestServeGracefulShutdown(t *testing.T) {
	w := testWorld(t)
	const parked = 4
	// Nothing but drain can cut this window: hour-long budget, large
	// bound.
	s, ts := newTestServer(t, Config{Window: time.Hour, MaxBatch: 64})
	group := w.Participants()[:2]
	body := fmt.Sprintf(`{"group":[%d,%d],"k":3,"num_items":100}`, group[0], group[1])

	var wg sync.WaitGroup
	statuses := make([]int, parked)
	for i := 0; i < parked; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			statuses[i], _ = postJSON(t, ts.URL+"/v1/recommend", body)
		}(i)
	}
	// Wait for all requests to be parked in the window, then drain.
	deadline := time.Now().Add(10 * time.Second)
	for s.co.Stats().Pending != parked {
		if time.Now().After(deadline) {
			t.Fatalf("requests never parked: %+v", s.co.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	s.Close()
	wg.Wait()

	for i, status := range statuses {
		if status != http.StatusOK {
			t.Errorf("parked request %d: status %d, want 200 (drain must serve parked callers)", i, status)
		}
	}
	if st := s.co.Stats(); st.DrainCloses != 1 {
		t.Errorf("drain closes = %d, want 1 (%+v)", st.DrainCloses, st)
	}
	if status, _ := postJSON(t, ts.URL+"/v1/recommend", body); status != http.StatusServiceUnavailable {
		t.Errorf("post-drain request: status %d, want 503", status)
	}
}
