package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro"
)

// freshWorld builds a private world for tests that mutate it via
// ingest — the package-shared testWorld must stay frozen.
func freshWorld(tb testing.TB) *repro.World {
	tb.Helper()
	cfg := repro.QuickConfig()
	cfg.Dataset.Users = 80
	cfg.Dataset.TargetRatings = 4_000
	cfg.Dataset.Items = 300
	w, err := repro.NewWorld(cfg)
	if err != nil {
		tb.Fatalf("building ingest test world: %v", err)
	}
	return w
}

// TestServeRatingsIngest round-trips a rating through POST /v1/ratings
// and checks the rejection codes and the /v1/stats ingest counters.
func TestServeRatingsIngest(t *testing.T) {
	w := freshWorld(t)
	s := New(w, Config{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })

	u := int(w.Participants()[0])
	status, data := postJSON(t, ts.URL+"/v1/ratings",
		fmt.Sprintf(`{"user":%d,"item":3,"value":4.5,"time":978300000}`, u))
	if status != http.StatusOK {
		t.Fatalf("ingest status = %d, body %s", status, data)
	}
	var ack ratingResponse
	if err := json.Unmarshal(data, &ack); err != nil {
		t.Fatalf("decoding ack %q: %v", data, err)
	}
	if !ack.Applied {
		t.Errorf("ack = %+v, want applied", ack)
	}
	if want := `{"applied":true}`; strings.TrimSpace(string(data)) != want {
		t.Errorf("ack body = %s, want %s", data, want)
	}

	rejects := []struct {
		body string
		code string
	}{
		{fmt.Sprintf(`{"user":%d,"item":3,"value":9}`, u), "bad_rating"},
		{`{"user":99999,"item":3,"value":4}`, "unknown_user"},
		{fmt.Sprintf(`{"user":%d,"item":99999,"value":4}`, u), "unknown_item"},
		{`{"user":1,"item":3,"value":4,"bogus":true}`, "bad_rating"},
		{`{"user":-1,"item":3,"value":4}`, "bad_rating"},
	}
	for _, rc := range rejects {
		status, data := postJSON(t, ts.URL+"/v1/ratings", rc.body)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (body %s)", rc.body, status, data)
			continue
		}
		var e errorResponse
		if err := json.Unmarshal(data, &e); err != nil {
			t.Fatalf("decoding error %q: %v", data, err)
		}
		if e.Code != rc.code {
			t.Errorf("%s: code = %q, want %q", rc.body, e.Code, rc.code)
		}
	}

	// GET on the route answers 405 with Allow, like every POST route.
	resp, err := http.Get(ts.URL + "/v1/ratings")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != http.MethodPost {
		t.Errorf("GET /v1/ratings = %d (Allow %q), want 405 with Allow POST",
			resp.StatusCode, resp.Header.Get("Allow"))
	}

	var st statsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("stats status = %d", code)
	}
	if st.Ingest.Posts != 1 || st.Ingest.Rejects != uint64(len(rejects)) {
		t.Errorf("ingest counters = %d posts / %d rejects, want 1 / %d",
			st.Ingest.Posts, st.Ingest.Rejects, len(rejects))
	}
	if st.Ingest.Store.Pending != 0 || st.Ingest.Store.Applied != 1 {
		t.Errorf("store counters = %+v, want 0 pending / 1 applied", st.Ingest.Store)
	}
	if st.Persistence != nil {
		t.Errorf("persistence = %+v, want absent without a snapshot dir", st.Persistence)
	}

	// The ingested rating reaches the engine: the legacy alias serves
	// the same route, and a recommendation still computes cleanly.
	status, data = postJSON(t, ts.URL+"/v1/ratings",
		fmt.Sprintf(`{"user":%d,"item":4,"value":3}`, u))
	if status != http.StatusOK {
		t.Fatalf("legacy alias status = %d, body %s", status, data)
	}
	body := fmt.Sprintf(`{"group":[%d],"k":3,"num_items":50}`, u)
	if status, data := postJSON(t, ts.URL+"/v1/recommend", body); status != http.StatusOK {
		t.Fatalf("post-ingest recommend status = %d, body %s", status, data)
	}
}

// TestStatsReportsPersistence checks the boot report plumbs through to
// /v1/stats when the process runs with a snapshot directory, and that
// no cache counts a restore: a snapshot holds the ratings only.
func TestStatsReportsPersistence(t *testing.T) {
	open := &repro.OpenStats{Warm: true, ReplayedRatings: 7}
	_, ts := newTestServer(t, Config{OpenStats: open})
	var st statsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("stats status = %d", code)
	}
	if st.Persistence == nil || !st.Persistence.Warm || st.Persistence.ReplayedRatings != 7 {
		t.Errorf("persistence = %+v, want the configured boot report", st.Persistence)
	}

	var raw struct {
		Caches struct {
			ListStore map[string]json.RawMessage `json:"list_store"`
		} `json:"caches"`
		Persistence map[string]json.RawMessage `json:"persistence"`
	}
	getJSON(t, ts.URL+"/v1/stats", &raw)
	for section, keys := range map[string]map[string]json.RawMessage{
		"caches.list_store": raw.Caches.ListStore,
		"persistence":       raw.Persistence,
	} {
		for _, gone := range []string{"warm_loads", "warm_views", "warm_neighborhoods"} {
			if _, ok := keys[gone]; ok {
				t.Errorf("/v1/stats %s carries %q", section, gone)
			}
		}
	}
	if len(raw.Caches.ListStore) == 0 || len(raw.Persistence) == 0 {
		t.Errorf("stats sections missing: list_store %v, persistence %v", raw.Caches.ListStore, raw.Persistence)
	}
}

// TestServeRatingsBodyBound checks the ingest route honors the shared
// body-size bound instead of buffering unbounded payloads.
func TestServeRatingsBodyBound(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	huge := `{"user":1,"item":3,"value":4,"time":` + strings.Repeat("1", maxBodyBytes) + `}`
	status, _ := postJSON(t, ts.URL+"/v1/ratings", huge)
	if status != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body status = %d, want 413", status)
	}
}
