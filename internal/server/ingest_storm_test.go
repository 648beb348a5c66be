package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro"
	"repro/internal/dataset"
)

// stormRatings picks one deterministic new rating per writer: distinct
// (user, item) pairs, so the final store state is the same set however
// the concurrent POSTs interleave — which is what lets the test demand
// byte-identical responses from a cold rebuild afterwards.
func stormRatings(tb testing.TB, w *repro.World, n int) []dataset.Rating {
	tb.Helper()
	users := w.Participants()
	if len(users) < n {
		tb.Fatalf("world has %d participants, storm needs %d", len(users), n)
	}
	out := make([]dataset.Rating, 0, n)
	for _, u := range users {
		if len(out) == n {
			break
		}
		for _, it := range w.Ratings().UnratedPopular([]dataset.UserID{u}, 1) {
			out = append(out, dataset.Rating{User: u, Item: it, Value: 4, Time: 978300000 + int64(len(out))})
		}
	}
	if len(out) != n {
		tb.Fatalf("found %d storm ratings, want %d", len(out), n)
	}
	return out
}

// TestIngestStormServesColdIdenticalResponses is the CI smoke for
// ingest coherence: sustained POST /v1/ratings against concurrent POST
// /v1/recommend traffic (run under -race in CI), after which (1) the
// cache counters prove neighborhoods actually survived the storm —
// non-zero retained — while the ratings swept the views the readers kept
// rebuilding, and (2) every recommendation response is byte-identical to
// a server over a world rebuilt cold from the same final rating set.
func TestIngestStormServesColdIdenticalResponses(t *testing.T) {
	w := freshWorld(t)
	s := New(w, Config{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })

	const writers = 8
	extra := stormRatings(t, w, writers)
	// Reader groups: disjoint triples that still have a candidate pool
	// (the synthetic dataset has dense raters with nothing unrated).
	users := w.Participants()
	var groups []string
	for i := 0; i+3 <= len(users) && len(groups) < 4; i += 3 {
		grp := users[i : i+3]
		if len(w.CandidateItems(grp, 60)) < 10 {
			continue
		}
		groups = append(groups, fmt.Sprintf(`{"group":[%d,%d,%d],"k":5,"num_items":60}`, grp[0], grp[1], grp[2]))
	}
	if len(groups) < 4 {
		t.Fatalf("only %d viable reader groups in the test world", len(groups))
	}

	// Warm the serving caches, then storm: each writer posts its rating
	// while readers hammer the recommend groups.
	for _, body := range groups {
		if status, data := postJSON(t, ts.URL+"/v1/recommend", body); status != http.StatusOK {
			t.Fatalf("warm recommend status = %d, body %s", status, data)
		}
	}
	// Sustained, not one burst: writer i posts once reader i%readers has
	// answered i/readers+1 more requests, so every rating lands beside
	// live read traffic that has rebuilt some of what the ratings before
	// it dropped. Fired all at once, the eight ingests can finish before
	// the readers' first requests do, and whether anything is retained
	// then hangs on which rating happens to arrive first.
	const readers = 3
	var ticks [readers]chan struct{}
	for g := range ticks {
		ticks[g] = make(chan struct{}, 10) // one per reader request: a reader never blocks on it
	}
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		r := extra[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n <= i/readers; n++ {
				<-ticks[i%readers]
			}
			body := fmt.Sprintf(`{"user":%d,"item":%d,"value":%g,"time":%d}`, r.User, r.Item, r.Value, r.Time)
			if status, data := postJSON(t, ts.URL+"/v1/ratings", body); status != http.StatusOK {
				t.Errorf("storm ingest status = %d, body %s", status, data)
			}
		}()
	}
	for g := 0; g < readers; g++ {
		body := groups[g]
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(ticks[g]) // a reader that gave up must not strand its writers
			for i := 0; i < 10; i++ {
				if status, data := postJSON(t, ts.URL+"/v1/recommend", body); status != http.StatusOK {
					t.Errorf("storm recommend status = %d, body %s", status, data)
					return
				}
				ticks[g] <- struct{}{}
			}
		}()
	}
	wg.Wait()

	// The scheme's point, observable over the wire: the storm left
	// neighborhoods standing (drop-everything invalidation zeroes that),
	// and dropped views — which the byte comparison below holds to the
	// post-storm state.
	var st statsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("stats status = %d", code)
	}
	if st.Caches.Neighborhoods.Retained == 0 {
		t.Errorf("storm retained no neighborhoods: %+v", st.Caches.Neighborhoods)
	}
	if st.Caches.ListStore.Invalidations == 0 {
		t.Errorf("storm ratings swept no sorted views: %+v", st.Caches.ListStore)
	}
	if st.Ingest.Store.Applied != writers {
		t.Errorf("store applied %d ratings, want %d", st.Ingest.Store.Applied, writers)
	}

	// Cold control: a fresh world over the same config plus the same
	// rating set (QuickConfig synthesis is deterministic), served by a
	// fresh server. Every group's response must match byte for byte.
	cold := freshWorld(t)
	for _, r := range extra {
		if err := cold.AddRating(r); err != nil {
			t.Fatalf("cold AddRating(%+v): %v", r, err)
		}
	}
	cs := New(cold, Config{})
	cts := httptest.NewServer(cs.Handler())
	t.Cleanup(func() { cts.Close(); cs.Close() })
	for _, body := range groups {
		status, want := postJSON(t, cts.URL+"/v1/recommend", body)
		if status != http.StatusOK {
			t.Fatalf("cold recommend status = %d, body %s", status, want)
		}
		status, got := postJSON(t, ts.URL+"/v1/recommend", body)
		if status != http.StatusOK {
			t.Fatalf("post-storm recommend status = %d, body %s", status, got)
		}
		if string(got) != string(want) {
			t.Errorf("post-storm response diverged from cold rebuild\n got %s\nwant %s", got, want)
		}
	}
}

// TestStatsExposesInvalidationCounters pins the wire names of the
// ingest invalidation counters: operators alert on these, so the JSON
// keys are contract, not implementation detail.
func TestStatsExposesInvalidationCounters(t *testing.T) {
	w := freshWorld(t)
	s := New(w, Config{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })

	u := int(w.Participants()[0])
	body := fmt.Sprintf(`{"group":[%d],"k":3,"num_items":40}`, u)
	if status, data := postJSON(t, ts.URL+"/v1/recommend", body); status != http.StatusOK {
		t.Fatalf("recommend status = %d, body %s", status, data)
	}
	if status, data := postJSON(t, ts.URL+"/v1/ratings",
		fmt.Sprintf(`{"user":%d,"item":3,"value":4,"time":978300000}`, u)); status != http.StatusOK {
		t.Fatalf("ingest status = %d, body %s", status, data)
	}

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw struct {
		Caches struct {
			Neighborhoods map[string]json.RawMessage `json:"neighborhoods"`
			ListStore     map[string]json.RawMessage `json:"list_store"`
		} `json:"caches"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		field string
		m     map[string]json.RawMessage
		keys  []string
	}{
		{"neighborhoods", raw.Caches.Neighborhoods, []string{"invalidated", "retained"}},
		{"list_store", raw.Caches.ListStore, []string{"invalidations"}},
	} {
		for _, key := range c.keys {
			if _, ok := c.m[key]; !ok {
				t.Errorf("caches.%s lacks the %q counter; keys: %v", c.field, key, keysOf(c.m))
			}
		}
	}
	// The ingest by a group member invalidated its own neighborhood.
	var st statsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("stats status = %d", code)
	}
	if st.Caches.Neighborhoods.Invalidated == 0 {
		t.Errorf("rater's own neighborhood was not invalidated: %+v", st.Caches.Neighborhoods)
	}
}

func keysOf(m map[string]json.RawMessage) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
