package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro"
)

// TestEpsilonWireValidation: negative epsilon is a 400 with a code,
// never a silently clamped run.
func TestEpsilonWireValidation(t *testing.T) {
	w := testWorld(t)
	_, ts := newTestServer(t, Config{})
	g := w.Participants()[0]
	for _, route := range []string{"/v1/recommend", "/v1/recommend/stream"} {
		body := fmt.Sprintf(`{"group":[%d],"k":3,"num_items":60,"epsilon":-0.1}`, g)
		status, data := postJSON(t, ts.URL+route, body)
		if status != http.StatusBadRequest {
			t.Errorf("%s with negative epsilon = %d (%s), want 400", route, status, data)
		}
		var er errorResponse
		if err := json.Unmarshal(data, &er); err != nil || er.Code == "" {
			t.Errorf("%s: error payload %s lacks a code", route, data)
		}
	}
}

// TestEpsilonStreamStops: a generous epsilon on the stream route ends
// the run early — the terminal result frame reports stop "epsilon"
// with partial set, and no progress frame claims Done.
func TestEpsilonStreamStops(t *testing.T) {
	w := testWorld(t)
	_, ts := newTestServer(t, Config{})
	group := w.Participants()[:3]
	body := fmt.Sprintf(`{"group":[%d,%d,%d],"k":8,"num_items":450,"epsilon":0.5}`, group[0], group[1], group[2])

	resp, err := http.Post(ts.URL+"/v1/recommend/stream", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST stream: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		t.Fatalf("status = %d (%s)", resp.StatusCode, data)
	}
	events := readSSE(t, resp.Body, 0)
	if len(events) < 2 {
		t.Fatalf("only %d events; want >= 1 progress + result", len(events))
	}
	last := events[len(events)-1]
	if last.event != "result" {
		t.Fatalf("last event = %q, want result", last.event)
	}
	var res recommendResponse
	if err := json.Unmarshal(last.data, &res); err != nil {
		t.Fatalf("decoding result frame: %v", err)
	}
	if res.Stop != "epsilon" || !res.Partial {
		t.Errorf("result stop=%q partial=%v, want epsilon/partial", res.Stop, res.Partial)
	}
	if len(res.Items) == 0 {
		t.Error("epsilon result carried no items")
	}
	for _, ev := range events[:len(events)-1] {
		var pf progressFrame
		if err := json.Unmarshal(ev.data, &pf); err != nil {
			t.Fatalf("decoding progress frame: %v", err)
		}
		if pf.Done {
			t.Error("epsilon-stopped stream emitted a Done progress frame")
		}
	}

	// The same request without epsilon terminates exactly.
	exactBody := fmt.Sprintf(`{"group":[%d,%d,%d],"k":8,"num_items":450}`, group[0], group[1], group[2])
	status, data := postJSON(t, ts.URL+"/v1/recommend", exactBody)
	if status != http.StatusOK {
		t.Fatalf("exact request = %d (%s)", status, data)
	}
	var exact recommendResponse
	if err := json.Unmarshal(data, &exact); err != nil {
		t.Fatalf("decoding exact response: %v", err)
	}
	if exact.Partial || exact.Stop == "epsilon" {
		t.Errorf("exact run reported stop=%q partial=%v", exact.Stop, exact.Partial)
	}
	// The epsilon run may not have done more work than the exact run.
	if res.Accesses > exact.Accesses {
		t.Errorf("epsilon run accesses %d > exact %d", res.Accesses, exact.Accesses)
	}
}

// TestStatsCachesOnWire: /v1/stats serves the world's cache counters,
// equal to what the world itself reports (quiescent server).
func TestStatsCachesOnWire(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	w := testWorld(t)
	group := w.Participants()[:3]
	body := fmt.Sprintf(`{"group":[%d,%d,%d],"k":3,"num_items":80}`, group[0], group[1], group[2])
	if status, data := postJSON(t, ts.URL+"/v1/recommend", body); status != http.StatusOK {
		t.Fatalf("recommend = %d (%s)", status, data)
	}

	var st struct {
		Caches repro.CacheStats `json:"caches"`
	}
	if status := getJSON(t, ts.URL+"/v1/stats", &st); status != http.StatusOK {
		t.Fatalf("stats = %d", status)
	}
	if want := w.CacheStats(); st.Caches != want {
		t.Errorf("served caches %+v, world reports %+v", st.Caches, want)
	}
	if nb := st.Caches.Neighborhoods; nb.Hits+nb.Misses == 0 {
		t.Error("no neighborhood traffic recorded; the comparison proved nothing")
	}
}
