package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestUnversionedRoutesAnswer404: /v1 is the only prefix. The
// unversioned paths that once aliased it are not routes at all — every
// method on them answers 404, while the /v1 forms serve.
func TestUnversionedRoutesAnswer404(t *testing.T) {
	w := testWorld(t)
	_, ts := newTestServer(t, Config{})
	group := w.Participants()[:3]
	body := fmt.Sprintf(`{"group":[%d,%d,%d],"k":4,"num_items":120}`, group[0], group[1], group[2])

	for _, route := range []string{"/recommend", "/recommend/batch", "/recommend/stream", "/ratings"} {
		if status, data := postJSON(t, ts.URL+route, body); status != http.StatusNotFound {
			t.Errorf("POST %s = %d (%s), want 404", route, status, data)
		}
	}
	if status, data := postJSON(t, ts.URL+"/v1/recommend", body); status != http.StatusOK {
		t.Fatalf("POST /v1/recommend = %d (%s), want 200", status, data)
	}
	for route, want := range map[string]int{
		"/healthz":    http.StatusNotFound,
		"/stats":      http.StatusNotFound,
		"/v1/healthz": http.StatusOK,
		"/v1/stats":   http.StatusOK,
	} {
		resp, err := http.Get(ts.URL + route)
		if err != nil {
			t.Fatalf("GET %s: %v", route, err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s = %d, want %d", route, resp.StatusCode, want)
		}
	}
}

// TestMethodNotAllowedCarriesAllow: unknown methods on known routes
// return 405 with the Allow header naming the supported method — they
// must not fall through the decoder as 400s.
func TestMethodNotAllowedCarriesAllow(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		method, route, allow string
	}{
		{http.MethodGet, "/v1/recommend", "POST"},
		{http.MethodDelete, "/v1/recommend", "POST"},
		{http.MethodPut, "/v1/recommend/batch", "POST"},
		{http.MethodGet, "/v1/recommend/stream", "POST"},
		{http.MethodPost, "/v1/healthz", "GET"},
		{http.MethodPost, "/v1/stats", "GET"},
	}
	for _, tc := range cases {
		t.Run(tc.method+" "+tc.route, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.route, strings.NewReader(`{"group":[1]}`))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusMethodNotAllowed {
				t.Errorf("status = %d, want 405", resp.StatusCode)
			}
			if got := resp.Header.Get("Allow"); got != tc.allow {
				t.Errorf("Allow = %q, want %q", got, tc.allow)
			}
			var e errorResponse
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Code != "method_not_allowed" {
				t.Errorf("error body code = %q (%v), want method_not_allowed", e.Code, err)
			}
		})
	}
}

// TestErrorCodes: client-shaped failures carry machine-readable codes
// beside the human-readable message, on both the plain and batch
// routes.
func TestErrorCodes(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, body, code string
	}{
		{"empty group", `{"group":[]}`, "empty_group"},
		{"missing group", `{"k":3}`, "empty_group"},
		{"duplicate member", `{"group":[1,1]}`, "duplicate_member"},
		{"unknown user", `{"group":[99999]}`, "unknown_user"},
		{"period out of range", `{"group":[1],"period":99}`, "period_out_of_range"},
		{"k exceeds candidates", `{"group":[1],"k":50,"num_items":10}`, "k_exceeds_candidates"},
		{"malformed json", `{"group": [1,2`, "bad_request"},
		{"negative progress_every", `{"group":[1],"progress_every":-1}`, "bad_request"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, data := postJSON(t, ts.URL+"/v1/recommend", tc.body)
			if status != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400 (%s)", status, data)
			}
			var e errorResponse
			if err := json.Unmarshal(data, &e); err != nil {
				t.Fatalf("unmarshal %q: %v", data, err)
			}
			if e.Code != tc.code {
				t.Errorf("code = %q, want %q (error %q)", e.Code, tc.code, e.Error)
			}
			if e.Error == "" {
				t.Error("message is empty")
			}
		})
	}

	// The batch route reports per-request codes in its results.
	status, data := postJSON(t, ts.URL+"/v1/recommend/batch",
		`{"requests":[{"group":[]},{"group":[1,1]},{"group":[1],"period":99}]}`)
	if status != http.StatusOK {
		t.Fatalf("batch status = %d (%s)", status, data)
	}
	var br batchResponse
	if err := json.Unmarshal(data, &br); err != nil {
		t.Fatalf("unmarshal batch: %v", err)
	}
	wantCodes := []string{"empty_group", "duplicate_member", "period_out_of_range"}
	for i, want := range wantCodes {
		if br.Results[i].Code != want {
			t.Errorf("batch result %d code = %q, want %q", i, br.Results[i].Code, want)
		}
	}
}

// sseEvent is one parsed Server-Sent Event.
type sseEvent struct {
	event string
	data  []byte
}

// readSSE parses SSE events off a stream until EOF or maxEvents.
func readSSE(t *testing.T, r io.Reader, maxEvents int) []sseEvent {
	t.Helper()
	var events []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = []byte(strings.TrimPrefix(line, "data: "))
		case line == "":
			if cur.event != "" {
				events = append(events, cur)
				if len(events) == maxEvents {
					return events
				}
				cur = sseEvent{}
			}
		}
	}
	return events
}

// TestServeStreamSSE is the SSE e2e smoke: streaming a slow group
// yields at least two progress frames before the terminal result
// frame, frames tighten monotonically, and the terminal result matches
// the frames' final state.
func TestServeStreamSSE(t *testing.T) {
	w := testWorld(t)
	_, ts := newTestServer(t, Config{})
	group := w.Participants()[:3]
	// A large pool with per-round checks keeps the runner stepping long
	// enough to observe genuine intermediate frames.
	body := fmt.Sprintf(`{"group":[%d,%d,%d],"k":8,"num_items":450}`, group[0], group[1], group[2])

	resp, err := http.Post(ts.URL+"/v1/recommend/stream", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST stream: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		t.Fatalf("status = %d (%s)", resp.StatusCode, data)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}

	events := readSSE(t, resp.Body, 0)
	if len(events) < 3 {
		t.Fatalf("only %d events; want >= 2 progress + result", len(events))
	}
	last := events[len(events)-1]
	if last.event != "result" {
		t.Fatalf("terminal event = %q, want result (%s)", last.event, last.data)
	}
	progress := events[:len(events)-1]
	if len(progress) < 2 {
		t.Fatalf("only %d progress frames before the terminal frame, want >= 2", len(progress))
	}
	var prevChecks int
	var lastFrame progressFrame
	for i, ev := range progress {
		if ev.event != "progress" {
			t.Fatalf("event %d = %q, want progress", i, ev.event)
		}
		var f progressFrame
		if err := json.Unmarshal(ev.data, &f); err != nil {
			t.Fatalf("frame %d: %v (%s)", i, err, ev.data)
		}
		if f.Checks < prevChecks {
			t.Errorf("frame %d: checks went backward %d -> %d", i, prevChecks, f.Checks)
		}
		prevChecks = f.Checks
		for _, it := range f.Items {
			if it.UpperBound < it.Score {
				t.Errorf("frame %d: item %d UB %g < score %g", i, it.Item, it.UpperBound, it.Score)
			}
		}
		lastFrame = f
	}
	if !lastFrame.Done {
		t.Error("last progress frame not marked done")
	}
	if lastFrame.BoundGap != 0 {
		t.Errorf("terminal frame bound gap = %g, want 0", lastFrame.BoundGap)
	}

	// The terminal result matches a plain /recommend call for the
	// same request — streaming changes delivery, not the answer.
	var streamed recommendResponse
	if err := json.Unmarshal(last.data, &streamed); err != nil {
		t.Fatalf("result frame: %v", err)
	}
	status, direct := postJSON(t, ts.URL+"/v1/recommend", body)
	if status != http.StatusOK {
		t.Fatalf("direct status = %d", status)
	}
	var plain recommendResponse
	if err := json.Unmarshal(direct, &plain); err != nil {
		t.Fatal(err)
	}
	if len(streamed.Items) != len(plain.Items) {
		t.Fatalf("streamed %d items, direct %d", len(streamed.Items), len(plain.Items))
	}
	for i := range plain.Items {
		if streamed.Items[i] != plain.Items[i] {
			t.Errorf("item %d: streamed %+v, direct %+v", i, streamed.Items[i], plain.Items[i])
		}
	}
}

// TestServeStreamProgressEvery: frame thinning keeps the terminal
// frame and reduces the progress count.
func TestServeStreamProgressEvery(t *testing.T) {
	w := testWorld(t)
	_, ts := newTestServer(t, Config{})
	group := w.Participants()[:3]
	base := fmt.Sprintf(`{"group":[%d,%d,%d],"k":8,"num_items":450`, group[0], group[1], group[2])

	count := func(body string) int {
		resp, err := http.Post(ts.URL+"/v1/recommend/stream", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		events := readSSE(t, resp.Body, 0)
		if len(events) == 0 || events[len(events)-1].event != "result" {
			t.Fatalf("no terminal result frame for %s", body)
		}
		return len(events) - 1
	}
	every1 := count(base + `}`)
	every16 := count(base + `,"progress_every":16}`)
	if every16 >= every1 {
		t.Errorf("progress_every=16 produced %d frames, unthinned %d", every16, every1)
	}
	if every16 < 1 {
		t.Error("thinning dropped every progress frame including the terminal one")
	}
}

// TestServeStreamErrorEvent: engine-side failures surface before the
// lazily written SSE headers, so even errors the decoder cannot catch
// (K vs the group's actual candidate pool) still map to plain 400s
// with their code.
func TestServeStreamErrorEvent(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// K exceeding the candidate pool passes the decoder (K and
	// num_items are individually valid) and fails at problem build.
	resp, err := http.Post(ts.URL+"/v1/recommend/stream", "application/json",
		strings.NewReader(`{"group":[1],"k":50,"num_items":10}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400 before streaming begins", resp.StatusCode)
	}
	var e errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Code != "k_exceeds_candidates" {
		t.Errorf("code = %q (%v), want k_exceeds_candidates", e.Code, err)
	}
}

// TestServeStreamShedsOverload: MaxPending bounds concurrent streams
// too — beyond it, new streams get 429 + Retry-After instead of
// pinning yet another runner.
func TestServeStreamShedsOverload(t *testing.T) {
	w := testWorld(t)
	s, ts := newTestServer(t, Config{MaxPending: 1})
	s.streamFrameDelay = 2 * time.Millisecond
	group := w.Participants()[:3]
	body := fmt.Sprintf(`{"group":[%d,%d,%d],"k":8,"num_items":450}`, group[0], group[1], group[2])

	// Occupy the only stream slot, holding it open by not reading.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/recommend/stream", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp1, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp1.Body.Close()
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first stream status = %d", resp1.StatusCode)
	}

	// The second concurrent stream is shed.
	resp2, err := http.Post(ts.URL+"/v1/recommend/stream", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second stream status = %d, want 429", resp2.StatusCode)
	}
	if resp2.Header.Get("Retry-After") == "" {
		t.Error("shed stream missing Retry-After")
	}
	var e errorResponse
	if err := json.NewDecoder(resp2.Body).Decode(&e); err != nil || e.Code != "overloaded" {
		t.Errorf("code = %q (%v), want overloaded", e.Code, err)
	}

	// Draining the first stream frees the slot.
	io.Copy(io.Discard, resp1.Body)
	waitParked(t, s.streams, 0)
	resp3, err := http.Post(ts.URL+"/v1/recommend/stream", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	if resp3.StatusCode != http.StatusOK {
		t.Errorf("post-drain stream status = %d, want 200", resp3.StatusCode)
	}
}

// TestServeStreamCancelMidFlight cancels the client context after the
// first progress frame and proves the server survives: the stream
// terminates, the cancel is counted, and subsequent requests — which
// reuse the pooled problem buffers the cancelled run must have
// released — still serve correct responses.
func TestServeStreamCancelMidFlight(t *testing.T) {
	w := testWorld(t)
	s, ts := newTestServer(t, Config{})
	// Pace the frames so the run reliably outlives the client's
	// mid-stream hangup.
	s.streamFrameDelay = 2 * time.Millisecond
	group := w.Participants()[:3]
	body := fmt.Sprintf(`{"group":[%d,%d,%d],"k":8,"num_items":450}`, group[0], group[1], group[2])

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/recommend/stream", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read exactly one progress frame, then hang up mid-stream.
	events := readSSE(t, resp.Body, 1)
	if len(events) != 1 || events[0].event != "progress" {
		cancel()
		resp.Body.Close()
		t.Fatalf("first event = %+v, want a progress frame", events)
	}
	cancel()
	resp.Body.Close()

	// The handler observes the disconnect and records the cancel.
	deadline := time.Now().Add(5 * time.Second)
	for s.streamCancels.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stream cancel never observed by the server")
		}
		time.Sleep(time.Millisecond)
	}

	// The world stays healthy: the cancelled run released its pooled
	// rows, so fresh requests (including a fresh stream) are served
	// correctly and byte-identically to each other.
	status1, data1 := postJSON(t, ts.URL+"/v1/recommend", body)
	status2, data2 := postJSON(t, ts.URL+"/v1/recommend", body)
	if status1 != http.StatusOK || status2 != http.StatusOK {
		t.Fatalf("post-cancel statuses %d / %d (%s / %s)", status1, status2, data1, data2)
	}
	if string(data1) != string(data2) {
		t.Errorf("post-cancel responses diverge:\n%s\n%s", data1, data2)
	}
}
