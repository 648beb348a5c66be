package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"time"

	"repro"
)

// progressFrame is the wire form of one SSE progress event: the
// current partial top-k with guaranteed bounds, plus the convergence
// state of the run.
type progressFrame struct {
	Items []streamItem `json:"items"`
	// Round / Checks / Accesses quantify the work so far.
	Round        int `json:"round"`
	Checks       int `json:"checks"`
	Accesses     int `json:"accesses"`
	TotalEntries int `json:"total_entries"`
	// Threshold, KthLB, and BoundGap describe how far the run is from
	// terminating (the gap shrinks to 0). BoundGap is -1 while the
	// stopping bounds have not yet been evaluated (never the case for
	// GRECA, which evaluates every check, but kept finite so the JSON
	// frame stays encodable for any future mode).
	Threshold float64 `json:"threshold"`
	KthLB     float64 `json:"kth_lb"`
	BoundGap  float64 `json:"bound_gap"`
	// Done marks the last progress frame; a result event follows.
	Done bool `json:"done"`
}

// streamItem is one partial top-k entry. Unlike the terminal result's
// scored items, bounds are always both present: the consumer's whole
// point is watching them converge.
type streamItem struct {
	Item       int     `json:"item"`
	Score      float64 `json:"score"`
	UpperBound float64 `json:"upper_bound"`
	Resolved   bool    `json:"resolved"`
}

// handleStream serves POST /v1/recommend/stream: Server-Sent Events
// with one "progress" frame per stopping check (thinned by
// progress_every) and a terminal "result" frame carrying the final
// recommendation. The SSE headers are written lazily on the first
// frame, so every failure mode — decode, validation, engine-side
// problem build — still maps to a plain 400 with its error code.
//
// Cancellation (client disconnect, request context expiry) stops the
// run within one check interval and releases the problem's pooled
// buffers.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	if !allowMethod(w, r, http.MethodPost) {
		return
	}
	body, err := readBody(w, r)
	if err != nil {
		return // readBody already wrote the response
	}
	wire, err := decodeWire(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, errorCode(err), err.Error())
		return
	}
	req, err := wireToRequest(wire)
	if err != nil {
		writeError(w, http.StatusBadRequest, errorCode(err), err.Error())
		return
	}
	if err := s.validateGroup(req.Group); err != nil {
		writeError(w, http.StatusBadRequest, errorCode(err), err.Error())
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming_unsupported", "response writer cannot stream")
		return
	}
	// Each stream pins a runner plus pooled problem buffers for its
	// whole life, so the -maxpending bound covers streams too.
	if err := s.streams.enter(); err != nil {
		writeAdmissionError(w, err)
		return
	}
	defer s.streams.leave()
	// Thinning happens inside the facade (skipped checks build no
	// snapshot), so the handler sees exactly the frames it writes —
	// the terminal frame always included.
	req.Options.ProgressEvery = wire.ProgressEvery
	s.streamCalls.Add(1)

	// The SSE headers are written lazily, on the first frame: failures
	// that surface before any frame (engine-side validation, problem
	// build) can then still answer with a clean 400 instead of an
	// in-stream error event.
	started := false
	start := func() {
		if started {
			return
		}
		started = true
		h := w.Header()
		h.Set("Content-Type", "text/event-stream")
		h.Set("Cache-Control", "no-cache")
		h.Set("X-Accel-Buffering", "no")
		w.WriteHeader(http.StatusOK)
	}

	rec, err := s.world.RecommendStream(r.Context(), req.Group, req.Options, func(p repro.Progress) bool {
		if d := s.streamFrameDelay; d > 0 {
			time.Sleep(d) // test-only pacing
		}
		start()
		writeSSE(w, "progress", toProgressFrame(p))
		fl.Flush()
		s.streamFrames.Add(1)
		return true
	})
	if err != nil {
		if r.Context().Err() != nil {
			// The client went away mid-flight; the run has already
			// stopped and released its buffers. Nothing left to write.
			s.streamCancels.Add(1)
			return
		}
		// RecommendStream can only fail before its first frame
		// (problem build / runner construction) or via the request
		// context handled above, so the SSE headers are never out yet
		// and a plain status response is always still possible: 503/504
		// for a degraded shard worker, 400 for client-shaped input.
		if writeTransportError(w, err) {
			return
		}
		writeError(w, http.StatusBadRequest, errorCode(err), err.Error())
		return
	}
	start()
	writeSSE(w, "result", toResponse(rec))
	fl.Flush()
}

// toProgressFrame maps a facade Progress onto the SSE wire form.
func toProgressFrame(p repro.Progress) progressFrame {
	gap := p.BoundGap()
	if math.IsInf(gap, 1) {
		gap = -1 // not yet evaluated; keep the frame JSON-encodable
	}
	f := progressFrame{
		Items:        make([]streamItem, 0, len(p.Items)),
		Round:        p.Round,
		Checks:       p.Stats.Checks,
		Accesses:     p.Stats.SequentialAccesses,
		TotalEntries: p.Stats.TotalEntries,
		Threshold:    p.Threshold,
		KthLB:        p.KthLB,
		BoundGap:     gap,
		Done:         p.Done,
	}
	for _, it := range p.Items {
		f.Items = append(f.Items, streamItem{
			Item:       int(it.Item),
			Score:      it.Score,
			UpperBound: it.UpperBound,
			Resolved:   it.Resolved,
		})
	}
	return f
}

// writeSSE writes one Server-Sent Event with a JSON payload. Encoding
// the payload cannot fail (all frame types are plain data), and write
// errors surface on the next write or Flush, so both are ignored here.
func writeSSE(w http.ResponseWriter, event string, v any) {
	data, _ := json.Marshal(v)
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
}
