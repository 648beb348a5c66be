package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/consensus"
	"repro/internal/dataset"
)

// maxBodyBytes bounds request bodies; the largest legitimate payload
// (a full batch of large groups) is a few hundred KB.
const maxBodyBytes = 1 << 20

// retryAfter is the Retry-After of every shed or degraded answer, in
// seconds — the granularity the header speaks.
const retryAfter = "1"

// Config parameterizes a Server.
type Config struct {
	// MaxPending bounds in-flight /recommend requests and,
	// independently, concurrent /recommend/stream runs; beyond it
	// requests are shed with 429 + Retry-After instead of piling up
	// (0 = unbounded).
	MaxPending int
	// OpenStats, when set, reports how the world came up (warm
	// snapshot restore, WAL replay) under /stats "persistence".
	OpenStats *repro.OpenStats
}

// Server exposes a World over a versioned HTTP surface:
//
//	POST /v1/recommend         one group, run on the handler's goroutine
//	POST /v1/recommend/batch   many groups, run over GOMAXPROCS workers
//	POST /v1/recommend/stream  SSE: progress frames, then a terminal frame
//	POST /v1/ratings           ingest one rating into the live world
//	GET  /v1/healthz           liveness
//	GET  /v1/stats             admission, batch, stream, ingest, and cache counters
//
// /v1 is the only prefix; unversioned paths answer 404.
//
// Client-shaped failures (malformed JSON, unknown users, negative K)
// map to 400s with a machine-readable "code" field; unknown methods on
// known routes map to 405 with an Allow header; only transport-level
// surprises produce 5xx.
type Server struct {
	world *repro.World
	// co admits /recommend, streams admits /recommend/stream: the same
	// Config.MaxPending bound, counted separately.
	co, streams *Gate
	mux         *http.ServeMux
	start       time.Time
	// participant membership for request validation.
	participants map[dataset.UserID]bool

	// batchCalls / batchRequests count POST /recommend/batch traffic.
	batchCalls    atomic.Uint64
	batchRequests atomic.Uint64
	// streamCalls / streamFrames / streamCancels count the SSE
	// endpoint.
	streamCalls   atomic.Uint64
	streamFrames  atomic.Uint64
	streamCancels atomic.Uint64
	// streamFrameDelay paces SSE frame emission so tests can pin
	// mid-flight cancellation deterministically; always zero in
	// production (set before serving, never mutated concurrently).
	streamFrameDelay time.Duration

	// ratingPosts / ratingRejects count POST /ratings traffic: ratings
	// applied to the live world vs. refused (decode or validation).
	ratingPosts   atomic.Uint64
	ratingRejects atomic.Uint64
	// openStats is the boot report surfaced under /stats (nil when the
	// process runs without persistence).
	openStats *repro.OpenStats
}

// New builds a Server over world. The caller owns shutdown ordering:
// stop accepting HTTP traffic first, then Close to drain the requests
// in flight.
func New(world *repro.World, cfg Config) *Server {
	s := &Server{
		world:        world,
		co:           newGate(world.RecommendContext, cfg.MaxPending),
		streams:      newGate(nil, cfg.MaxPending),
		mux:          http.NewServeMux(),
		start:        time.Now(),
		participants: make(map[dataset.UserID]bool, len(world.Participants())),
		openStats:    cfg.OpenStats,
	}
	for _, u := range world.Participants() {
		s.participants[u] = true
	}
	s.mux.HandleFunc("/v1/recommend", s.handleRecommend)
	s.mux.HandleFunc("/v1/recommend/batch", s.handleBatch)
	s.mux.HandleFunc("/v1/recommend/stream", s.handleStream)
	s.mux.HandleFunc("/v1/ratings", s.handleRatings)
	s.mux.HandleFunc("/v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	return s
}

// Handler returns the HTTP handler for use with any http.Server.
func (s *Server) Handler() http.Handler { return s.mux }

// Coalescer returns the /recommend admission gate. The name is the one
// bench/ compiles against; nothing coalesces.
func (s *Server) Coalescer() *Gate { return s.co }

// Close waits for the admitted requests to finish; later ones answer
// 503. Call only after the HTTP listener has stopped delivering new
// requests (http.Server.Shutdown).
func (s *Server) Close() {
	s.co.Close()
	s.streams.Close()
}

// recommendRequest is the wire form of one group's query. Unknown
// fields are rejected so client typos fail loudly instead of silently
// running defaults.
type recommendRequest struct {
	Group     []int  `json:"group"`
	K         int    `json:"k,omitempty"`
	NumItems  int    `json:"num_items,omitempty"`
	Consensus string `json:"consensus,omitempty"`
	Model     string `json:"model,omitempty"`
	Period    int    `json:"period,omitempty"`
	// ProgressEvery thins the stream endpoint's progress frames to
	// every N-th stopping check (0 = every check). Accepted but moot
	// on the non-streaming routes.
	ProgressEvery int `json:"progress_every,omitempty"`
	// Epsilon enables bound-gap ε stopping: the run ends at the first
	// stopping check whose threshold/kth-LB gap sinks below epsilon,
	// answering with the ε-approximate top-k (stop = "epsilon").
	// 0 keeps runs exact; negative values are rejected.
	Epsilon float64 `json:"epsilon,omitempty"`
}

// batchRequest is the wire form of POST /recommend/batch.
type batchRequest struct {
	Requests []recommendRequest `json:"requests"`
}

// scoredItem and recommendResponse are the wire forms of a result.
type scoredItem struct {
	Item       int     `json:"item"`
	Score      float64 `json:"score"`
	UpperBound float64 `json:"upper_bound,omitempty"`
}

type recommendResponse struct {
	Items []scoredItem `json:"items"`
	// Period is the resolved 1-based "now" period.
	Period int `json:"period"`
	// Accesses and TotalEntries summarize GRECA's work (the paper's
	// %SA metric is Accesses/TotalEntries).
	Accesses     int    `json:"accesses"`
	TotalEntries int    `json:"total_entries"`
	Stop         string `json:"stop"`
	// Partial marks a run cut short before exact termination — today
	// that is the bound-gap ε policy (stop "epsilon"); the items then
	// carry the best guaranteed bounds at the stop.
	Partial bool `json:"partial,omitempty"`
}

type batchResponse struct {
	Results []batchResult `json:"results"`
}

// batchResult carries one request's response or its error (with its
// machine-readable code); exactly one of Response and Error is set.
type batchResult struct {
	Response *recommendResponse `json:"response,omitempty"`
	Error    string             `json:"error,omitempty"`
	Code     string             `json:"code,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
	// Code is the machine-readable error class (e.g. "empty_group",
	// "method_not_allowed"); see errorCode for the client-fault set.
	Code string `json:"code,omitempty"`
}

// errUnknownUser marks group members outside the study population;
// wrapped with the offending id by validateGroup.
var errUnknownUser = errors.New("unknown user")

// errorCode maps a client-shaped failure onto its wire code. The
// facade's typed sentinels cover engine-side validation; the rest are
// the server's own decode/validation failures.
func errorCode(err error) string {
	switch {
	case errors.Is(err, repro.ErrEmptyGroup):
		return "empty_group"
	case errors.Is(err, repro.ErrDuplicateMember):
		return "duplicate_member"
	case errors.Is(err, repro.ErrPeriodOutOfRange):
		return "period_out_of_range"
	case errors.Is(err, repro.ErrKExceedsCandidates):
		return "k_exceeds_candidates"
	case errors.Is(err, errUnknownUser):
		return "unknown_user"
	default:
		return "bad_request"
	}
}

// resultCode maps any engine-side failure onto its wire code: the
// distributed world's transport degradations first, then the
// client-fault set. Batch results carry these codes per entry.
func resultCode(err error) string {
	switch {
	case errors.Is(err, repro.ErrShardUnavailable):
		return "shard_unavailable"
	case errors.Is(err, repro.ErrShardTimeout):
		return "shard_timeout"
	default:
		return errorCode(err)
	}
}

// writeAdmissionError answers a gate refusal with its HTTP form — 503
// while draining, 429 + Retry-After when shedding load — and reports
// whether err was one.
func writeAdmissionError(w http.ResponseWriter, err error) bool {
	switch {
	case errors.Is(err, ErrClosed):
		writeError(w, http.StatusServiceUnavailable, "draining", "server draining")
		return true
	case errors.Is(err, ErrOverloaded):
		w.Header().Set("Retry-After", retryAfter)
		writeError(w, http.StatusTooManyRequests, "overloaded", "too many pending requests")
		return true
	default:
		return false
	}
}

// writeTransportError answers a shard-transport degradation with its
// HTTP form — 503 + Retry-After for an unreachable worker (its shards
// are degraded; others keep serving), 504 for a worker that missed its
// deadline — and reports whether err was transport-shaped at all.
func writeTransportError(w http.ResponseWriter, err error) bool {
	switch {
	case errors.Is(err, repro.ErrShardUnavailable):
		w.Header().Set("Retry-After", retryAfter)
		writeError(w, http.StatusServiceUnavailable, "shard_unavailable", err.Error())
		return true
	case errors.Is(err, repro.ErrShardTimeout):
		writeError(w, http.StatusGatewayTimeout, "shard_timeout", err.Error())
		return true
	default:
		return false
	}
}

// allowMethod guards a route's HTTP method: a mismatch answers 405
// with the Allow header (never falling through to the decoder as a
// 400) and reports false.
func allowMethod(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method == method {
		return true
	}
	w.Header().Set("Allow", method)
	writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", method+" required")
	return false
}

// decodeWire strictly parses the raw body into the wire form: unknown
// fields, trailing garbage, and fractional numbers are all rejected.
func decodeWire(data []byte) (recommendRequest, error) {
	var wire recommendRequest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&wire); err != nil {
		return recommendRequest{}, fmt.Errorf("decoding request: %w", err)
	}
	if dec.More() {
		return recommendRequest{}, fmt.Errorf("trailing data after request object")
	}
	return wire, nil
}

// decodeRecommendRequest parses and validates one wire request into an
// engine request. It is a pure function of its input (no world access)
// so it can be fuzzed in isolation; membership validation happens in
// validateGroup.
func decodeRecommendRequest(data []byte) (repro.Request, error) {
	wire, err := decodeWire(data)
	if err != nil {
		return repro.Request{}, err
	}
	return wireToRequest(wire)
}

// wireToRequest validates a decoded wire request and maps it onto the
// engine's Request.
func wireToRequest(wire recommendRequest) (repro.Request, error) {
	if len(wire.Group) == 0 {
		return repro.Request{}, repro.ErrEmptyGroup
	}
	if wire.K < 0 {
		return repro.Request{}, fmt.Errorf("negative k %d", wire.K)
	}
	if wire.NumItems < 0 {
		return repro.Request{}, fmt.Errorf("negative num_items %d", wire.NumItems)
	}
	if wire.Period < 0 {
		return repro.Request{}, fmt.Errorf("negative period %d", wire.Period)
	}
	if wire.ProgressEvery < 0 {
		return repro.Request{}, fmt.Errorf("negative progress_every %d", wire.ProgressEvery)
	}
	if wire.Epsilon < 0 {
		return repro.Request{}, fmt.Errorf("negative epsilon %g", wire.Epsilon)
	}
	spec, err := consensus.Parse(wire.Consensus)
	if err != nil {
		return repro.Request{}, err
	}
	model, err := repro.ParseTimeModel(wire.Model)
	if err != nil {
		return repro.Request{}, err
	}
	group := make([]dataset.UserID, len(wire.Group))
	for i, id := range wire.Group {
		if id < 0 {
			return repro.Request{}, fmt.Errorf("negative user id %d", id)
		}
		group[i] = dataset.UserID(id)
	}
	return repro.Request{
		Group: group,
		Options: repro.Options{
			K:         wire.K,
			NumItems:  wire.NumItems,
			Consensus: spec,
			TimeModel: model,
			Period:    wire.Period,
			Epsilon:   wire.Epsilon,
		},
	}, nil
}

// validateGroup rejects users outside the study population (they have
// no affinity entries) and duplicate members before the request
// reaches the engine, so both map to 400s.
func (s *Server) validateGroup(group []dataset.UserID) error {
	seen := make(map[dataset.UserID]bool, len(group))
	for _, u := range group {
		if !s.participants[u] {
			return fmt.Errorf("%w %d (participants are 0..%d)", errUnknownUser, u, len(s.participants)-1)
		}
		if seen[u] {
			return fmt.Errorf("%w %d", repro.ErrDuplicateMember, u)
		}
		seen[u] = true
	}
	return nil
}

// toResponse maps an engine recommendation onto the wire form.
func toResponse(rec *repro.Recommendation) *recommendResponse {
	resp := &recommendResponse{
		Items:        make([]scoredItem, 0, len(rec.Items)),
		Period:       rec.Period + 1,
		Accesses:     rec.Stats.SequentialAccesses,
		TotalEntries: rec.Stats.TotalEntries,
		Stop:         rec.Stats.Stop.String(),
		Partial:      rec.Partial,
	}
	for _, it := range rec.Items {
		resp.Items = append(resp.Items, scoredItem{
			Item:       int(it.Item),
			Score:      it.Score,
			UpperBound: it.UpperBound,
		})
	}
	return resp
}

func (s *Server) handleRecommend(w http.ResponseWriter, r *http.Request) {
	if !allowMethod(w, r, http.MethodPost) {
		return
	}
	body, err := readBody(w, r)
	if err != nil {
		return // readBody already wrote the response
	}
	req, err := decodeRecommendRequest(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, errorCode(err), err.Error())
		return
	}
	if err := s.validateGroup(req.Group); err != nil {
		writeError(w, http.StatusBadRequest, errorCode(err), err.Error())
		return
	}
	// The request's own context reaches the driver loop: a client that
	// disconnects (or a deadline that expires) stops its run within one
	// check interval.
	res, err := s.co.Submit(r.Context(), req)
	if err != nil {
		if !writeAdmissionError(w, err) { // else the caller's context expired
			writeError(w, http.StatusRequestTimeout, "timeout", err.Error())
		}
		return
	}
	if res.Err != nil {
		// A dead or deadlined shard worker degrades the shards it owns:
		// 503/504 with machine-readable codes, never a 400. Everything
		// else the engine rejects at this point is input-shaped (period
		// out of range, K exceeding the pool, ...).
		if !writeTransportError(w, res.Err) {
			writeError(w, http.StatusBadRequest, errorCode(res.Err), res.Err.Error())
		}
		return
	}
	writeJSON(w, http.StatusOK, toResponse(res.Recommendation))
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if !allowMethod(w, r, http.MethodPost) {
		return
	}
	body, err := readBody(w, r)
	if err != nil {
		return // readBody already wrote the response
	}
	var wire batchRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&wire); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "decoding batch: "+err.Error())
		return
	}
	if dec.More() {
		writeError(w, http.StatusBadRequest, "bad_request", "trailing data after batch object")
		return
	}
	if len(wire.Requests) == 0 {
		writeError(w, http.StatusBadRequest, "empty_batch", "empty batch")
		return
	}

	// Per-request validation failures become per-result errors, not a
	// whole-batch rejection; valid requests still run together.
	results := make([]batchResult, len(wire.Requests))
	reqs := make([]repro.Request, 0, len(wire.Requests))
	slots := make([]int, 0, len(wire.Requests))
	for i, wr := range wire.Requests {
		req, err := wireToRequest(wr)
		if err == nil {
			err = s.validateGroup(req.Group)
		}
		if err != nil {
			results[i] = batchResult{Error: err.Error(), Code: errorCode(err)}
			continue
		}
		reqs = append(reqs, req)
		slots = append(slots, i)
	}
	if len(reqs) > 0 {
		s.batchCalls.Add(1)
		s.batchRequests.Add(uint64(len(reqs)))
		// The caller's context threads through the whole sweep: one
		// client disconnect cancels every in-flight run of its batch.
		for j, res := range s.world.RecommendBatchContext(r.Context(), reqs) {
			if res.Err != nil {
				results[slots[j]] = batchResult{Error: res.Err.Error(), Code: resultCode(res.Err)}
			} else {
				results[slots[j]] = batchResult{Response: toResponse(res.Recommendation)}
			}
		}
	}
	writeJSON(w, http.StatusOK, batchResponse{Results: results})
}

// ratingRequest is the wire form of POST /ratings: one rating to
// ingest into the live world. Unknown fields are rejected like every
// other route.
type ratingRequest struct {
	User  int     `json:"user"`
	Item  int     `json:"item"`
	Value float64 `json:"value"`
	// Time is the rating's unix timestamp (0 = untimed). It is
	// journaled, snapshotted and relayed to the workers with the rating;
	// no served value reads it.
	Time int64 `json:"time,omitempty"`
}

// ratingResponse acknowledges an applied rating: it is in the store,
// and every read from here on sees it.
type ratingResponse struct {
	Applied bool `json:"applied"`
}

func (s *Server) handleRatings(w http.ResponseWriter, r *http.Request) {
	if !allowMethod(w, r, http.MethodPost) {
		return
	}
	body, err := readBody(w, r)
	if err != nil {
		return // readBody already wrote the response
	}
	reject := func(status int, code, msg string) {
		s.ratingRejects.Add(1)
		writeError(w, status, code, msg)
	}
	var wire ratingRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&wire); err != nil {
		reject(http.StatusBadRequest, "bad_rating", "decoding rating: "+err.Error())
		return
	}
	if dec.More() {
		reject(http.StatusBadRequest, "bad_rating", "trailing data after rating object")
		return
	}
	if wire.User < 0 || wire.Item < 0 {
		reject(http.StatusBadRequest, "bad_rating", fmt.Sprintf("negative user %d or item %d", wire.User, wire.Item))
		return
	}
	err = s.world.AddRating(dataset.Rating{
		User:  dataset.UserID(wire.User),
		Item:  dataset.ItemID(wire.Item),
		Value: wire.Value,
		Time:  wire.Time,
	})
	switch {
	case err == nil:
	case errors.Is(err, dataset.ErrUnknownUser):
		reject(http.StatusBadRequest, "unknown_user", err.Error())
		return
	case errors.Is(err, dataset.ErrUnknownItem):
		reject(http.StatusBadRequest, "unknown_item", err.Error())
		return
	case errors.Is(err, dataset.ErrBadValue):
		reject(http.StatusBadRequest, "bad_rating", err.Error())
		return
	default:
		// The rating applied but failed to journal — a server fault
		// (disk trouble), never the client's. A worker that missed the
		// fan-out never fails an ingest (see World.AddRating).
		writeError(w, http.StatusInternalServerError, "ingest_failed", err.Error())
		return
	}
	s.ratingPosts.Add(1)
	writeJSON(w, http.StatusOK, ratingResponse{Applied: true})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !allowMethod(w, r, http.MethodGet) {
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(s.start).Seconds(),
	})
}

// statsResponse is the wire form of GET /stats.
type statsResponse struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Coalescer is the /recommend admission gate's counters, under the
	// key bench/ reads.
	Coalescer GateStats        `json:"coalescer"`
	Batch     batchStats       `json:"batch"`
	Stream    streamStats      `json:"stream"`
	Caches    repro.CacheStats `json:"caches"`
	World     worldStats       `json:"world"`
	Ingest    ingestStats      `json:"ingest"`
	// Remote is the distributed transport's observability: wire calls
	// by op, retries, breaker opens, dials vs connection reuses, and
	// the router list store's view traffic. Always present —
	// zero-valued with Attached false in-process — so the stats shape
	// is identical across deployments.
	Remote repro.RemoteStats `json:"remote"`
	// Persistence reports the boot path (warm restore, WAL replay);
	// absent when the process runs without a snapshot directory.
	Persistence *repro.OpenStats `json:"persistence,omitempty"`
}

type batchStats struct {
	Calls    uint64 `json:"calls"`
	Requests uint64 `json:"requests"`
}

// streamStats counts the SSE endpoint: accepted streams, progress
// frames written, and streams abandoned by the client mid-flight.
type streamStats struct {
	Calls   uint64 `json:"calls"`
	Frames  uint64 `json:"frames"`
	Cancels uint64 `json:"cancels"`
}

// ingestStats counts live rating ingest: the HTTP traffic (posts
// applied, rejects), the store's own ingest counters, and — in
// distributed mode — fanned-out applies whose owning worker missed
// the write and was fenced (always present, zero in-process, so the
// stats shape is identical either way).
type ingestStats struct {
	Posts        uint64             `json:"posts"`
	Rejects      uint64             `json:"rejects"`
	FanoutMisses uint64             `json:"fanout_misses"`
	Store        dataset.DeltaStats `json:"store"`
}

type worldStats struct {
	Users        int `json:"users"`
	Items        int `json:"items"`
	Ratings      int `json:"ratings"`
	Participants int `json:"participants"`
	Periods      int `json:"periods"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if !allowMethod(w, r, http.MethodGet) {
		return
	}
	ds := s.world.Ratings().Stats()
	rs := s.world.RemoteStats()
	writeJSON(w, http.StatusOK, statsResponse{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Coalescer:     s.co.Stats(),
		Batch: batchStats{
			Calls:    s.batchCalls.Load(),
			Requests: s.batchRequests.Load(),
		},
		Stream: streamStats{
			Calls:   s.streamCalls.Load(),
			Frames:  s.streamFrames.Load(),
			Cancels: s.streamCancels.Load(),
		},
		Caches: s.world.CacheStats(),
		World: worldStats{
			Users:        ds.Users,
			Items:        ds.Items,
			Ratings:      ds.Ratings,
			Participants: len(s.world.Participants()),
			Periods:      s.world.Timeline().NumPeriods(),
		},
		Ingest: ingestStats{
			Posts:        s.ratingPosts.Load(),
			Rejects:      s.ratingRejects.Load(),
			FanoutMisses: rs.Transport.FanoutMisses,
			Store:        s.world.IngestStats(),
		},
		Remote:      rs,
		Persistence: s.openStats,
	})
}

// readBody reads the request body under the size bound, writing the
// error response itself on failure: an over-limit body is the client's
// fault but not a 400 (413), and MaxBytesReader keeps the connection
// handling correct where a silent truncation would not.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, "body_too_large",
				fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit))
		} else {
			writeError(w, http.StatusBadRequest, "bad_request", "reading body: "+err.Error())
		}
		return nil, err
	}
	return body, nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, errorResponse{Error: msg, Code: code})
}
