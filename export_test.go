package repro

import (
	"net"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/liststore"
	"repro/internal/remote"
)

// NewFullInvalidationWorld is NewWorld with the drop-everything ingest
// scheme: every AddRating discards every cached neighborhood
// (cf.Predictor.NoteIngest) instead of the ones the rating reaches. It
// serves the same bytes as a NewWorld world — scoping only decides how
// much cache heat survives — and exists as the reference the scoped
// scheme is differentially tested
// (TestFullInvalidationMatchesScoped) and benchmarked
// (BenchmarkIngestMix/full, BenchmarkIngestOnly/full) against. No
// Config field, flag or environment variable selects it.
func NewFullInvalidationWorld(cfg Config) (*World, error) {
	w, err := NewWorld(cfg)
	if err != nil {
		return nil, err
	}
	w.dropAllNeighborhoods = true
	return w, nil
}

// NewDenseWorld is NewWorld with an assembler that has no list store:
// every problem is assembled from dense batch-predicted rows and sorts
// its own lists (core.NewProblem). The world still keeps its store — it
// is only never read — and serves the same bytes as a NewWorld world.
// It is the reference the store-served assembly is differentially
// tested against (TestRecommendListStoreDifferential). No Config field,
// flag or environment variable selects it.
func NewDenseWorld(cfg Config) (*World, error) {
	w, err := NewWorld(cfg)
	if err != nil {
		return nil, err
	}
	w.asm = engine.New(w.pred, nil)
	return w, nil
}

// ViewScores returns u's pool-order view scores from w's list store:
// built in place in process, fetched from u's owning worker on a router.
func (w *World) ViewScores(u dataset.UserID) ([]float64, error) {
	v, err := acquireView(w.lists, u)
	if err != nil {
		return nil, err
	}
	return v.Scores, nil
}

// acquireView returns u's view from s through a one-user AcquireMulti.
func acquireView(s *liststore.Store, u dataset.UserID) (*liststore.View, error) {
	vs, err := s.AcquireMulti([]dataset.UserID{u})
	if err != nil {
		return nil, err
	}
	return vs[0], nil
}

// PlaneStats returns the counters of w's own caches: its list store and
// its predictor's neighborhoods. On a router they leave the workers'
// neighborhoods out, which CacheStats sums in.
func (w *World) PlaneStats() CacheStats {
	return CacheStats{ListStore: w.lists.Stats(), Neighborhoods: w.pred.Stats()}
}

// LoopbackFleet is a set of shard workers served over loopback TCP, in
// process but speaking the real wire protocol, and the shard set that
// reaches them.
type LoopbackFleet struct {
	// Set reaches every worker; it is neither handshaken nor attached.
	Set *remote.ShardSet
	// Backends and Servers are the workers, in the order of the owns
	// they were started with; closing a server stops its worker.
	Backends []*ShardBackend
	Servers  []*remote.Server
}

// StartLoopbackFleet boots one worker per entry of owns with boot, serves
// each on a loopback listener and builds the shard set over them, with
// the shard count of the first backend. Everything closes when tb ends.
func StartLoopbackFleet(tb testing.TB, owns [][]int, boot func(owned []int) (*ShardBackend, error)) *LoopbackFleet {
	tb.Helper()
	f := &LoopbackFleet{}
	var top remote.Topology
	for _, owned := range owns {
		b, err := boot(owned)
		if err != nil {
			tb.Fatalf("shard backend for %v: %v", owned, err)
		}
		srv := remote.NewServer(b)
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			tb.Fatal(err)
		}
		go srv.Serve(lis)
		tb.Cleanup(srv.Close)
		top.Shards = b.Shards()
		top.Workers = append(top.Workers, remote.Worker{Addr: lis.Addr().String(), Owns: owned})
		f.Backends = append(f.Backends, b)
		f.Servers = append(f.Servers, srv)
	}
	set, err := remote.NewShardSet(top, remote.ClientConfig{})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(set.Close)
	f.Set = set
	return f
}
