// Command greca-serve exposes the recommendation engine over HTTP.
// Each request runs on its own handler goroutine as soon as it is
// admitted; concurrent requests share work through the engine's
// content-keyed caches, not by waiting for each other.
//
// Usage:
//
//	greca-serve [-addr :8080] [-maxpending 0]
//	            [-ratings ratings.dat] [-seed N]
//	            [-liststore 1024] [-shards 1] [-shards-config topology.json]
//	            [-snapshot dir] [-pprof localhost:6060] [-v]
//
// -snapshot names a persistence directory: on boot the world's
// ratings are rebuilt from its snapshot when one matches the
// configuration (a warm restart; the snapshot holds the ratings only,
// so views and neighborhoods fill on first use as on a cold boot),
// ratings journaled since that snapshot are replayed from the
// write-ahead log (one file, wal.log, in acknowledgement order), and
// every rating accepted by POST /v1/ratings is journaled before the
// request is acknowledged. On SIGTERM, after the listener drains, a
// fresh snapshot is written and the log truncated, so the next boot
// replays nothing. A snapshot from a different configuration (or a
// corrupted one) is discarded and the world boots cold — restarts are
// always safe, at worst slow.
//
// -pprof binds net/http/pprof's debug routes to a separate listener on
// the given address (off by default; the service handler never carries
// them), for profiling live traffic:
//
//	go tool pprof http://localhost:6060/debug/pprof/allocs
//
// -shards routes users onto N shards by hashing on UserID — the unit
// -shards-config assigns to worker processes; in one process it
// changes no structure, and recommendations are identical for every
// shard count. -liststore and -shards must be positive — a zero or
// negative size is a usage error, not a silent clamp.
//
// -shards-config switches the shards into worker processes: it names
// a JSON topology file ({"shards": 4, "workers": [{"addr":
// "127.0.0.1:9101", "owns": [0, 2]}, ...]}) mapping every shard to
// exactly one greca-shard worker. The router then fetches each user's
// view scores from the worker owning its shard, predicts any dense rows
// (a candidate slice the views cannot serve) from its own replica, fans
// every ingested rating out to all replicas, and reports the workers'
// cache counters under /v1/stats — serving byte-identical responses
// to the in-process world at the same shard count. Workers must be
// started first (same world flags: -seed, -ratings, -shards) — the
// boot handshake refuses a worker built from a different world. A
// worker dying degrades only the shards it owns: view reads touching
// them answer 503 ("shard_unavailable") with Retry-After, or 504
// ("shard_timeout") on deadline, while other shards keep serving;
// rating ingest stays accepted (durable locally and on live replicas)
// with missed fanout deliveries counted in /v1/stats and the lagging
// worker fenced from serving.
//
// Router and workers speak one protocol version and must be deployed
// from the same build; a worker from another build is refused at the
// handshake.
//
// With -shards-config the router's sorted-list store (-liststore) keeps
// the views it fetches from workers, which keep none: it is the
// deployment's one view cache, the same store the in-process world
// uses, fetching instead of building: each ingested
// rating drops every view once the workers have applied it, and a
// fetch still in flight when that sweep passes is never kept, so a
// warm hit serves bytes identical to a fresh fetch.
//
// Endpoints (API v1 — the only prefix; unversioned paths answer 404):
//
//	POST /v1/recommend         {"group":[1,5,9],"k":10,"num_items":3900,
//	                            "consensus":"AP","model":"discrete","period":0,
//	                            "epsilon":0}
//	                           epsilon > 0 enables bound-gap ε stopping:
//	                           the run ends once the threshold/kth-LB
//	                           gap sinks below ε, answering with the
//	                           ε-approximate top-k ("stop":"epsilon",
//	                           "partial":true).
//	POST /v1/recommend/batch   {"requests":[{...},{...}]}
//	POST /v1/ratings           {"user":1,"item":42,"value":4.5,"time":978300000}
//	                           ingests one rating into the live world:
//	                           folded into the store, journaled,
//	                           and every affected cache invalidated, so
//	                           the next recommendation reflects it
//	                           exactly as a cold rebuild would;
//	                           answers {"applied":true}.
//	POST /v1/recommend/stream  same body (+ optional "progress_every": N);
//	                           answers Server-Sent Events: "progress"
//	                           frames with the partial top-k and its
//	                           converging bounds, then one "result"
//	                           frame. Disconnecting cancels the run
//	                           within one stopping-check interval.
//	GET  /v1/healthz           liveness
//	GET  /v1/stats             admission, batch, stream + cache counters
//	                           (under -shards-config the router's own
//	                           list store and the neighborhoods of the
//	                           router and every live worker), plus
//	                           ingest counters and
//	                           (under -snapshot) the boot's persistence
//	                           report
//
// Client errors carry a machine-readable "code" ("empty_group",
// "duplicate_member", "period_out_of_range", "k_exceeds_candidates",
// "unknown_user", "unknown_item", "bad_rating", ...) beside the
// message; unknown methods on known routes answer 405 with an Allow
// header.
//
// On SIGINT/SIGTERM the listener stops accepting, in-flight requests
// finish, and (under -snapshot) a final snapshot is written before
// exit.
//
// Examples:
//
//	greca-serve -addr :8080 -maxpending 256
//	curl -s localhost:8080/v1/recommend -d '{"group":[1,5,9],"k":5,"num_items":200}'
//	curl -sN localhost:8080/v1/recommend/stream -d '{"group":[1,5,9],"k":5,"num_items":400}'
//	curl -s localhost:8080/v1/stats
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // debug routes, exposed only via the -pprof listener
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro"
	"repro/cmd/internal/worldflags"
	"repro/internal/remote"
	"repro/internal/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("greca-serve: ")

	var (
		addr       = flag.String("addr", ":8080", "listen address")
		maxPending = flag.Int("maxpending", 0, "in-flight request bound; beyond it requests are shed with 429 (0 = unbounded)")
		worldFlag  = worldflags.Define("synthetic world seed", "shard count users are routed onto, the unit -shards-config assigns to workers (must be positive)")
		shardsConf = flag.String("shards-config", "", "JSON topology file mapping shards to greca-shard workers (empty = serve every shard in this process)")
		snapshot   = flag.String("snapshot", "", "persistence directory: warm-restart snapshot + rating WAL (empty = no persistence)")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty = off)")
		verbose    = flag.Bool("v", false, "print substrate statistics")
	)
	flag.Parse()

	cfg, err := worldFlag.Config()
	if err != nil {
		log.Fatal(err)
	}
	defer worldFlag.Close()

	log.Printf("building world (seed %d)...", cfg.Dataset.Seed)
	bootStart := time.Now()
	world, open, err := repro.OpenWorld(cfg, *snapshot)
	if err != nil {
		log.Fatalf("building world: %v", err)
	}
	log.Printf("world up in %v (boot: %v)", time.Since(bootStart).Round(10*time.Microsecond), world.BootTimes())
	var openStats *repro.OpenStats
	if *snapshot != "" {
		openStats = &open
		if open.Warm {
			log.Printf("warm restart from %s: %d ratings replayed", *snapshot, open.ReplayedRatings)
		} else {
			log.Printf("cold start (no usable snapshot in %s): %d ratings replayed", *snapshot, open.ReplayedRatings)
		}
		if open.DiscardedRatings > 0 {
			log.Printf("journal reset: %d acknowledged ratings discarded (configuration fingerprint changed)", open.DiscardedRatings)
		}
	}
	if *verbose {
		st := world.Ratings().Stats()
		fmt.Printf("world: %d users, %d items, %d ratings, %d participants, %d periods\n",
			st.Users, st.Items, st.Ratings, len(world.Participants()), world.Timeline().NumPeriods())
	}

	// Distributed mode: resolve the topology, handshake every worker
	// (config fingerprint + shard count must match this process), and
	// route each user's data plane to the worker owning its shard. A
	// worker that cannot be reached or disagrees about the world is a
	// boot failure — better to refuse than to serve a world that
	// silently diverges.
	if *shardsConf != "" {
		top, err := remote.LoadTopology(*shardsConf)
		if err != nil {
			log.Fatalf("loading shard topology: %v", err)
		}
		set, err := remote.NewShardSet(top, remote.ClientConfig{})
		if err != nil {
			log.Fatalf("building shard set: %v", err)
		}
		if err := world.AttachRemote(set); err != nil {
			log.Fatalf("attaching shard workers: %v", err)
		}
		log.Printf("distributed mode: %d shards on workers %v", top.Shards, set.Addrs())
	}

	srv := server.New(world, server.Config{MaxPending: *maxPending, OpenStats: openStats})
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("serving on %s (%d shards)", *addr, world.Shards())

	// Profiling stays off the service handler: the pprof routes live on
	// their own listener, bound only when -pprof names an address, so
	// the public surface never exposes them by accident. The profiling
	// listener is not part of the drain path — it dies with the process.
	if *pprofAddr != "" {
		go func() {
			log.Printf("pprof on http://%s/debug/pprof/", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("pprof listener: %v", err)
			}
		}()
	}

	select {
	case err := <-errc:
		log.Fatalf("listener: %v", err)
	case <-ctx.Done():
	}

	// Drain: stop accepting, then let in-flight handlers finish.
	log.Print("shutting down: draining in-flight requests...")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("shutdown: %v", err)
	}
	srv.Close()
	if *snapshot != "" {
		// Final snapshot after the listener has drained: no handler can
		// race an AddRating in, so the dump, the caches, and the log
		// reset describe the same world.
		if err := repro.SaveWorldSnapshot(world, *snapshot); err != nil {
			log.Printf("saving snapshot: %v", err)
		} else {
			log.Printf("snapshot saved to %s", *snapshot)
		}
		if err := world.ClosePersistence(); err != nil {
			log.Printf("closing rating log: %v", err)
		}
	}
	st := srv.Coalescer().Stats()
	log.Printf("served %d requests (%d shed)", st.Requests, st.Shed)
}
