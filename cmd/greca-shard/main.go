// Command greca-shard runs one GRECA shard worker: a process that
// owns a subset of the world's user shards and serves their data
// plane — sorted-view score vectors, prediction rows, rating ingest,
// cache counters — to a greca-serve router over the internal/remote
// binary protocol.
//
// Usage:
//
//	greca-shard -addr 127.0.0.1:9101 -owns 0,2 -shards 4
//	            [-ratings ratings.dat] [-seed N]
//	            [-liststore 1024]
//	            [-http 127.0.0.1:9201] [-v]
//
// Every worker builds the full deterministic world from the same
// configuration as the router (same -seed, -ratings, -shards); the
// connection handshake carries the config fingerprint and refuses a
// mismatched peer. Ownership (-owns) decides only which shards this
// process answers for — a request for a user outside the owned shards
// is rejected with wrong_shard. The router's topology file must assign
// every shard to exactly one worker.
//
// -http optionally exposes a shard-local observability surface on a
// separate listener:
//
//	GET /v1/healthz   liveness
//	GET /v1/stats     owned shards and per-shard cache counters
//
// On SIGINT/SIGTERM the worker stops accepting, severs live
// connections, and exits; the router answers 503 ("shard_unavailable")
// with Retry-After for the shards this worker owned until it is
// restarted.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"repro"
	"repro/internal/liststore"
	"repro/internal/remote"
)

// requirePositive rejects non-positive size flags with a clean usage
// error (exit 2, like flag's own failures).
func requirePositive(name string, v int) {
	if v <= 0 {
		fmt.Fprintf(os.Stderr, "greca-shard: %s must be positive, got %d\n", name, v)
		flag.Usage()
		os.Exit(2)
	}
}

// parseOwns parses the -owns flag: a comma-separated list of shard
// indices ("0,2"). Range and duplicate checks live in NewShardBackend;
// this only rejects non-numeric input.
func parseOwns(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("empty shard list")
	}
	parts := strings.Split(s, ",")
	owned := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad shard index %q", p)
		}
		owned = append(owned, n)
	}
	return owned, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("greca-shard: ")

	var (
		addr      = flag.String("addr", "127.0.0.1:9101", "RPC listen address")
		owns      = flag.String("owns", "", "comma-separated shard indices this worker owns (required)")
		ratings   = flag.String("ratings", "", "optional MovieLens-format ratings file (UserID::MovieID::Rating::Timestamp)")
		seed      = flag.Int64("seed", 1, "synthetic world seed (must match the router)")
		listStore = flag.Int("liststore", liststore.DefaultMaxUsers, "sorted-list store user-view bound (must be positive)")
		shards    = flag.Int("shards", 1, "user-range shard count (must match the router)")
		httpAddr  = flag.String("http", "", "serve shard-local /v1/stats and /v1/healthz on this address (empty = off)")
		verbose   = flag.Bool("v", false, "print substrate statistics")
	)
	flag.Parse()

	requirePositive("-liststore", *listStore)
	requirePositive("-shards", *shards)
	owned, err := parseOwns(*owns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "greca-shard: -owns: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}

	// The worker's world must be byte-identical to the router's: same
	// config, same seeds, same ratings. The handshake fingerprint
	// catches drift, but only for the knobs that shape data — getting
	// these flags right is still on the operator.
	cfg := repro.QuickConfig()
	cfg.Dataset.Seed = *seed
	cfg.Social.Seed = *seed + 1
	cfg.ListStoreSize = *listStore
	cfg.Shards = *shards
	if *ratings != "" {
		f, err := os.Open(*ratings)
		if err != nil {
			log.Fatalf("opening ratings: %v", err)
		}
		defer f.Close()
		cfg.RatingsReader = f
	}

	log.Printf("building world (seed %d, %d shards)...", *seed, *shards)
	world, err := repro.NewWorld(cfg)
	if err != nil {
		log.Fatalf("building world: %v", err)
	}
	if *verbose {
		st := world.Ratings().Stats()
		fmt.Printf("world: %d users, %d items, %d ratings, fingerprint %016x\n",
			st.Users, st.Items, st.Ratings, world.ConfigFingerprint())
	}

	backend, err := repro.NewShardBackend(world, owned)
	if err != nil {
		log.Fatalf("shard ownership: %v", err)
	}
	srv := remote.NewServer(backend)

	lis, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}

	// Shard-local observability: liveness plus the worker's own view of
	// its cache counters, on a listener separate from the RPC plane.
	if *httpAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/v1/healthz", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintln(w, `{"status":"ok"}`)
		})
		mux.HandleFunc("/v1/stats", func(w http.ResponseWriter, r *http.Request) {
			resp := struct {
				Shards   int                 `json:"shards"`
				Owned    []int               `json:"owned"`
				PerShard []remote.ShardStats `json:"per_shard"`
			}{
				Shards:   *shards,
				Owned:    owned,
				PerShard: backend.ShardStats(),
			}
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(resp)
		})
		go func() {
			log.Printf("stats on http://%s/v1/stats", *httpAddr)
			if err := http.ListenAndServe(*httpAddr, mux); err != nil {
				log.Printf("stats listener: %v", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(lis) }()
	log.Printf("serving shards %v of %d on %s (fingerprint %016x)",
		owned, *shards, lis.Addr(), world.ConfigFingerprint())

	select {
	case err := <-errc:
		log.Fatalf("listener: %v", err)
	case <-ctx.Done():
	}
	log.Print("shutting down")
	srv.Close()
}
