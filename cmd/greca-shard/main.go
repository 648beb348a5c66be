// Command greca-shard runs one GRECA shard worker: a process that
// owns a subset of the world's user shards and answers three ops for
// them — sorted-view score vectors, rating applies, neighborhood-cache
// counters — to a greca-serve router over the internal/remote binary
// protocol.
//
// Usage:
//
//	greca-shard -addr 127.0.0.1:9101 -owns 0,2 -shards 4
//	            [-ratings ratings.dat] [-seed N]
//	            [-liststore 1024]
//	            [-http 127.0.0.1:9201] [-v]
//
// Every worker builds the same deterministic rating store as the router
// from the same configuration (same -seed, -ratings, -shards); the
// connection handshake carries the config fingerprint and refuses a
// mismatched peer. A worker builds only a world's user plane — the
// rating store and the predictor — and never the social network or the
// affinity model, which only a router's assembly reads. It computes
// every score vector it serves and keeps none: the router's list store
// is the deployment's one view cache, so -liststore is accepted, like
// the rest of the world flags, and sizes nothing here. Ownership (-owns)
// decides only which shards this process answers for — a request for a
// user outside the owned shards is rejected with wrong_shard. The
// router's topology file must assign every shard to exactly one worker.
//
// -http optionally exposes a shard-local observability surface on a
// separate listener:
//
//	GET /v1/healthz   liveness
//	GET /v1/stats     owned shards and the worker's neighborhood-cache totals
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
	"repro/cmd/internal/worldflags"
	"repro/internal/remote"
)

// parseOwns parses the -owns flag: a comma-separated list of shard
// indices ("0,2"). Range and duplicate checks live in
// NewShardBackendFromConfig; this only rejects non-numeric input.
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

// newBackend boots the worker's backend: the rating store and the user
// plane over it, and nothing of a world's global plane — no social
// network, no affinity model, which only a router's assembly reads.
func newBackend(cfg repro.Config, owned []int, verbose bool) (*repro.ShardBackend, error) {
	log.Printf("building user plane (seed %d, %d shards)...", cfg.Dataset.Seed, cfg.Shards)
	backend, err := repro.NewShardBackendFromConfig(cfg, owned)
	if err != nil {
		return nil, fmt.Errorf("building shard backend: %w", err)
	}
	log.Printf("boot: %v", backend.BootTimes())
	if verbose {
		st := backend.Ratings().Stats()
		fmt.Printf("user plane: %d users, %d items, %d ratings, fingerprint %016x\n",
			st.Users, st.Items, st.Ratings, backend.Fingerprint())
	}
	return backend, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("greca-shard: ")

	var (
		addr      = flag.String("addr", "127.0.0.1:9101", "RPC listen address")
		owns      = flag.String("owns", "", "comma-separated shard indices this worker owns (required)")
		worldFlag = worldflags.Define("synthetic world seed (must match the router)", "shard count users are routed onto (must be positive; must match the router)")
		httpAddr  = flag.String("http", "", "serve shard-local /v1/stats and /v1/healthz on this address (empty = off)")
		verbose   = flag.Bool("v", false, "print substrate statistics")
	)
	flag.Parse()

	// The worker's world must be byte-identical to the router's: same
	// config, same seeds, same ratings. The handshake fingerprint
	// catches drift, but only for the knobs that shape data — getting
	// these flags right is still on the operator.
	cfg, err := worldFlag.Config()
	if err != nil {
		log.Fatal(err)
	}
	defer worldFlag.Close()
	owned, err := parseOwns(*owns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "greca-shard: -owns: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	backend, err := newBackend(cfg, owned, *verbose)
	if err != nil {
		log.Fatal(err)
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
				Shards int   `json:"shards"`
				Owned  []int `json:"owned"`
				remote.Stats
			}{
				Shards: cfg.Shards,
				Owned:  owned,
				Stats:  backend.Stats(),
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
		owned, cfg.Shards, lis.Addr(), backend.Fingerprint())

	select {
	case err := <-errc:
		log.Fatalf("listener: %v", err)
	case <-ctx.Done():
	}
	log.Print("shutting down")
	srv.Close()
}
