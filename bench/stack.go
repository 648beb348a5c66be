package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"repro"
	"repro/internal/remote"
	"repro/internal/server"
)

// stack is one served world: the world (plus shard workers on the
// remote workload), the serving layer and its loopback listener.
type stack struct {
	world *repro.World
	srv   *server.Server
	// base is the listener's URL, "http://127.0.0.1:<port>".
	base string
	// walDir is the write-ahead log's directory ("" without a WAL); it
	// outlives close so the caller can reopen it, and removes it.
	walDir string
	// closers run in reverse order on close.
	closers []func()
}

// setUp builds the workload's world(s), starts the server and returns
// once /v1/healthz answers 200; the elapsed time is setup_s.
func setUp(wl workload, sc scale, tmpRoot string) (st *stack, elapsed time.Duration, err error) {
	start := time.Now()
	st = &stack{}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	cfg := wl.worldConfig(sc)
	var cfgSrv server.Config
	switch {
	case wl.wal:
		if st.walDir, err = os.MkdirTemp(tmpRoot, "wal-"); err != nil {
			return st, 0, err
		}
		var open repro.OpenStats
		if st.world, open, err = repro.OpenWorld(cfg, st.walDir); err != nil {
			return st, 0, err
		}
		st.closers = append(st.closers, func() { _ = st.world.ClosePersistence() })
		cfgSrv.OpenStats = &open
	case wl.workers > 0:
		set, err := st.startWorkers(wl, cfg)
		if err != nil {
			return st, 0, err
		}
		if st.world, err = repro.NewWorld(cfg); err != nil {
			return st, 0, err
		}
		if err = st.world.AttachRemote(set); err != nil {
			return st, 0, err
		}
	default:
		if st.world, err = repro.NewWorld(cfg); err != nil {
			return st, 0, err
		}
	}

	st.srv = server.New(st.world, cfgSrv)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return st, 0, err
	}
	hs := &http.Server{Handler: st.srv.Handler()}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = hs.Serve(lis) // returns ErrServerClosed on Shutdown
	}()
	st.closers = append(st.closers, func() {
		// Stop HTTP first, then drain the coalescer, as Server.Close asks.
		_ = hs.Shutdown(context.Background())
		<-served
		st.srv.Close()
	})
	st.base = "http://" + lis.Addr().String()

	resp, err := http.Get(st.base + "/v1/healthz")
	if err != nil {
		return st, 0, err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, 0, fmt.Errorf("healthz answered %d", resp.StatusCode)
	}
	http.DefaultClient.CloseIdleConnections()
	return st, time.Since(start), nil
}

// startWorkers brings up the loopback shard workers — each a full
// replica behind the real wire protocol — with the shards dealt
// round-robin, and returns the client set the router attaches.
func (st *stack) startWorkers(wl workload, cfg repro.Config) (*remote.ShardSet, error) {
	// The replicas build at the same time, as separate worker processes
	// starting together would.
	worlds := make([]*repro.World, wl.workers)
	errs := make([]error, wl.workers)
	var wg sync.WaitGroup
	for i := range worlds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			worlds[i], errs[i] = repro.NewWorld(cfg)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}

	top := remote.Topology{Shards: worldShards}
	for i, w := range worlds {
		var owned []int
		for sh := i; sh < worldShards; sh += wl.workers {
			owned = append(owned, sh)
		}
		backend, err := repro.NewShardBackend(w, owned)
		if err != nil {
			return nil, err
		}
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		rs := remote.NewServer(backend)
		served := make(chan struct{})
		go func() {
			defer close(served)
			_ = rs.Serve(lis) // returns once Close stops the listener
		}()
		st.closers = append(st.closers, func() {
			rs.Close()
			_ = lis.Close() // in case Close ran before Serve took the listener
			<-served
		})
		top.Workers = append(top.Workers, remote.Worker{Addr: lis.Addr().String(), Owns: owned})
	}
	// Through ParseTopology, like greca-serve: it validates ownership.
	raw, err := json.Marshal(top)
	if err != nil {
		return nil, err
	}
	if top, err = remote.ParseTopology(raw); err != nil {
		return nil, err
	}
	set, err := remote.NewShardSet(top, remote.ClientConfig{})
	if err != nil {
		return nil, err
	}
	st.closers = append(st.closers, set.Close)
	return set, nil
}

// close stops the server, the shard set, the workers and the WAL, in
// that order. The WAL directory is left for the caller.
func (st *stack) close() {
	for i := len(st.closers) - 1; i >= 0; i-- {
		st.closers[i]()
	}
	st.closers = nil
}

// discard closes the stack and removes its WAL directory.
func (st *stack) discard() {
	st.close()
	if st.walDir != "" {
		os.RemoveAll(st.walDir)
	}
}

// serve answers one request through a handler without a connection:
// how the harness reads /v1/stats and queries reference worlds.
func serve(h http.Handler, method, path string, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}
