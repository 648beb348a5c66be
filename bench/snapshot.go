package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"syscall"
	"time"
)

// cacheCounters mirrors cf.CacheStats as /v1/stats prints it.
type cacheCounters struct {
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	Size        int    `json:"size"`
	Invalidated uint64 `json:"invalidated"`
	Retained    uint64 `json:"retained"`
}

// serverStats is the part of GET /v1/stats the benchmark reads. Every
// layer below the facade is observed through this document and nothing
// else, so a refactor that keeps the stats shape keeps the benchmark.
type serverStats struct {
	Coalescer struct {
		Requests uint64 `json:"requests"`
		Windows  uint64 `json:"windows"`
		Shed     uint64 `json:"shed"`
	} `json:"coalescer"`
	Mux struct {
		Runs   int64 `json:"runs"`
		Shared int64 `json:"shared"`
	} `json:"mux"`
	Caches struct {
		RowCache  cacheCounters `json:"row_cache"`
		ListStore struct {
			ViewHits      uint64 `json:"view_hits"`
			ViewBuilds    uint64 `json:"view_builds"`
			Invalidations uint64 `json:"invalidations"`
			Evictions     uint64 `json:"evictions"`
			Retained      uint64 `json:"retained"`
			Patched       uint64 `json:"patched"`
			Size          int    `json:"size"`
		} `json:"list_store"`
		Neighborhoods cacheCounters `json:"neighborhoods"`
	} `json:"caches"`
	Ingest struct {
		Posts uint64 `json:"posts"`
		Store struct {
			Pending int `json:"pending"`
		} `json:"store"`
	} `json:"ingest"`
	Remote struct {
		Transport struct {
			CallsByOp    map[string]uint64 `json:"calls_by_op"`
			Retries      uint64            `json:"retries"`
			BreakerOpens uint64            `json:"breaker_opens"`
			Dials        uint64            `json:"dials"`
			ConnReuses   uint64            `json:"conn_reuses"`
		} `json:"transport"`
		ViewCache struct {
			Hits uint64 `json:"hits"`
		} `json:"view_cache"`
	} `json:"remote"`
}

func (s serverStats) rpcs() (total, views uint64) {
	for op, n := range s.Remote.Transport.CallsByOp {
		total += n
		if op == "view" || op == "view_multi" {
			views += n
		}
	}
	return total, views
}

// readStats fetches /v1/stats through the handler, without taking one
// of the load generator's connections.
func readStats(h http.Handler) (serverStats, error) {
	var s serverStats
	code, body := serve(h, http.MethodGet, "/v1/stats", nil)
	if code != http.StatusOK {
		return s, fmt.Errorf("/v1/stats answered %d", code)
	}
	if err := json.Unmarshal(body, &s); err != nil {
		return s, fmt.Errorf("decoding /v1/stats: %w", err)
	}
	return s, nil
}

// processStats is the whole process's resource use: load generator,
// router and, on the remote workload, the shard workers.
type processStats struct {
	cpu      time.Duration
	mallocs  uint64
	allocB   uint64
	gcPause  time.Duration
	maxRSSKB int64
}

func readProcess() processStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p := processStats{
		mallocs: ms.Mallocs,
		allocB:  ms.TotalAlloc,
		gcPause: time.Duration(ms.PauseTotalNs),
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		p.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		p.maxRSSKB = int64(ru.Maxrss)
	}
	return p
}

// snapshot is what the harness records at a phase boundary, so that
// every counter it reports is a difference over one phase.
type snapshot struct {
	stats serverStats
	proc  processStats
}

func takeSnapshot(h http.Handler) (snapshot, error) {
	s, err := readStats(h)
	return snapshot{stats: s, proc: readProcess()}, err
}

// liveHeapMB is the heap still reachable after a collection.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
