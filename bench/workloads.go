package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/affinity"
	"repro/internal/dataset"
	"repro/internal/social"
)

// scale is the size of the world and of the request pools. Every
// measured run uses benchScale; the tests shrink it.
type scale struct {
	users, items, ratings     int
	participants, communities int
	// poolGroups is the size of the fixed group pool the repeat
	// workloads draw from. It is large so that two seeds draw pools of
	// nearly the same mean cost; the default list store holds every
	// participant's view, so the pool's size does not cost hits.
	poolGroups int
	// churnListStore is cold_churn's list-store bound.
	churnListStore int
	// ratingItems restricts generated ratings to the most popular
	// items — the ones candidate slices and cached views cover.
	ratingItems int
}

// benchScale is the benchmark's world. Participants are the
// constraint, not raters: the affinity model is quadratic in them and
// HTTP only accepts participants as group members. The sizes were
// chosen so that one world builds in under a second on two cores,
// because the driver's time budget pays for every set-up of every run
// (see README.md, "Sizing"). cold_churn's uniform working set (every
// participant) is 3.75x its list store.
var benchScale = scale{
	users: 2000, items: 1500, ratings: 150_000,
	participants: 600, communities: 50,
	poolGroups: 480, churnListStore: 160, ratingItems: 600,
}

const (
	worldShards = 4
	reqK        = 10
	reqNumItems = 600
	// oracleGroups is how many groups the correctness oracle replays.
	oracleGroups = 32
	// ratingStreamSeed fixes the rating stream (see generator.ratingRng).
	ratingStreamSeed = 1
)

// workload is one traffic mix. Rates and latency limits are frozen:
// each rate is about a third of the closed-loop throughput this commit
// reached on the two-core box the benchmark was calibrated on (a half
// on ingest_mix), and each limit is about four times the p50 seen there.
// At a third, fewer than a quarter of the requests find both
// connections busy even when the machine runs a quarter slower, so the
// median stays a service time; at a half it starts to hold queueing, and
// a slowdown of the machine moves it by twice its own size. They are
// never recomputed at run time, so a slower program shows up as worse
// latency, not as a lighter load.
type workload struct {
	name string
	// rate is the open-loop arrival rate of /v1/recommend, per second.
	rate float64
	// ratingRate is the arrival rate of /v1/ratings (ingest_mix only).
	ratingRate float64
	// sloMS is the fixed latency limit behind slo_ok_ratio.
	sloMS float64
	// churn bounds the list store to scale.churnListStore.
	churn bool
	// fresh draws a new uniform AP g=3 group per request instead of
	// picking from the pool.
	fresh bool
	// wal opens the world with a write-ahead log in a temp directory.
	wal bool
	// workers is the number of loopback shard workers (0 = in-process).
	workers int
}

var workloads = []workload{
	{
		name: "warm_repeat",
		rate: 25, sloMS: 80,
	},
	{
		name: "cold_churn",
		rate: 60, sloMS: 35, churn: true, fresh: true,
	},
	{
		name: "ingest_mix",
		rate: 16, ratingRate: 8, sloMS: 120, wal: true,
	},
	{
		name: "remote_reads",
		rate: 20, sloMS: 80, workers: 2,
	},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, wl := range workloads {
		if wl.name == name {
			return wl, nil
		}
		names = append(names, wl.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// worldConfig is the configuration every replica of a workload's world
// is built from. The world's own seeds stay at their defaults; the
// workload seed only shapes the requests.
func (wl workload) worldConfig(sc scale) repro.Config {
	ds := dataset.DefaultSynthConfig()
	ds.Users, ds.Items, ds.TargetRatings = sc.users, sc.items, sc.ratings
	soc := social.DefaultSynthConfig()
	soc.Users, soc.Communities = sc.participants, sc.communities
	cfg := repro.Config{
		Dataset:     ds,
		Social:      soc,
		Granularity: affinity.TwoMonth,
		Shards:      worldShards,
	}
	if wl.churn {
		cfg.ListStoreSize = sc.churnListStore
	}
	return cfg
}

type opKind uint8

const (
	opRecommend opKind = iota
	opRating
)

// op is one generated request. The program under test only ever sees
// path and body; group, consensus and rating are kept for the traced
// pass and the oracle, which call the layers below HTTP directly.
type op struct {
	kind      opKind
	body      []byte
	group     []dataset.UserID
	consensus string
	rating    dataset.Rating
	// due is the op's scheduled send time, relative to the start of
	// its open-loop phase.
	due time.Duration
}

func (o op) path() string {
	if o.kind == opRating {
		return "/v1/ratings"
	}
	return "/v1/recommend"
}

func recommendOp(group []dataset.UserID, consensus string) op {
	var b strings.Builder
	b.WriteString(`{"group":[`)
	for i, u := range group {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(int(u)))
	}
	fmt.Fprintf(&b, `],"k":%d,"num_items":%d,"consensus":%q}`, reqK, reqNumItems, consensus)
	return op{kind: opRecommend, body: []byte(b.String()), group: group, consensus: consensus}
}

func ratingOp(r dataset.Rating) op {
	body := fmt.Sprintf(`{"user":%d,"item":%d,"value":%g}`, r.User, r.Item, r.Value)
	return op{kind: opRating, body: []byte(body), rating: r}
}

// generator turns the workload seed into requests. Everything it hands
// out is a pure function of (workload, seed, participants, rating
// items) and of the order of the calls, which the harness keeps fixed.
type generator struct {
	wl    workload
	users int
	rng   *rand.Rand
	// ratingRng draws the rating stream, the same for every seed: what a
	// rating costs the reads after it hangs on whether it reorders the
	// popular items the cached views were built over, so two streams of
	// fifty ratings differ by a third in what they cost, and ten seeds
	// spread 24 % on ingest_mix's median where they spread 8 % with the
	// stream fixed. The seed decides when the ratings arrive and what is
	// read beside them.
	ratingRng    *rand.Rand
	participants []dataset.UserID
	// ratingItems are the item ids ratings are drawn from.
	ratingItems []dataset.ItemID
	pool        []op
}

func newGenerator(wl workload, sc scale, seed int64, participants []dataset.UserID, ratingItems []dataset.ItemID) *generator {
	g := &generator{
		wl:           wl,
		users:        sc.users,
		rng:          rand.New(rand.NewSource(seed)),
		ratingRng:    rand.New(rand.NewSource(ratingStreamSeed)),
		participants: participants,
		ratingItems:  ratingItems,
	}
	if !wl.fresh {
		// 50% AP g=5, 25% MO g=5, 25% PD g=3: service times within
		// ~1.5x of each other on this world.
		g.pool = make([]op, sc.poolGroups)
		for i := range g.pool {
			switch i % 4 {
			case 0, 1:
				g.pool[i] = recommendOp(g.drawGroup(5), "AP")
			case 2:
				g.pool[i] = recommendOp(g.drawGroup(5), "MO")
			default:
				g.pool[i] = recommendOp(g.drawGroup(3), "PD")
			}
		}
	}
	return g
}

// drawGroup picks size distinct participants uniformly.
func (g *generator) drawGroup(size int) []dataset.UserID {
	group := make([]dataset.UserID, 0, size)
	for len(group) < size {
		u := g.participants[g.rng.Intn(len(g.participants))]
		dup := false
		for _, v := range group {
			dup = dup || v == u
		}
		if !dup {
			group = append(group, u)
		}
	}
	return group
}

// warmupOps is the closed-loop first pass: every participant once, in
// seeded triples, so that the timed phases start with every
// neighborhood first-touched and as many views built as the list store
// holds. What it costs is what a restart costs.
func (g *generator) warmupOps() []op {
	perm := g.rng.Perm(len(g.participants))
	var ops []op
	for i := 0; i+3 <= len(perm); i += 3 {
		group := []dataset.UserID{g.participants[perm[i]], g.participants[perm[i+1]], g.participants[perm[i+2]]}
		ops = append(ops, recommendOp(group, "AP"))
	}
	return ops
}

// next draws one request of the workload's mix.
func (g *generator) next() op {
	total := g.wl.rate + g.wl.ratingRate
	if g.wl.ratingRate > 0 && g.rng.Float64()*total < g.wl.ratingRate {
		return ratingOp(dataset.Rating{
			User:  dataset.UserID(g.ratingRng.Intn(g.users)),
			Item:  g.ratingItems[g.ratingRng.Intn(len(g.ratingItems))],
			Value: float64(1 + g.ratingRng.Intn(5)),
		})
	}
	if g.wl.fresh {
		return recommendOp(g.drawGroup(3), "AP")
	}
	return g.pool[g.rng.Intn(len(g.pool))]
}

// schedule draws the open-loop phase: Poisson arrivals at the
// workload's merged rate, each stamped with its due time, until d.
func (g *generator) schedule(d time.Duration) []op {
	total := g.wl.rate + g.wl.ratingRate
	var ops []op
	t := 0.0
	for {
		t += g.rng.ExpFloat64() / total
		due := time.Duration(t * float64(time.Second))
		if due >= d {
			return ops
		}
		o := g.next()
		o.due = due
		ops = append(ops, o)
	}
}

// oracleOps are the requests replayed against the reference world.
func (g *generator) oracleOps() []op {
	ops := make([]op, oracleGroups)
	for i := range ops {
		if g.wl.fresh {
			ops[i] = recommendOp(g.drawGroup(3), "AP")
		} else {
			ops[i] = g.pool[g.rng.Intn(len(g.pool))]
		}
	}
	return ops
}
