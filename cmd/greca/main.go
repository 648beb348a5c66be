// Command greca computes temporal affinity-aware top-k group
// recommendations. It builds a deterministic synthetic world (or loads
// a MovieLens-format ratings file) and runs GRECA for the requested
// group.
//
// Usage:
//
//	greca -group 1,5,9 [-k 10] [-items 3900] [-consensus AP|MO|PD1|PD2|VD]
//	      [-model discrete|continuous|static|none] [-period N]
//	      [-ratings ratings.dat] [-mode greca|threshold|fullscan] [-seed N]
//	      [-liststore 1024] [-shards 1] [-snapshot dir] [-deadline 500ms]
//	      [-stream]
//
// -shards hashes users onto N shards, the routing unit of a
// distributed deployment; it is part of the configuration fingerprint
// -snapshot checks, and results are identical for every shard count.
// -liststore and -shards must be positive — a zero or negative value
// is a usage error, not a silent clamp.
//
// -snapshot reuses (or creates) a greca-serve persistence directory:
// the world is rebuilt from its snapshot when one matches the
// configuration, and journaled ratings are replayed, so a one-shot
// query sees exactly what the server saw — including live-ingested
// ratings — without re-reading the source dataset.
//
// Several groups may be given separated by ";" — they are then scored
// concurrently through World.RecommendBatchContext, sharing sorted-list views
// across groups.
//
// -deadline bounds the whole computation: when it expires, in-flight
// runs stop within one stopping-check interval; groups already scored
// still print their results, expired ones report the deadline.
// -stream switches to the anytime API, printing one line of
// progressively tightening bounds per stopping check before the final
// list — with a deadline, an interrupted stream prints the partial
// top-k it reached, marked "partial".
//
// Examples:
//
//	greca -group 1,5,9
//	greca -group "1,5,9;2,3,4;1,5,9,11" -deadline 2s
//	greca -group 0,1,2,3,4,5 -consensus PD1 -model continuous -k 5
//	greca -group 1,5,9 -stream
//	greca -group 2,7 -ratings ml-1m/ratings.dat
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"repro"
	"repro/cmd/internal/worldflags"
	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/dataset"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("greca: ")

	var (
		groupFlag = flag.String("group", "", "comma-separated participant user ids (required)")
		k         = flag.Int("k", 10, "result size")
		items     = flag.Int("items", 3900, "candidate item count")
		consFlag  = flag.String("consensus", "AP", "consensus function: AP, MO, PD1 (w1=0.8), PD2 (w1=0.2), VD")
		modelFlag = flag.String("model", "discrete", "affinity model: discrete, continuous, static, none")
		period    = flag.Int("period", 0, "1-based 'now' period (0 = latest)")
		modeFlag  = flag.String("mode", "greca", "executor: greca, threshold, fullscan")
		worldFlag = worldflags.Define("synthetic world seed", "shard count users are routed onto (must be positive; must match the server's for -snapshot)")
		snapshot  = flag.String("snapshot", "", "persistence directory: rebuild the world from its snapshot + rating WAL when present")
		deadline  = flag.Duration("deadline", 0, "overall computation deadline (0 = none); expired runs return partial results")
		stream    = flag.Bool("stream", false, "stream progressively tightening bounds per stopping check (anytime API)")
		verbose   = flag.Bool("v", false, "print substrate statistics")
	)
	flag.Parse()

	if *groupFlag == "" {
		flag.Usage()
		os.Exit(2)
	}
	cfg, err := worldFlag.Config()
	if err != nil {
		log.Fatal(err)
	}
	defer worldFlag.Close()
	groupSets, err := parseGroups(*groupFlag)
	if err != nil {
		log.Fatal(err)
	}
	spec, err := consensus.Parse(*consFlag)
	if err != nil {
		log.Fatal(err)
	}
	tm, err := repro.ParseTimeModel(*modelFlag)
	if err != nil {
		log.Fatal(err)
	}
	mode, err := parseMode(*modeFlag)
	if err != nil {
		log.Fatal(err)
	}

	world, open, err := repro.OpenWorld(cfg, *snapshot)
	if err != nil {
		log.Fatalf("building world: %v", err)
	}
	defer world.ClosePersistence()
	if open.DiscardedRatings > 0 {
		fmt.Fprintf(os.Stderr, "journal reset: %d acknowledged ratings discarded (configuration fingerprint changed)\n", open.DiscardedRatings)
	}
	if *verbose {
		st := world.Ratings().Stats()
		fmt.Printf("world: %d users, %d items, %d ratings, %d participants, %d periods\n",
			st.Users, st.Items, st.Ratings, len(world.Participants()), world.Timeline().NumPeriods())
		if *snapshot != "" {
			fmt.Printf("persistence: warm=%t, %d ratings replayed\n", open.Warm, open.ReplayedRatings)
		}
	}
	for _, group := range groupSets {
		for _, u := range group {
			found := false
			for _, p := range world.Participants() {
				if p == u {
					found = true
					break
				}
			}
			if !found {
				log.Fatalf("user %d is not a study participant (ids 0..%d)", u, len(world.Participants())-1)
			}
		}
	}

	opt := repro.Options{
		K:         *k,
		NumItems:  *items,
		Consensus: spec,
		TimeModel: tm,
		Period:    *period,
		Mode:      mode,
	}
	ctx := context.Background()
	if *deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *deadline)
		defer cancel()
	}

	if *stream {
		// The anytime path: one group at a time, progress per check.
		for _, group := range groupSets {
			rec, err := world.RecommendStream(ctx, group, opt, func(p repro.Progress) bool {
				fmt.Printf("  [check %4d, round %4d] accesses %d/%d  gap=%.4f  top=%s\n",
					p.Stats.Checks, p.Round, p.Stats.SequentialAccesses,
					p.Stats.TotalEntries, p.BoundGap(), topLine(p.Items, 3))
				return true
			})
			if err != nil && rec == nil {
				log.Fatalf("streaming for group %v: %v", group, err)
			}
			if err != nil {
				fmt.Printf("deadline expired for group %v; partial result:\n", group)
			}
			printRecommendation(group, rec, *k, spec, tm)
		}
		return
	}

	reqs := make([]repro.Request, len(groupSets))
	for i, group := range groupSets {
		reqs[i] = repro.Request{Group: group, Options: opt}
	}
	results := world.RecommendBatchContext(ctx, reqs)

	expired := 0
	for gi, res := range results {
		switch {
		case res.Err != nil && ctx.Err() != nil && errors.Is(res.Err, ctx.Err()):
			// Deadline hit mid-sweep: completed groups still print
			// below; this one didn't make the cut.
			fmt.Printf("group %v: no result before the deadline (%v)\n", groupSets[gi], res.Err)
			expired++
		case res.Err != nil:
			log.Fatalf("recommending for group %v: %v", groupSets[gi], res.Err)
		default:
			printRecommendation(groupSets[gi], res.Recommendation, *k, spec, tm)
		}
	}
	if expired > 0 {
		fmt.Printf("%d of %d groups expired; re-run with -stream for partial results or raise -deadline\n",
			expired, len(results))
	}
}

// printRecommendation renders one group's (possibly partial) result.
func printRecommendation(group []dataset.UserID, rec *repro.Recommendation, k int, spec consensus.Spec, tm repro.TimeModel) {
	label := fmt.Sprintf("top-%d", k)
	if rec.Partial {
		label = fmt.Sprintf("partial top-%d (run interrupted)", len(rec.Items))
	}
	fmt.Printf("%s for group %v (%v consensus, %v model, period %d):\n",
		label, group, spec, tm, rec.Period+1)
	for i, item := range rec.Items {
		fmt.Printf("  %2d. item %-6d score=%.4f", i+1, item.Item, item.Score)
		if item.UpperBound > item.Score {
			fmt.Printf(" (ub %.4f)", item.UpperBound)
		}
		fmt.Println()
	}
	fmt.Printf("accesses: %d/%d (%.1f%%, %.1f%% saved), stop=%v\n",
		rec.Stats.SequentialAccesses, rec.Stats.TotalEntries,
		rec.Stats.PercentSA(), rec.Stats.Saveup(), rec.Stats.Stop)
}

// topLine compactly renders the first n items of a progress snapshot.
func topLine(items []repro.ProgressItem, n int) string {
	if n > len(items) {
		n = len(items)
	}
	var b strings.Builder
	b.WriteString("[")
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%d:%.3f..%.3f", items[i].Item, items[i].Score, items[i].UpperBound)
	}
	b.WriteString("]")
	return b.String()
}

func parseGroups(s string) ([][]dataset.UserID, error) {
	var out [][]dataset.UserID
	for _, part := range strings.Split(s, ";") {
		g, err := parseGroup(part)
		if err != nil {
			return nil, err
		}
		out = append(out, g)
	}
	return out, nil
}

func parseGroup(s string) ([]dataset.UserID, error) {
	var out []dataset.UserID
	for _, part := range strings.Split(s, ",") {
		id, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad user id %q: %v", part, err)
		}
		out = append(out, dataset.UserID(id))
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty group")
	}
	return out, nil
}

func parseMode(s string) (core.Mode, error) {
	switch strings.ToLower(s) {
	case "greca":
		return core.ModeGRECA, nil
	case "threshold":
		return core.ModeThresholdExact, nil
	case "fullscan", "full-scan":
		return core.ModeFullScan, nil
	default:
		return 0, fmt.Errorf("unknown mode %q (want greca, threshold, fullscan)", s)
	}
}
