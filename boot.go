package repro

import (
	"fmt"
	"time"

	"repro/internal/dataset"
	"repro/internal/shard"
	"repro/internal/social"
)

// This file holds the stages of a boot that NewWorld and a shard
// worker's NewShardBackendFromConfig share: the configuration checks,
// the ratings arm, and — NewWorld's alone — the network arm.

// BootTimes is how long each stage of a boot took. Ratings and Network
// run at once (see NewWorld), so a boot's wall time is the longer of the
// two plus the stages after the join. A shard worker booted by
// NewShardBackendFromConfig builds neither the network nor the model;
// both read 0.
type BootTimes struct {
	// Ratings is the rating store: rebuilt from a snapshot, loaded from
	// RatingsReader, or generated.
	Ratings time.Duration
	// Network is the social network: loaded from the readers or
	// generated.
	Network time.Duration
	// UserPlane is the CF predictor, the list store and the pool's item
	// positions (newUserPlane).
	UserPlane time.Duration
	// Model is the temporal affinity model.
	Model time.Duration
}

func (b BootTimes) String() string {
	r := func(d time.Duration) time.Duration { return d.Round(10 * time.Microsecond) }
	if b.Network == 0 && b.Model == 0 {
		return fmt.Sprintf("ratings %v, then user plane %v", r(b.Ratings), r(b.UserPlane))
	}
	return fmt.Sprintf("ratings %v and network %v at once, then user plane %v, affinity model %v",
		r(b.Ratings), r(b.Network), r(b.UserPlane), r(b.Model))
}

// BootTimes reports how long each stage of the world's boot took.
func (w *World) BootTimes() BootTimes { return w.boot }

// bootConfig checks the configuration's sizes and returns the shard map
// and the social configuration (the default one when unset) a boot
// builds from.
func bootConfig(cfg Config) (*shard.Map, social.SynthConfig, error) {
	var scfg social.SynthConfig
	// Routing: the one map the router and the workers agree on.
	if cfg.Shards < 0 {
		return nil, scfg, fmt.Errorf("repro: negative Shards %d", cfg.Shards)
	}
	if cfg.ListStoreSize < 0 {
		return nil, scfg, fmt.Errorf("repro: negative ListStoreSize %d", cfg.ListStoreSize)
	}
	nShards := cfg.Shards
	if nShards == 0 {
		nShards = 1
	}
	sm, err := shard.New(nShards)
	if err != nil {
		return nil, scfg, fmt.Errorf("repro: building shard map: %w", err)
	}
	scfg = cfg.Social
	if scfg.Users == 0 {
		scfg = social.DefaultSynthConfig()
	}
	return sm, scfg, nil
}

// ratingsArm is what a boot's ratings arm hands over.
type ratingsArm struct {
	store *dataset.Store
	synth *dataset.Synth // nil unless the generator ran
	took  time.Duration
	err   error
}

// bootRatings is a boot's ratings arm: the store from the snapshot's
// rating log (read once, here; the world keeps the store FromRatings
// builds from it, not the log), else from RatingsReader, else from the
// synthetic generator.
func bootRatings(cfg Config, scfg social.SynthConfig) (a ratingsArm) {
	start := time.Now()
	defer func() { a.took = time.Since(start) }()
	if cfg.snapshotRatings != nil {
		if a.store, a.err = dataset.FromRatings(cfg.snapshotRatings); a.err != nil {
			a.err = fmt.Errorf("repro: rebuilding ratings from snapshot: %w", a.err)
		}
		return a
	}
	if cfg.RatingsReader != nil {
		if a.store, a.err = dataset.LoadMovieLensRatings(cfg.RatingsReader); a.err != nil {
			a.err = fmt.Errorf("repro: loading ratings: %w", a.err)
		}
		return a
	}
	dcfg := cfg.Dataset
	if dcfg.Users == 0 {
		dcfg = dataset.DefaultSynthConfig()
	}
	if dcfg.ParticipantUsers == 0 {
		// Study participants rate ~30-60 movies drawn from a
		// shared 75-item pool, like the paper's recruits who
		// rated the pre-computed popular/diversity movie sets.
		dcfg.ParticipantUsers = scfg.Users
		dcfg.ParticipantMinRatings = 30
		dcfg.ParticipantMaxRatings = 60
		dcfg.ParticipantPoolSize = 75
		dcfg.ParticipantExtraMean = 100
	}
	if a.synth, a.err = dataset.Generate(dcfg); a.err != nil {
		a.err = fmt.Errorf("repro: generating ratings: %w", a.err)
		return a
	}
	a.store = a.synth.Store
	return a
}

// checkPopulation refuses a social population larger than the rating
// users it maps onto.
func checkPopulation(scfg social.SynthConfig, ratings *dataset.Store) error {
	if nUsers := len(ratings.Users()); scfg.Users > nUsers {
		return fmt.Errorf("repro: social population %d exceeds rating users %d", scfg.Users, nUsers)
	}
	return nil
}

// checkSocialReaders refuses one social reader without the other.
func checkSocialReaders(cfg Config) error {
	if (cfg.FriendshipsReader == nil) != (cfg.PageLikesReader == nil) {
		return fmt.Errorf("repro: FriendshipsReader and PageLikesReader must be set together")
	}
	return nil
}

// networkArm is what a boot's network arm hands over.
type networkArm struct {
	net   *social.Network
	synth *social.SynthNetwork // nil when the network was loaded
	took  time.Duration
	err   error
}

// bootNetwork is a boot's network arm: the social network from the two
// readers, else from the synthetic generator. The readers must both be
// set or both be nil (checkSocialReaders).
func bootNetwork(cfg Config, scfg social.SynthConfig) (a networkArm) {
	start := time.Now()
	defer func() { a.took = time.Since(start) }()
	if cfg.FriendshipsReader != nil {
		if a.net, a.err = social.LoadNetwork(scfg.Users, cfg.FriendshipsReader, cfg.PageLikesReader); a.err != nil {
			a.err = fmt.Errorf("repro: loading social network: %w", a.err)
		}
		return a
	}
	if a.synth, a.err = social.GenerateNetwork(scfg); a.err != nil {
		a.err = fmt.Errorf("repro: generating social network: %w", a.err)
		return a
	}
	a.net = a.synth.Network
	return a
}
