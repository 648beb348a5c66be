// Package worldflags defines the world-shaping flags the greca
// commands share — -ratings, -seed, -liststore and -shards — and maps
// them onto a repro.Config in one place. A greca-shard worker must build
// the world its greca-serve router builds (the handshake refuses a
// fingerprint mismatch), so both read their flags through this package.
package worldflags

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro"
	"repro/internal/liststore"
)

// Flags holds the parsed values of the shared flags, and the -ratings
// file once Config has opened it.
type Flags struct {
	ratings   *string
	seed      *int64
	listStore *int
	shards    *int
	file      *os.File
}

// Define defines the shared flags on the command line. Only the -seed
// and -shards help texts differ between the commands.
func Define(seedHelp, shardsHelp string) *Flags {
	return &Flags{
		ratings:   flag.String("ratings", "", "optional MovieLens-format ratings file (UserID::MovieID::Rating::Timestamp)"),
		seed:      flag.Int64("seed", 1, seedHelp),
		listStore: flag.Int("liststore", liststore.DefaultMaxUsers, "sorted-list store user-view bound (must be positive)"),
		shards:    flag.Int("shards", 1, shardsHelp),
	}
}

// Config checks the parsed flags and maps them onto QuickConfig. A
// non-positive -liststore or -shards is a usage error: it prints the
// usage and exits 2, like flag's own failures, instead of clamping.
// The social seed is the world seed plus one. The -ratings file, if
// named, is opened as the config's RatingsReader; Close closes it.
func (f *Flags) Config() (repro.Config, error) {
	requirePositive("-liststore", *f.listStore)
	requirePositive("-shards", *f.shards)
	cfg := repro.QuickConfig()
	cfg.Dataset.Seed = *f.seed
	cfg.Social.Seed = *f.seed + 1
	cfg.ListStoreSize = *f.listStore
	cfg.Shards = *f.shards
	if *f.ratings != "" {
		file, err := os.Open(*f.ratings)
		if err != nil {
			return cfg, fmt.Errorf("opening ratings: %w", err)
		}
		f.file, cfg.RatingsReader = file, file
	}
	return cfg, nil
}

// Close closes the -ratings file Config opened, if any.
func (f *Flags) Close() {
	if f.file != nil {
		f.file.Close()
	}
}

func requirePositive(name string, v int) {
	if v <= 0 {
		fmt.Fprintf(os.Stderr, "%s: %s must be positive, got %d\n", filepath.Base(os.Args[0]), name, v)
		flag.Usage()
		os.Exit(2)
	}
}
