// Command datagen emits the synthetic substrates GRECA reads to disk: a
// MovieLens-format ratings file (UserID::MovieID::Rating::Timestamp),
// a friendship edge list and a page-like event log, so other tooling
// can consume the same deterministic world the experiments use.
//
// Usage:
//
//	datagen -out DIR [-scale quick|default|1m] [-seed N]
//
// Files written to DIR: ratings.dat, friendships.csv, pagelikes.csv.
package main

import (
	"bufio"
	"flag"
	"log"
	"os"
	"path/filepath"

	"repro/internal/dataset"
	"repro/internal/social"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("datagen: ")

	var (
		out   = flag.String("out", "", "output directory (required)")
		scale = flag.String("scale", "default", "dataset scale: quick, default, 1m")
		seed  = flag.Int64("seed", 1, "generation seed")
	)
	flag.Parse()
	if *out == "" {
		flag.Usage()
		os.Exit(2)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		log.Fatalf("creating %s: %v", *out, err)
	}

	dcfg := dataset.DefaultSynthConfig()
	switch *scale {
	case "quick":
		dcfg.Users = 300
		dcfg.Items = 1200
		dcfg.TargetRatings = 30_000
	case "default":
	case "1m":
		dcfg = dataset.MovieLens1MConfig()
	default:
		log.Fatalf("unknown scale %q (want quick, default, 1m)", *scale)
	}
	dcfg.Seed = *seed
	scfg := social.DefaultSynthConfig()
	scfg.Seed = *seed + 1
	dcfg.ParticipantUsers = scfg.Users
	dcfg.ParticipantMinRatings = 30
	dcfg.ParticipantMaxRatings = 60
	dcfg.ParticipantPoolSize = 75
	dcfg.ParticipantExtraMean = 100

	log.Printf("generating ratings (%d users, %d items, %d ratings)...", dcfg.Users, dcfg.Items, dcfg.TargetRatings)
	sy, err := dataset.Generate(dcfg)
	if err != nil {
		log.Fatalf("generating dataset: %v", err)
	}
	writeFile(filepath.Join(*out, "ratings.dat"), func(w *bufio.Writer) error {
		return dataset.WriteMovieLensRatings(w, sy.Store)
	})

	log.Printf("generating social network (%d users)...", scfg.Users)
	sn, err := social.GenerateNetwork(scfg)
	if err != nil {
		log.Fatalf("generating network: %v", err)
	}
	writeFile(filepath.Join(*out, "friendships.csv"), func(w *bufio.Writer) error {
		return social.WriteFriendships(w, sn.Network)
	})
	writeFile(filepath.Join(*out, "pagelikes.csv"), func(w *bufio.Writer) error {
		return social.WritePageLikes(w, sn.Network)
	})
	st := sy.Store.Stats()
	log.Printf("done: %d ratings, %d like events → %s", st.Ratings, sn.Network.NumLikes(), *out)
}

func writeFile(path string, fill func(*bufio.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatalf("creating %s: %v", path, err)
	}
	w := bufio.NewWriter(f)
	if err := fill(w); err != nil {
		log.Fatalf("writing %s: %v", path, err)
	}
	if err := w.Flush(); err != nil {
		log.Fatalf("flushing %s: %v", path, err)
	}
	if err := f.Close(); err != nil {
		log.Fatalf("closing %s: %v", path, err)
	}
	log.Printf("wrote %s", path)
}
