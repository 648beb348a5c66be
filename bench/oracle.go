package main

import (
	"bytes"
	"fmt"
	"net/http"
	"os"

	"repro"
	"repro/internal/dataset"
	"repro/internal/server"
)

// reference is a freshly built single-process world behind its own
// serving layer: what every serving path must agree with byte for byte.
type reference struct {
	world *repro.World
	srv   *server.Server
}

// newReference builds the cold world and applies ratings in order.
func newReference(c runConfig, ratings []dataset.Rating) (*reference, error) {
	w, err := repro.NewWorld(c.wl.worldConfig(c.sc))
	if err != nil {
		return nil, fmt.Errorf("reference world: %w", err)
	}
	for _, r := range ratings {
		if err := w.AddRating(r); err != nil {
			return nil, fmt.Errorf("reference world: applying %+v: %w", r, err)
		}
	}
	return &reference{world: w, srv: server.New(w, server.Config{})}, nil
}

func (r *reference) close() { r.srv.Close() }

// runOracle sends ops to the live server and to the reference and
// returns how many answers differ in any byte (a failed request
// differs).
func runOracle(lg *loadgen, ref *reference, ops []op) int {
	mismatches := 0
	for _, o := range ops {
		ok, live := lg.do(0, o)
		code, want := serve(ref.srv.Handler(), http.MethodPost, o.path(), o.body)
		if !ok || code != http.StatusOK || !bytes.Equal(live, want) {
			mismatches++
			fmt.Fprintf(os.Stderr, "oracle mismatch on %s:\n live: %s\n want: %s\n", o.body, live, want)
		}
	}
	return mismatches
}
