package cf

import (
	"fmt"
	"math"

	"repro/internal/dataset"
)

// Similarity selects the user-user similarity measure. The paper uses
// cosine over the full rating vectors; Pearson (mean-centered over
// co-rated items) is the standard alternative and is provided for
// completeness and ablation.
type Similarity int

const (
	// CosineSim is cos(vec(u), vec(u')) — the paper's §4 choice.
	CosineSim Similarity = iota
	// PearsonSim is the Pearson correlation over co-rated items.
	PearsonSim
)

// String names the measure.
func (s Similarity) String() string {
	switch s {
	case CosineSim:
		return "cosine"
	case PearsonSim:
		return "pearson"
	default:
		return fmt.Sprintf("Similarity(%d)", int(s))
	}
}

// Pearson returns the Pearson correlation of the two users' ratings
// over their co-rated items, in [-1, 1]. Fewer than two co-rated
// items, or zero variance on either side, yields 0.
func (p *Predictor) Pearson(u, v dataset.UserID) float64 {
	s, _ := p.pearsonCorated(u, v)
	return s
}

// Sim dispatches to the configured similarity measure.
func (p *Predictor) Sim(measure Similarity, u, v dataset.UserID) float64 {
	s, _ := p.simCorated(measure, u, v)
	return s
}

// simCorated returns the similarity of u and v plus whether the two
// users co-rated at least one item — one pairwise merge-join of the two
// rows. It serves single-pair questions (Sim, a Pearson repair); a
// neighborhood fill gets the same floats and the same co-rater set for
// every v at once from the walk in scan.go, which the tests hold to this
// function bit for bit.
func (p *Predictor) simCorated(measure Similarity, u, v dataset.UserID) (float64, bool) {
	switch measure {
	case PearsonSim:
		return p.pearsonCorated(u, v)
	default:
		return p.cosineCorated(u, v)
	}
}

// cosineCorated is Cosine plus the co-rating flag, sharing one merge.
func (p *Predictor) cosineCorated(u, v dataset.UserID) (float64, bool) {
	if u == v {
		return 1, true
	}
	p.work.pairMerges.Add(1)
	ru, rv := p.store.ByUser(u), p.store.ByUser(v)
	var dot float64
	corated := false
	i, j := 0, 0
	for i < len(ru) && j < len(rv) {
		switch {
		case ru[i].Item < rv[j].Item:
			i++
		case ru[i].Item > rv[j].Item:
			j++
		default:
			dot += ru[i].Value * rv[j].Value
			corated = true
			i++
			j++
		}
	}
	if dot == 0 {
		return 0, corated
	}
	return cosineFrom(dot, p.norm(u), p.norm(v)), corated
}

// pearsonCorated is Pearson plus the co-rating flag. Co-raters with
// fewer than two shared items still score 0, but the flag is set — a
// later ingest can lift the overlap past the threshold.
func (p *Predictor) pearsonCorated(u, v dataset.UserID) (float64, bool) {
	if u == v {
		return 1, true
	}
	p.work.pairMerges.Add(1)
	ru, rv := p.store.ByUser(u), p.store.ByUser(v)
	var xs, ys []float64
	i, j := 0, 0
	for i < len(ru) && j < len(rv) {
		switch {
		case ru[i].Item < rv[j].Item:
			i++
		case ru[i].Item > rv[j].Item:
			j++
		default:
			xs = append(xs, ru[i].Value)
			ys = append(ys, rv[j].Value)
			i++
			j++
		}
	}
	n := len(xs)
	if n < 2 {
		return 0, n > 0
	}
	var mx, my float64
	for k := 0; k < n; k++ {
		mx += xs[k]
		my += ys[k]
	}
	mx /= float64(n)
	my /= float64(n)
	var cov, vx, vy float64
	for k := 0; k < n; k++ {
		dx, dy := xs[k]-mx, ys[k]-my
		cov += dx * dy
		vx += dx * dx
		vy += dy * dy
	}
	if vx == 0 || vy == 0 {
		return 0, true
	}
	return cov / math.Sqrt(vx*vy), true
}
