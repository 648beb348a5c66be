package experiments

import (
	"fmt"
	"io"

	"repro/internal/groups"
	"repro/internal/study"
)

// charOrder is the paper's x-axis order for characteristic charts.
var charOrder = []groups.Characteristic{
	groups.Similar, groups.Dissimilar, groups.Small,
	groups.Large, groups.HighAffinity, groups.LowAffinity,
}

// WriteCharacteristicTable renders a CharacteristicScores map as a
// markdown row set in the paper's column order.
func WriteCharacteristicTable(w io.Writer, title string, scores study.CharacteristicScores) error {
	if _, err := fmt.Fprintf(w, "\n**%s**\n\n", title); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "| %s |", "Chart"); err != nil {
		return err
	}
	for _, c := range charOrder {
		if _, err := fmt.Fprintf(w, " %s |", c); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "\n|---|---|---|---|---|---|---|\n| %% |"); err != nil {
		return err
	}
	for _, c := range charOrder {
		if _, err := fmt.Fprintf(w, " %.1f |", scores[c]); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// WriteFigure1 renders all six independent-evaluation charts.
func WriteFigure1(w io.Writer, r Figure1Result) error {
	if _, err := fmt.Fprintf(w, "\n## Figure 1 — Independent Evaluation (satisfaction %%)\n"); err != nil {
		return err
	}
	for _, v := range study.Variants() {
		label := string(rune('A'+int(v))) + ") " + v.String()
		if err := WriteCharacteristicTable(w, label, r.Charts[v]); err != nil {
			return err
		}
	}
	return nil
}

// WriteFigure2 renders the consensus vote shares next to the paper's
// embedded values.
func WriteFigure2(w io.Writer, r Figure2Result) error {
	if _, err := fmt.Fprintf(w, "\n## Figure 2 — Consensus Function Preference Shares (%%)\n\n"); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "| Function | Source |"); err != nil {
		return err
	}
	for _, c := range charOrder {
		if _, err := fmt.Fprintf(w, " %s |", c); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "\n|---|---|---|---|---|---|---|---|\n"); err != nil {
		return err
	}
	rows := []struct {
		name    string
		variant study.Variant
	}{
		{"AP", study.Default},
		{"MO", study.MOVariant},
		{"PD", study.PDVariant},
	}
	for _, row := range rows {
		if _, err := fmt.Fprintf(w, "| %s | measured |", row.name); err != nil {
			return err
		}
		for _, c := range charOrder {
			if _, err := fmt.Fprintf(w, " %.1f |", r.Shares[row.variant][c]); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "\n| %s | paper |", row.name); err != nil {
			return err
		}
		for _, c := range charOrder {
			if _, err := fmt.Fprintf(w, " %.1f |", r.Paper[row.name][c]); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// WriteFigure3 renders the three comparative studies.
func WriteFigure3(w io.Writer, r Figure3Result) error {
	if _, err := fmt.Fprintf(w, "\n## Figure 3 — Comparative Evaluation (%% preferring the first list)\n"); err != nil {
		return err
	}
	if err := WriteCharacteristicTable(w, "A) Affinity-aware vs Affinity-agnostic", r.AffinityVsAgnostic); err != nil {
		return err
	}
	if err := WriteCharacteristicTable(w, "B) Time-aware vs Time-agnostic", r.TimeVsAgnostic); err != nil {
		return err
	}
	return WriteCharacteristicTable(w, "C) Continuous vs Discrete Time Model", r.ContinuousVsDisc)
}

// WriteFigure4 renders the period-granularity table.
func WriteFigure4(w io.Writer, rows []Figure4Row) error {
	if _, err := fmt.Fprintf(w, "\n## Figure 4 — Time Period Granularity\n\n"); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "| Granularity | Non-empty %% (measured) | Non-empty %% (paper) | #Periods (measured) | #Periods (paper) |\n|---|---|---|---|---|\n"); err != nil {
		return err
	}
	for _, row := range rows {
		if _, err := fmt.Fprintf(w, "| %s | %.2f | %.2f | %d | %d |\n",
			row.Granularity, row.NonEmptyPct, row.PaperNonEmptyPct, row.NumPeriods, row.PaperNumPeriods); err != nil {
			return err
		}
	}
	return nil
}

// WriteSweep renders a scalability sweep as a two-column series.
func WriteSweep(w io.Writer, title, xLabel string, pts []SweepPoint) error {
	if _, err := fmt.Fprintf(w, "\n## %s\n\n| %s | Avg #SA %% | Std Err | Groups |\n|---|---|---|---|\n", title, xLabel); err != nil {
		return err
	}
	for _, pt := range pts {
		if _, err := fmt.Fprintf(w, "| %s | %.2f | %.2f | %d |\n", pt.Label, pt.AvgPctSA, pt.StdErr, pt.N); err != nil {
			return err
		}
	}
	return nil
}

// WriteTable5 renders the dataset statistics table.
func WriteTable5(w io.Writer, r Table5Result) error {
	_, err := fmt.Fprintf(w, `
## Table 5 — Rating Dataset

| | # users | # movies | # ratings |
|---|---|---|---|
| measured | %d | %d | %d |
| paper | %d | %d | %d |
`, r.Stats.Users, r.Stats.Items, r.Stats.Ratings, r.PaperUsers, r.PaperMovies, r.PaperRatings)
	return err
}

// WriteTimeModels renders the §4.2.4 comparison.
func WriteTimeModels(w io.Writer, r TimeModelsResult) error {
	_, err := fmt.Fprintf(w, `
## §4.2.4 — Time Models (avg #SA %%)

| Model | Measured | Paper |
|---|---|---|
| Continuous | %.2f | 16.32 |
| Discrete | %.2f | 16.60 |
`, r.ContinuousPctSA, r.DiscretePctSA)
	return err
}

// WriteAblations renders the DESIGN.md §5 ablation comparison.
func WriteAblations(w io.Writer, r AblationResult) error {
	_, err := fmt.Fprintf(w, `
## Ablations (avg #SA %%, 900-item instances)

| Variant | Avg #SA %% |
|---|---|
| GRECA (full) | %.2f |
| Threshold-exact stopping (no buffer condition) | %.2f |
| Loose bounds (no cursor tightening) | %.2f |
| Monolithic affinity lists | %.2f |
`, r.GRECAPctSA, r.ThresholdExactPctSA, r.LooseBoundsPctSA, r.MonolithicPctSA)
	return err
}
