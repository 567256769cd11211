// Package cooling summarizes cluster cooling-load series: peak load and
// peak reduction against a baseline (internal/tco turns a reduction
// into oversubscription headroom). The cooling system must be
// provisioned for the peak, so the peak — not the mean — is the figure
// of merit throughout the paper's evaluation.
package cooling

import (
	"fmt"
	"time"

	"vmt/internal/stats"
)

// Summary condenses one cooling-load series.
type Summary struct {
	// PeakW is the maximum instantaneous cooling load and PeakAt its
	// simulation time.
	PeakW  float64
	PeakAt time.Duration
	// MeanW is the average load over the run.
	MeanW float64
	// TroughW is the minimum load.
	TroughW float64
	// FlatnessPct is trough/peak ×100 — TTS and VMT aim to raise it.
	FlatnessPct float64
}

// Summarize reduces a cooling-load series (watts).
func Summarize(s *stats.Series) (Summary, error) {
	peak, at, err := s.Peak()
	if err != nil {
		return Summary{}, fmt.Errorf("cooling: %w", err)
	}
	trough, err := stats.Min(s.Values)
	if err != nil {
		return Summary{}, fmt.Errorf("cooling: %w", err)
	}
	sum := Summary{
		PeakW:   peak,
		PeakAt:  at,
		MeanW:   s.Mean(),
		TroughW: trough,
	}
	if peak > 0 {
		sum.FlatnessPct = trough / peak * 100
	}
	return sum, nil
}

// PeakReductionPct returns how much lower variant's peak cooling load
// is than baseline's, as a percentage of the baseline peak — the
// paper's headline metric (12.8% for VMT at GV=22).
func PeakReductionPct(baseline, variant *stats.Series) (float64, error) {
	b, err := Summarize(baseline)
	if err != nil {
		return 0, err
	}
	v, err := Summarize(variant)
	if err != nil {
		return 0, err
	}
	if b.PeakW <= 0 {
		return 0, fmt.Errorf("cooling: non-positive baseline peak %v", b.PeakW)
	}
	return (b.PeakW - v.PeakW) / b.PeakW * 100, nil
}
