package vmt

import (
	"fmt"

	"vmt/internal/experiment"
)

// This file implements the studies behind the paper's motivation
// (Section I): a passive TTS deployment is pinned to one physical
// melting temperature, so ambient changes (season to season) or
// workload power drift (over a server's lifetime) strand the wax,
// while VMT retunes in software by adjusting the GV.

// AdaptabilityPoint is one operating condition in an adaptability
// sweep.
type AdaptabilityPoint struct {
	// Condition is the swept value: inlet temperature (°C) for the
	// ambient sweep, power scale for the drift sweep.
	Condition float64
	// TTSReductionPct is what the fixed 35.7 °C wax achieves under
	// passive round-robin placement (vs a wax-free fleet).
	TTSReductionPct float64
	// BestGV is the grouping value VMT retuned to.
	BestGV float64
	// VMTReductionPct is what VMT-TA achieves at BestGV (vs the same
	// wax-free fleet).
	VMTReductionPct float64
}

// adaptabilitySweep executes a (condition × variant) adaptability spec
// and reduces it per condition: the passive-TTS reduction and the best
// retuned VMT-TA reduction over the GV grid, both against the wax-free
// round-robin fleet at the same condition. The arithmetic — including
// the -1e9 argmax floor — matches the pre-engine sequential loops
// exactly.
func adaptabilitySweep(spec experiment.Spec, conditions, gvs []float64) ([]AdaptabilityPoint, error) {
	sr, err := RunSpecResults(spec, BatchOptions{})
	if err != nil {
		return nil, err
	}
	variants := 1 + len(gvs) // case "tts" leads, then the GV grid
	out := make([]AdaptabilityPoint, 0, len(conditions))
	for ci, cond := range conditions {
		at := ci * variants
		tts, err := sr.pointReduction(at)
		if err != nil {
			return nil, err
		}
		bestGV, bestRed := 0.0, -1e9
		for gi, gv := range gvs {
			red, err := sr.pointReduction(at + 1 + gi)
			if err != nil {
				return nil, err
			}
			if red > bestRed {
				bestGV, bestRed = gv, red
			}
		}
		out = append(out, AdaptabilityPoint{
			Condition:       cond,
			TTSReductionPct: tts,
			BestGV:          bestGV,
			VMTReductionPct: bestRed,
		})
	}
	return out, nil
}

// AmbientSweep evaluates TTS vs retuned VMT across inlet temperatures
// (the "season to season" motivation). The fixed wax only helps in the
// narrow ambient band where round-robin temperatures happen to cross
// its melting point; VMT tracks the band by re-selecting the GV.
func AmbientSweep(servers int, inletsC, gvs []float64) ([]AdaptabilityPoint, error) {
	if len(inletsC) == 0 || len(gvs) == 0 {
		return nil, fmt.Errorf("vmt: need inlets and a GV grid")
	}
	return adaptabilitySweep(AmbientSweepSpec(servers, inletsC, gvs), inletsC, gvs)
}

// DriftSweep evaluates TTS vs retuned VMT as workload power drifts
// (the "power profile changes over the lifetime of a server"
// motivation), by scaling the per-core power model.
func DriftSweep(servers int, powerScales, gvs []float64) ([]AdaptabilityPoint, error) {
	if len(powerScales) == 0 || len(gvs) == 0 {
		return nil, fmt.Errorf("vmt: need power scales and a GV grid")
	}
	return adaptabilitySweep(DriftSweepSpec(servers, powerScales, gvs), powerScales, gvs)
}

// DefaultGVGrid is the retuning grid the adaptability studies search:
// from aggressive concentration (GV=18) to whole-cluster spreading
// (GV=PMT, where the hot group is the entire fleet and VMT degenerates
// to balanced placement — the right answer when passive melting is
// already too eager).
func DefaultGVGrid() []float64 {
	return []float64{18, 20, 22, 24, 26, 28, 30, 32, 35.7}
}
