package vmt

import (
	"encoding/json"
	"fmt"

	"vmt/internal/experiment"
	"vmt/internal/fault"
	"vmt/internal/topology"
	"vmt/internal/trace"
)

// This file holds the spec builders: each root study's declarative
// form, sharable with cmd/vmtsweep -spec (encode one with
// experiment.Spec.Encode to get a runnable spec file). The studies
// execute these through RunSpecResults and keep their original typed
// reducers, so outputs are bit-identical to the pre-engine code.

// settingValue converts v to the JSON-basic form settings hold
// (float64 numbers, []any, map[string]any) through v's JSON encoding,
// so specs built in Go expand and encode exactly like specs decoded
// from files. A v that does not encode (a NaN field) is returned as it
// is; the spec then fails where it is encoded or decoded.
func settingValue(v any) any {
	b, err := json.Marshal(v)
	if err != nil {
		return v
	}
	var out any
	_ = json.Unmarshal(b, &out) // b is valid JSON: json.Marshal just wrote it
	return out
}

// floatsToAny widens a float slice for an axis's values without
// encoding it, so a NaN value fails at decode time, not here.
func floatsToAny(fs []float64) []any {
	out := make([]any, len(fs))
	for i, f := range fs {
		out[i] = f
	}
	return out
}

// baselineRR is the shared round-robin reference every study measures
// against: the prior TTS work's baseline scheduler, no grouping value.
func baselineRR() experiment.Settings {
	return experiment.Settings{"policy": string(PolicyRoundRobin), "gv": 0.0}
}

// GVSweepSpec is the declarative form of GVSweep (Figure 18): peak
// reduction versus GV against one shared round-robin baseline.
func GVSweepSpec(servers int, policy Policy, gvs []float64) experiment.Spec {
	return experiment.Spec{
		Name:        "gv-sweep",
		Description: "Peak cooling load reduction vs GV (Figure 18)",
		Base:        experiment.Settings{"servers": servers, "policy": string(policy)},
		Axes:        []experiment.Axis{{Name: "gv", Values: floatsToAny(gvs)}},
		Baseline:    &experiment.Baseline{Set: baselineRR()},
		Reducer:     experiment.ReducePeakReduction,
	}
}

// WaxThresholdSweepSpec is the declarative form of WaxThresholdSweep
// (Figure 17): VMT-WA peak reduction as the wax threshold varies.
func WaxThresholdSweepSpec(servers int, gv float64, thresholds []float64) experiment.Spec {
	return experiment.Spec{
		Name:        "wax-threshold-sweep",
		Description: "Peak reduction vs wax threshold (Figure 17)",
		Base: experiment.Settings{
			"servers": servers, "policy": string(PolicyVMTWA), "gv": gv,
		},
		Axes:     []experiment.Axis{{Name: "wax_threshold", Values: floatsToAny(thresholds)}},
		Baseline: &experiment.Baseline{Set: baselineRR()},
		Reducer:  experiment.ReducePeakReduction,
	}
}

// InletVariationSpec is the declarative form of InletVariationStudy
// (Figures 19–20): peak reduction vs GV under inlet variation,
// averaged over seeds. The baseline depends only on the inlet draw —
// it varies with stdev and seed but is shared across the GV axis.
func InletVariationSpec(servers int, policy Policy, gvs, stdevs []float64, runs int) experiment.Spec {
	seeds := make([]any, runs)
	for r := 0; r < runs; r++ {
		seeds[r] = float64(r + 1)
	}
	return experiment.Spec{
		Name:        "inlet-variation",
		Description: "Peak reduction vs GV under inlet variation, seed-averaged (Figures 19-20)",
		Base:        experiment.Settings{"servers": servers, "policy": string(policy)},
		Axes: []experiment.Axis{
			{Name: "inlet_stdev_c", Values: floatsToAny(stdevs)},
			{Name: "gv", Values: floatsToAny(gvs)},
			{Name: "seed", Values: seeds},
		},
		Baseline: &experiment.Baseline{
			Set:  baselineRR(),
			Vary: []string{"inlet_stdev_c", "seed"},
		},
		Reducer:  experiment.ReducePeakReductionMean,
		MeanOver: []string{"seed"},
	}
}

// ablationVariants fixes the order and the overlays of the ablation's
// design-choice variants (see AblationStudy).
func ablationVariants(gv float64) []experiment.Case {
	wa := func(extra experiment.Settings) experiment.Settings {
		s := experiment.Settings{"policy": string(PolicyVMTWA), "gv": gv}
		for k, v := range extra {
			s[k] = v
		}
		return s
	}
	return []experiment.Case{
		{Name: "ta", Set: experiment.Settings{"policy": string(PolicyVMTTA), "gv": gv}},
		{Name: "wa", Set: wa(nil)},
		{Name: "wa-oracle", Set: wa(experiment.Settings{"oracle_wax_state": true})},
		{Name: "wa-budget-2%", Set: wa(experiment.Settings{"migration_budget_frac": 0.02})},
		{Name: "wa-budget-100%", Set: wa(experiment.Settings{"migration_budget_frac": 1.0})},
	}
}

// AblationSpec is the declarative form of AblationStudy: the
// design-choice variants as one case axis over a shared baseline.
func AblationSpec(servers int, gv float64) experiment.Spec {
	return experiment.Spec{
		Name:        "ablation",
		Description: "Design-choice ablation vs shared round-robin baseline",
		Base:        experiment.Settings{"servers": servers},
		Axes:        []experiment.Axis{{Name: "variant", Cases: ablationVariants(gv)}},
		Baseline:    &experiment.Baseline{Set: baselineRR()},
		Reducer:     experiment.ReducePeakReduction,
	}
}

// adaptabilityVariants builds the per-condition case axis of the
// adaptability sweeps: passive TTS (round robin with the real wax)
// plus VMT-TA at every grid GV. The baseline is the wax-free fleet.
func adaptabilityVariants(gvs []float64) []experiment.Case {
	cases := make([]experiment.Case, 0, len(gvs)+1)
	cases = append(cases, experiment.Case{
		Name: "tts",
		Set:  experiment.Settings{"policy": string(PolicyRoundRobin), "gv": 0.0},
	})
	for _, gv := range gvs {
		cases = append(cases, experiment.Case{
			Name: fmt.Sprintf("gv-%g", gv),
			Set:  experiment.Settings{"policy": string(PolicyVMTTA), "gv": gv},
		})
	}
	return cases
}

// adaptabilityBaseline is the wax-free round-robin reference fleet,
// re-run per condition value.
func adaptabilityBaseline(conditionAxis string) *experiment.Baseline {
	return &experiment.Baseline{
		Set: experiment.Settings{
			"policy": string(PolicyRoundRobin), "gv": 0.0, "material": "inert",
		},
		Vary: []string{conditionAxis},
	}
}

// AmbientSweepSpec is the declarative form of AmbientSweep: TTS vs
// retuned VMT across inlet temperatures, each measured against a
// wax-free fleet at the same inlet.
func AmbientSweepSpec(servers int, inletsC, gvs []float64) experiment.Spec {
	return experiment.Spec{
		Name:        "ambient-sweep",
		Description: "TTS vs retuned VMT across inlet temperatures (adaptability)",
		Base:        experiment.Settings{"servers": servers},
		Axes: []experiment.Axis{
			{Name: "inlet_c", Values: floatsToAny(inletsC)},
			{Name: "variant", Cases: adaptabilityVariants(gvs)},
		},
		Baseline: adaptabilityBaseline("inlet_c"),
		Reducer:  experiment.ReducePeakReductionBest,
		BestOver: "variant",
	}
}

// DriftSweepSpec is the declarative form of DriftSweep: TTS vs retuned
// VMT as workload power drifts.
func DriftSweepSpec(servers int, powerScales, gvs []float64) experiment.Spec {
	return experiment.Spec{
		Name:        "drift-sweep",
		Description: "TTS vs retuned VMT under workload power drift (adaptability)",
		Base:        experiment.Settings{"servers": servers},
		Axes: []experiment.Axis{
			{Name: "power_scale", Values: floatsToAny(powerScales)},
			{Name: "variant", Cases: adaptabilityVariants(gvs)},
		},
		Baseline: adaptabilityBaseline("power_scale"),
		Reducer:  experiment.ReducePeakReductionBest,
		BestOver: "variant",
	}
}

// PMTSweepSpec is the declarative form of PMTSweep: the wax purchasing
// decision, with the GV retuned per candidate melting temperature.
func PMTSweepSpec(servers int, meltTempsC, gvGrid []float64) experiment.Spec {
	return experiment.Spec{
		Name:        "pmt-sweep",
		Description: "Best retuned peak reduction vs wax melting temperature",
		Base:        experiment.Settings{"servers": servers, "policy": string(PolicyVMTTA)},
		Axes: []experiment.Axis{
			{Name: "pmt_c", Values: floatsToAny(meltTempsC)},
			{Name: "gv", Values: floatsToAny(gvGrid)},
		},
		Baseline: &experiment.Baseline{Set: baselineRR()},
		Reducer:  experiment.ReducePeakReductionBest,
		BestOver: "gv",
	}
}

// VolumeSweepSpec is the declarative form of VolumeSweep: the deployed
// wax volume, with the GV retuned per volume.
func VolumeSweepSpec(servers int, volumesL, gvGrid []float64) experiment.Spec {
	return experiment.Spec{
		Name:        "volume-sweep",
		Description: "Best retuned peak reduction vs wax volume per server",
		Base:        experiment.Settings{"servers": servers, "policy": string(PolicyVMTTA)},
		Axes: []experiment.Axis{
			{Name: "volume_l", Values: floatsToAny(volumesL)},
			{Name: "gv", Values: floatsToAny(gvGrid)},
		},
		Baseline: &experiment.Baseline{Set: baselineRR()},
		Reducer:  experiment.ReducePeakReductionBest,
		BestOver: "gv",
	}
}

// CoolingLoadSpec is the declarative form of RunCoolingLoadStudy
// (Figures 13/16): coolest-first plus the policy at each GV, all
// against the round-robin baseline.
func CoolingLoadSpec(servers int, policy Policy, gvs []float64) experiment.Spec {
	cases := make([]experiment.Case, 0, len(gvs)+1)
	cases = append(cases, experiment.Case{
		Name: "cf",
		Set:  experiment.Settings{"policy": string(PolicyCoolestFirst), "gv": 0.0},
	})
	for _, gv := range gvs {
		cases = append(cases, experiment.Case{
			Name: fmt.Sprintf("gv-%g", gv),
			Set:  experiment.Settings{"policy": string(policy), "gv": gv},
		})
	}
	return experiment.Spec{
		Name:        "cooling-load",
		Description: "Cooling-load series and peak reductions per policy (Figures 13/16)",
		Base:        experiment.Settings{"servers": servers},
		Axes:        []experiment.Axis{{Name: "variant", Cases: cases}},
		Baseline:    &experiment.Baseline{Set: baselineRR()},
		Reducer:     experiment.ReducePeakReduction,
	}
}

// faultRateCases builds the failure-rate case axis of the fault study:
// a clean 0/h case plus a stochastic crash plan per rate, all seeded
// identically so every policy at a given rate faces the same injected
// fault history.
func faultRateCases(rates []float64, repairAfterMin float64, seed uint64) []experiment.Case {
	cases := make([]experiment.Case, 0, len(rates))
	for _, rate := range rates {
		c := experiment.Case{Name: fmt.Sprintf("%g", rate)}
		if rate > 0 {
			c.Set = experiment.Settings{"faults": settingValue(fault.Plan{
				Seed: seed,
				Stochastic: &fault.Stochastic{
					RatePerHour:    rate,
					RepairAfterMin: repairAfterMin,
				},
			})}
		}
		cases = append(cases, c)
	}
	return cases
}

// FaultStudySpec is the declarative form of RunFaultStudy: VMT-TA and
// VMT-WA under injected stochastic server crashes on the query-level
// load model, each measured against a round-robin baseline suffering
// the same fault plan at the same rate.
func FaultStudySpec(servers int, rates []float64, gv float64, seed uint64) experiment.Spec {
	return experiment.Spec{
		Name:        "fault-study",
		Description: "Cooling reduction and QoS degradation under injected server crashes",
		Base: experiment.Settings{
			"servers": servers, "gv": gv, "job_stream": true, "seed": float64(seed),
		},
		Axes: []experiment.Axis{
			{Name: "fault_rate", Cases: faultRateCases(rates, 120, seed)},
			{Name: "variant", Cases: []experiment.Case{
				{Name: "ta", Set: experiment.Settings{"policy": string(PolicyVMTTA)}},
				{Name: "wa", Set: experiment.Settings{"policy": string(PolicyVMTWA)}},
			}},
		},
		Baseline: &experiment.Baseline{
			Set:  baselineRR(),
			Vary: []string{"fault_rate"},
		},
		Reducer: experiment.ReducePeakReduction,
	}
}

// correlatedTopology returns the topology every correlated-fault case
// shares: racks of six servers, five racks per row, one row per
// cooling zone — so a 60-server cluster has 10 racks, 2 rows, and 2
// zones, and a rack trip takes out 10% of the fleet at once.
func correlatedTopology() *topology.Spec {
	return &topology.Spec{ServersPerRack: 6, RacksPerRow: 5, RowsPerZone: 1}
}

// correlationCases builds the correlation-degree axis of the
// correlated fault study. Every faulty case is seeded identically, so
// each policy (and the round-robin baseline) faces the same injected
// history; the degrees step from independent crashes (the PR 5 model)
// through rack-atomic crashes and zone-wide cooling derates to
// Byzantine reports and the combined worst case.
func correlationCases(seed uint64) []experiment.Case {
	topo := correlatedTopology()
	// Two rack trips of 6 servers × 180 min ≈ the expected downtime of
	// independent crashes at 0.01 / server-hour over the 24 h trace, so
	// "independent" and "rack" differ in correlation, not in total
	// injected downtime.
	rackTrips := []fault.DomainFault{
		{Kind: topology.DomainRack, Index: 1, AtMin: 360, RepairAfterMin: 180},
		{Kind: topology.DomainRack, Index: 4, AtMin: 780, RepairAfterMin: 180},
	}
	byz := []fault.ByzantineFault{
		// Hot-group servers overstating melt progress (VMT-WA resizes
		// on these) and understating load.
		{Server: 0, Kind: fault.ByzMelt, StartMin: 120, Bias: 0.6, Jitter: 0.05},
		{Server: 1, Kind: fault.ByzMelt, StartMin: 120, Bias: 0.6, Jitter: 0.05},
		{Server: 2, Kind: fault.ByzMelt, StartMin: 180, Bias: -0.5, Jitter: 0.05},
		{Server: 0, Kind: fault.ByzUtil, StartMin: 120, Bias: -0.4, Jitter: 0.02},
		{Server: 3, Kind: fault.ByzUtil, StartMin: 240, Bias: 0.4, Jitter: 0.02},
	}
	return []experiment.Case{
		{Name: "none"},
		{Name: "independent", Set: experiment.Settings{"faults": settingValue(fault.Plan{
			Seed:       seed,
			Stochastic: &fault.Stochastic{RatePerHour: 0.01, RepairAfterMin: 120},
		})}},
		{Name: "rack", Set: experiment.Settings{"faults": settingValue(fault.Plan{
			Seed:     seed,
			Topology: topo,
			Domains:  rackTrips,
		})}},
		{Name: "zone-derate", Set: experiment.Settings{"faults": settingValue(fault.Plan{
			Seed:     seed,
			Topology: topo,
			Domains: []fault.DomainFault{{
				Kind: topology.DomainZone, Index: 0, Mode: fault.ModeDerate,
				AtMin: 360, RepairAfterMin: 240, DerateInletDeltaC: 6,
			}},
		})}},
		{Name: "stochastic-rack", Set: experiment.Settings{"faults": settingValue(fault.Plan{
			Seed:     seed,
			Topology: topo,
			StochasticDomains: &fault.StochasticDomains{
				Kind: topology.DomainRack, RatePerHour: 0.005, RepairAfterMin: 180,
			},
		})}},
		{Name: "byzantine", Set: experiment.Settings{"faults": settingValue(fault.Plan{
			Seed:      seed,
			Byzantine: byz,
		})}},
		{Name: "rack-byzantine", Set: experiment.Settings{"faults": settingValue(fault.Plan{
			Seed:      seed,
			Topology:  topo,
			Domains:   rackTrips,
			Byzantine: byz,
		})}},
	}
}

// CorrelatedFaultStudySpec is the declarative form of
// RunCorrelatedFaultStudy: VMT-TA and VMT-WA under correlated failure
// domains (rack/PDU trips, cooling-zone derates, their stochastic
// variants) and Byzantine report faults, each measured against a
// round-robin baseline suffering the identical plan. The independent
// crash case carries comparable total downtime, so the axis isolates
// the *correlation degree* rather than the fault volume.
func CorrelatedFaultStudySpec(servers int, gv float64, seed uint64) experiment.Spec {
	return experiment.Spec{
		Name:        "correlated-fault-study",
		Description: "Cooling reduction under correlated domain failures and Byzantine reports",
		Base: experiment.Settings{
			"servers": servers, "gv": gv, "job_stream": true, "seed": float64(seed),
		},
		Axes: []experiment.Axis{
			{Name: "correlation", Cases: correlationCases(seed)},
			{Name: "variant", Cases: []experiment.Case{
				{Name: "ta", Set: experiment.Settings{"policy": string(PolicyVMTTA)}},
				{Name: "wa", Set: experiment.Settings{"policy": string(PolicyVMTWA)}},
			}},
		},
		Baseline: &experiment.Baseline{
			Set:  baselineRR(),
			Vary: []string{"correlation"},
		},
		Reducer: experiment.ReducePeakReduction,
	}
}

// tuneGVSpec is the declarative form of the adaptive study's inner
// tuning loop: the VMT-WA grid on one forecast day, on the smaller
// tuning cluster.
func tuneGVSpec(servers int, day *trace.Trace, gvGrid []float64) experiment.Spec {
	return experiment.Spec{
		Name:        "tune-gv",
		Description: "Day-ahead GV tuning on a forecast trace",
		Base: experiment.Settings{
			"servers":      servers,
			"policy":       string(PolicyVMTWA),
			"custom_trace": settingValue(day),
		},
		Axes:     []experiment.Axis{{Name: "gv", Values: floatsToAny(gvGrid)}},
		Baseline: &experiment.Baseline{Set: baselineRR()},
		Reducer:  experiment.ReducePeakReductionBest,
		BestOver: "gv",
	}
}

// staticGVSpec is the declarative form of the adaptive study's static
// reference: the VMT-WA grid over the full multi-day trace.
func staticGVSpec(servers int, tr trace.Spec, gvGrid []float64) experiment.Spec {
	return experiment.Spec{
		Name:        "static-gv",
		Description: "Best single static GV over a multi-day trace",
		Base: experiment.Settings{
			"servers": servers,
			"policy":  string(PolicyVMTWA),
			"trace":   settingValue(tr),
		},
		Axes:     []experiment.Axis{{Name: "gv", Values: floatsToAny(gvGrid)}},
		Baseline: &experiment.Baseline{Set: baselineRR()},
		Reducer:  experiment.ReducePeakReductionBest,
		BestOver: "gv",
	}
}
