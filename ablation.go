package vmt

import (
	"errors"
	"fmt"
	"time"

	"vmt/internal/chiller"
	"vmt/internal/cooling"
	"vmt/internal/energy"
	"vmt/internal/trace"
	"vmt/internal/zones"
)

// AblationPoint is one variant in an ablation study.
type AblationPoint struct {
	Name         string
	ReductionPct float64
}

// AblationStudy quantifies the design choices DESIGN.md calls out, all
// against one shared round-robin baseline at the given scale and GV:
//
//   - "wa": the full wax-aware policy as shipped;
//   - "wa-oracle": ground-truth wax state instead of the per-server
//     estimator — what perfect sensing would buy;
//   - "wa-budget-2%" / "wa-budget-100%": the migration budget at the
//     extremes — near-frozen handover vs unbounded churn;
//   - "ta": thermal-aware (no wax feedback at all).
func AblationStudy(servers int, gv float64) ([]AblationPoint, error) {
	spec := AblationSpec(servers, gv)
	sr, err := RunSpecResults(spec, BatchOptions{})
	if err != nil {
		// Name the failing variant, as the sequential loop used to.
		var re *RunError
		if errors.As(err, &re) && re.Index >= 1 {
			return nil, fmt.Errorf("vmt: ablation %s: %w",
				spec.Axes[0].Cases[re.Index-1].Name, re.Err)
		}
		return nil, err
	}
	baseline := sr.Baselines[0]
	out := make([]AblationPoint, 0, len(sr.Points))
	for i, p := range sr.Points {
		red, err := cooling.PeakReductionPct(baseline.CoolingLoadW, sr.Results[i].CoolingLoadW)
		if err != nil {
			return nil, err
		}
		out = append(out, AblationPoint{Name: p.Labels["variant"].(string), ReductionPct: red})
	}
	return out, nil
}

// AsymmetricTwoDay returns a trace whose second day is far hotter than
// the first (day-one peak dayOnePeak, day-two peak 0.95) — the
// "very hot peak still to come" scenario that motivates the
// wax-preserving extension.
func AsymmetricTwoDay(dayOnePeak float64) trace.Spec {
	s := trace.PaperTwoDay()
	s.PeakUtil = []float64{dayOnePeak, 0.95}
	return s
}

// PreserveStudy compares standard VMT-WA against the wax-preserving
// extension on an asymmetric trace, reporting each policy's *day-two*
// peak cooling reduction (the peak the preservation is for). The
// preserving policy sacrifices part of day one's shaving to arrive at
// day two with solid wax.
type PreserveStudy struct {
	DayOnePeakUtil   float64
	WA, Preserve     float64 // day-two peak reduction, percent
	WADay1, PresDay1 float64 // day-one peak reduction, percent
}

// RunPreserveStudy evaluates the extension at the given scale and GV.
func RunPreserveStudy(servers int, gv, dayOnePeak float64) (PreserveStudy, error) {
	tr := AsymmetricTwoDay(dayOnePeak)
	cfgs := make([]Config, 3)
	for i, policy := range []Policy{PolicyRoundRobin, PolicyVMTWA, PolicyVMTPreserve} {
		cfgs[i] = Scenario(servers, policy, gv)
		cfgs[i].Trace = tr
	}
	runs, err := RunMany(cfgs, BatchOptions{})
	if err != nil {
		return PreserveStudy{}, err
	}
	study := PreserveStudy{DayOnePeakUtil: dayOnePeak}
	study.WADay1, study.WA = dayPeakReductions(runs[0], runs[1])
	study.PresDay1, study.Preserve = dayPeakReductions(runs[0], runs[2])
	return study, nil
}

// dayPeakReductions splits the series at hour 29 (the inter-day
// trough) and returns the per-day peak reductions.
func dayPeakReductions(baseline, variant *Result) (day1, day2 float64) {
	split := int((29 * time.Hour) / baseline.Config.Step)
	reduce := func(lo, hi int) float64 {
		var bPeak, vPeak float64
		for i := lo; i < hi && i < baseline.CoolingLoadW.Len(); i++ {
			if b := baseline.CoolingLoadW.Values[i]; b > bPeak {
				bPeak = b
			}
			if v := variant.CoolingLoadW.Values[i]; v > vPeak {
				vPeak = v
			}
		}
		if bPeak <= 0 {
			return 0
		}
		return (bPeak - vPeak) / bPeak * 100
	}
	return reduce(0, split), reduce(split, baseline.CoolingLoadW.Len())
}

// EnergyCostStudy prices the cooling electricity of round robin versus
// VMT under a time-of-use tariff — the paper's closing observation
// that temporally shifting cooling energy also buys cheaper kWh.
type EnergyCostStudy struct {
	// PeakShareRR and PeakShareVMT are the fractions of cooling energy
	// burned inside the expensive tariff window.
	PeakShareRR, PeakShareVMT float64
	// BillRR and BillVMT are the totals (USD over the trace).
	BillRR, BillVMT float64
	// SavingsPct is the relative energy-cost saving from VMT.
	SavingsPct float64
}

// RunEnergyCostStudy simulates both policies and prices their cooling
// loads through a plant sized for the baseline under the tariff.
func RunEnergyCostStudy(servers int, gv float64, tariff energy.Tariff) (EnergyCostStudy, error) {
	runs, err := RunMany([]Config{
		BaselineScenario(servers),
		Scenario(servers, PolicyVMTWA, gv),
	}, BatchOptions{})
	if err != nil {
		return EnergyCostStudy{}, err
	}
	plant, err := chiller.SizeForPeak(runs[0].CoolingLoadW, 0.05)
	if err != nil {
		return EnergyCostStudy{}, err
	}
	cmp, err := energy.Compare(runs[0].CoolingLoadW, runs[1].CoolingLoadW, plant, tariff)
	if err != nil {
		return EnergyCostStudy{}, err
	}
	return EnergyCostStudy{
		PeakShareRR:  cmp.Baseline.PeakWindowShare,
		PeakShareVMT: cmp.Variant.PeakWindowShare,
		BillRR:       cmp.Baseline.TotalUSD,
		BillVMT:      cmp.Variant.TotalUSD,
		SavingsPct:   cmp.SavingsPct,
	}, nil
}

// ZonePlacementStudy quantifies the paper's spatial parenthetical: the
// hot group "can be distributed throughout the datacenter" — and must
// be, because each zone's CRAC is provisioned for its own peak. The
// study runs VMT, converts the per-server cooling loads into per-zone
// CRAC loads under striped and clustered layouts, and reports the
// worst peak-to-mean imbalance each layout inflicts.
type ZonePlacementStudy struct {
	Zones int
	// StripedPeakToMean and ClusteredPeakToMean are the worst
	// per-sample zone imbalances (1.0 = perfectly balanced).
	StripedPeakToMean, ClusteredPeakToMean float64
	// CRACOversizePct is the extra per-zone cooling capacity the
	// clustered layout demands relative to striped.
	CRACOversizePct float64
}

// RunZonePlacementStudy evaluates both layouts on a VMT-TA run.
func RunZonePlacementStudy(servers, zoneCount int, gv float64) (ZonePlacementStudy, error) {
	cfg := Scenario(servers, PolicyVMTTA, gv)
	cfg.RecordGrids = true
	runs, err := RunMany([]Config{cfg}, BatchOptions{})
	if err != nil {
		return ZonePlacementStudy{}, err
	}
	res := runs[0]
	// Per-server cooling load ≈ KAir×(Tair−Tinlet); reuse the recorded
	// air-temperature grid.
	kAir := res.Config.Server.Value().AirConductanceWPerK
	inlet := res.Config.InletTempC.Value()
	loads := make([][]float64, len(res.AirTempGrid))
	for i, snap := range res.AirTempGrid {
		row := make([]float64, len(snap))
		for j, tC := range snap {
			row[j] = kAir * (tC - inlet)
		}
		loads[i] = row
	}
	striped, err := zones.Striped(servers, zoneCount)
	if err != nil {
		return ZonePlacementStudy{}, err
	}
	clustered, err := zones.Clustered(servers, zoneCount)
	if err != nil {
		return ZonePlacementStudy{}, err
	}
	sIm, err := striped.WorstImbalance(loads)
	if err != nil {
		return ZonePlacementStudy{}, err
	}
	cIm, err := clustered.WorstImbalance(loads)
	if err != nil {
		return ZonePlacementStudy{}, err
	}
	return ZonePlacementStudy{
		Zones:               zoneCount,
		StripedPeakToMean:   sIm.PeakToMean,
		ClusteredPeakToMean: cIm.PeakToMean,
		CRACOversizePct:     (cIm.PeakToMean/sIm.PeakToMean - 1) * 100,
	}, nil
}
