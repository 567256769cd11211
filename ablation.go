package vmt

import (
	"errors"
	"fmt"

	"vmt/internal/chiller"
	"vmt/internal/cooling"
	"vmt/internal/energy"
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
