package vmt

import (
	"fmt"
	"math"

	"vmt/internal/chiller"
	"vmt/internal/cooling"
	"vmt/internal/stats"
)

// Facility composes cluster simulations into a datacenter served by
// one cooling plant (Section IV-A: servers are divided into
// homogeneous clusters; the paper scales cluster results linearly to
// a 25 MW facility — this type performs the composition explicitly,
// allowing heterogeneous clusters).
type Facility struct {
	// Clusters are the member cluster configurations, simulated
	// independently (job scheduling is per-cluster in the paper).
	Clusters []Config
	// PlantMarginFrac sizes the cooling plant above the facility peak
	// when AutoSizePlant is used (e.g. 0.05 = 5% engineering margin).
	PlantMarginFrac float64
}

// FacilityResult aggregates a facility run.
type FacilityResult struct {
	// PerCluster holds each member cluster's result. Results may be
	// shared with the session run cache — treat them as read-only.
	PerCluster []*Result
	// CoolingLoadW is the summed facility cooling load.
	CoolingLoadW *stats.Series
	// TotalPowerW is the summed IT power.
	TotalPowerW *stats.Series
	// Plant is the cooling plant the facility was evaluated against.
	Plant chiller.Plant
	// PlantEval is the plant's evaluation over the facility load:
	// energy, peak electrical draw, and any capacity violations.
	PlantEval chiller.Evaluation
}

// RunFacility simulates every member cluster (in parallel), sums the
// cooling load, and evaluates it against the given plant. An unset
// plant auto-sizes to the facility peak plus PlantMarginFrac.
func RunFacility(f Facility, plantOpt Optional[chiller.Plant]) (*FacilityResult, error) {
	if len(f.Clusters) == 0 {
		return nil, fmt.Errorf("vmt: facility needs at least one cluster")
	}
	results, err := RunMany(f.Clusters, BatchOptions{})
	if err != nil {
		return nil, err
	}
	total := results[0].CoolingLoadW
	power := results[0].TotalPowerW
	sum := &stats.Series{Start: total.Start, Step: total.Step,
		Values: append([]float64(nil), total.Values...)}
	pw := &stats.Series{Start: power.Start, Step: power.Step,
		Values: append([]float64(nil), power.Values...)}
	for _, r := range results[1:] {
		if r.CoolingLoadW.Len() != sum.Len() || r.CoolingLoadW.Step != sum.Step {
			return nil, fmt.Errorf("vmt: facility clusters must share a trace length and step")
		}
		for i, v := range r.CoolingLoadW.Values {
			sum.Values[i] += v
		}
		for i, v := range r.TotalPowerW.Values {
			pw.Values[i] += v
		}
	}
	plant := plantOpt.Value()
	if !plantOpt.IsSet() {
		plant, err = chiller.SizeForPeak(sum, f.PlantMarginFrac)
		if err != nil {
			return nil, err
		}
	}
	eval, err := plant.Evaluate(sum)
	if err != nil {
		return nil, err
	}
	return &FacilityResult{
		PerCluster:   results,
		CoolingLoadW: sum,
		TotalPowerW:  pw,
		Plant:        plant,
		PlantEval:    eval,
	}, nil
}

// OversubscriptionStudy validates the paper's headline oversubscription
// claim *in simulation* rather than by arithmetic: size a cooling
// plant for a round-robin fleet, add the extra servers the measured
// VMT reduction promises room for, and check the enlarged VMT fleet
// still fits under the original plant.
type OversubscriptionStudy struct {
	// BaselineServers and ExtraServers describe the fleets.
	BaselineServers, ExtraServers int
	// MeasuredReductionPct is the VMT peak reduction at the baseline
	// scale that justified the expansion.
	MeasuredReductionPct float64
	// PlantCapacityW is the budget (the baseline peak).
	PlantCapacityW float64
	// VMTPeakW is the enlarged VMT fleet's peak cooling load.
	VMTPeakW float64
	// FitsBudget reports whether the enlarged fleet stayed within the
	// plant at every sample.
	FitsBudget bool
	// Violations counts samples over budget (0 when FitsBudget).
	Violations int
	// HeadroomPct is (budget − VMT peak)/budget × 100; negative when
	// over budget.
	HeadroomPct float64
}

// RunOversubscriptionStudy measures the VMT reduction at the given
// scale, grows the fleet by the implied oversubscription factor
// (derated by safetyFrac, e.g. 0.1 keeps 10% of the promise in
// reserve), and validates the enlarged fleet against the baseline
// cooling budget.
func RunOversubscriptionStudy(servers int, policy Policy, gv, safetyFrac float64) (OversubscriptionStudy, error) {
	if safetyFrac < 0 || safetyFrac >= 1 {
		return OversubscriptionStudy{}, fmt.Errorf("vmt: safety fraction %v out of [0,1)", safetyFrac)
	}
	same, err := RunMany([]Config{BaselineScenario(servers), Scenario(servers, policy, gv)}, BatchOptions{})
	if err != nil {
		return OversubscriptionStudy{}, err
	}
	reduction, err := cooling.PeakReductionPct(same[0].CoolingLoadW, same[1].CoolingLoadW)
	if err != nil {
		return OversubscriptionStudy{}, err
	}
	budget := same[0].PeakCoolingW()
	r := reduction / 100 * (1 - safetyFrac)
	extra := int(math.Floor((1/(1-r) - 1) * float64(servers)))
	// The enlarged fleet's size depends on the measured reduction, so it
	// runs as a second batch.
	grown, err := RunMany([]Config{Scenario(servers+extra, policy, gv)}, BatchOptions{})
	if err != nil {
		return OversubscriptionStudy{}, err
	}
	enlarged := grown[0]
	study := OversubscriptionStudy{
		BaselineServers:      servers,
		ExtraServers:         extra,
		MeasuredReductionPct: reduction,
		PlantCapacityW:       budget,
		VMTPeakW:             enlarged.PeakCoolingW(),
	}
	for _, v := range enlarged.CoolingLoadW.Values {
		if v > budget {
			study.Violations++
		}
	}
	study.FitsBudget = study.Violations == 0
	study.HeadroomPct, err = cooling.PeakReductionPct(same[0].CoolingLoadW, enlarged.CoolingLoadW)
	return study, err
}
