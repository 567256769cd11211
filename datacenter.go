package vmt

import (
	"fmt"
	"math"

	"vmt/internal/cooling"
)

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
