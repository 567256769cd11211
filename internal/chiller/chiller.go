// Package chiller models the datacenter cooling plant that the VMT
// paper's economics implicitly size: a heat-removal system with a
// finite capacity and a part-load efficiency curve. It turns a cluster
// cooling load into plant electrical power and sizes plants for a
// given load series.
//
// The efficiency model is a standard water-cooled chiller abstraction:
// a nominal coefficient of performance (COP — watts of heat removed
// per electrical watt) derated at part load, since pumps/fans/controls
// impose a floor:
//
//	P_elec(q) = q / COP(q/cap),  COP(x) = nominal × x / (x + k(1−x))
//
// with k the part-load penalty (k=0: constant COP).
package chiller

import (
	"fmt"

	"vmt/internal/stats"
)

// Plant describes one cooling plant.
type Plant struct {
	// CapacityW is the maximum heat removal rate.
	CapacityW float64
	// NominalCOP is the full-load coefficient of performance
	// (typical water-cooled plants: 4–6).
	NominalCOP float64
	// PartLoadPenalty is k in the derating curve; 0 disables it.
	PartLoadPenalty float64
}

// PaperPlant returns a plant sized at capacityW with a COP of 4.5 and
// a modest part-load penalty, representative of the chilled-water
// systems the paper's $/kW figures describe.
func PaperPlant(capacityW float64) Plant {
	return Plant{CapacityW: capacityW, NominalCOP: 4.5, PartLoadPenalty: 0.15}
}

// Validate reports whether the plant is usable.
func (p Plant) Validate() error {
	switch {
	case p.CapacityW <= 0:
		return fmt.Errorf("chiller: capacity must be positive")
	case p.NominalCOP <= 0:
		return fmt.Errorf("chiller: COP must be positive")
	case p.PartLoadPenalty < 0 || p.PartLoadPenalty >= 1:
		return fmt.Errorf("chiller: part-load penalty %v out of [0,1)", p.PartLoadPenalty)
	}
	return nil
}

// COPAt returns the effective COP at heat load q (W). Below-zero loads
// are treated as zero; loads beyond capacity run at nominal COP (the
// plant cannot remove the excess, and the room heats up instead).
func (p Plant) COPAt(q float64) float64 {
	if q <= 0 {
		return p.NominalCOP
	}
	x := q / p.CapacityW
	if x >= 1 {
		return p.NominalCOP
	}
	if p.PartLoadPenalty == 0 { //vmtlint:allow floateq zero-value "unset" sentinel, exact by construction
		return p.NominalCOP
	}
	return p.NominalCOP * x / (x + p.PartLoadPenalty*(1-x))
}

// ElectricalPowerW returns the plant draw while removing heat at q W.
func (p Plant) ElectricalPowerW(q float64) float64 {
	if q <= 0 {
		return 0
	}
	return q / p.COPAt(q)
}

// SizeForPeak returns a plant whose capacity covers the series' peak
// with the given fractional margin (e.g. 0.05 for 5% headroom).
func SizeForPeak(load *stats.Series, marginFrac float64) (Plant, error) {
	if marginFrac < 0 {
		return Plant{}, fmt.Errorf("chiller: negative margin")
	}
	peak, _, err := load.Peak()
	if err != nil {
		return Plant{}, fmt.Errorf("chiller: %w", err)
	}
	if peak <= 0 {
		return Plant{}, fmt.Errorf("chiller: non-positive peak %v", peak)
	}
	return PaperPlant(peak * (1 + marginFrac)), nil
}
