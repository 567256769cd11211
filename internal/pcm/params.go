package pcm

import "fmt"

// CurveParams is the exported view of the precomputed enthalpy-curve
// segment parameters for one (material, volume) pair — the flat scalar
// form the struct-of-arrays fleet store (internal/thermal.Fleet)
// copies into its per-server parameter slices. The fields mirror the
// internal curve exactly, so a consumer that replays the curve's
// segment arithmetic (same expressions, same order) reproduces Pack
// projections bit for bit.
type CurveParams struct {
	// MeltC is the physical melting temperature.
	MeltC float64
	// CapSolidJPerK and CapLiquidJPerK are the sensible heat
	// capacities (mass × specific heat) of the two phases.
	CapSolidJPerK  float64
	CapLiquidJPerK float64
	// LatentJ is the total heat of fusion (mass × latent heat).
	LatentJ float64
	// HMeltLoJ and HMeltHiJ are the breakpoint enthalpies: melting
	// spans [HMeltLoJ, HMeltHiJ).
	HMeltLoJ float64
	HMeltHiJ float64
	// InvCapSolidJPerK and InvCapLiquidJPerK are reciprocals of the
	// sensible capacities, for integrator loops that multiply instead
	// of divide. Melt fraction must keep true division by LatentJ so
	// (h−HMeltLoJ)/LatentJ can never round above 1 inside the segment.
	InvCapSolidJPerK  float64
	InvCapLiquidJPerK float64
}

// CurveParamsFor returns the curve parameters for volumeL liters of m.
// The values come from the same shared curve cache the packs use, so
// they are bit-identical to what any Pack of the same pair projects
// through.
func CurveParamsFor(m Material, volumeL float64) (CurveParams, error) {
	if err := m.Validate(); err != nil {
		return CurveParams{}, err
	}
	if volumeL <= 0 {
		return CurveParams{}, fmt.Errorf("pcm: volume must be positive, got %v L", volumeL)
	}
	cv := curveFor(m, volumeL*m.DensityKgPerL)
	return CurveParams{
		MeltC:             cv.meltC,
		CapSolidJPerK:     cv.capSolidJPerK,
		CapLiquidJPerK:    cv.capLiquidJPerK,
		LatentJ:           cv.latentJ,
		HMeltLoJ:          cv.hMeltLoJ,
		HMeltHiJ:          cv.hMeltHiJ,
		InvCapSolidJPerK:  cv.invCapSolidJPerK,
		InvCapLiquidJPerK: cv.invCapLiquidJPerK,
	}, nil
}

// EnthalpyAt inverts the curve at a phase-boundary state: fully solid
// (or, above the melting point, fully liquid) at tempC. Identical
// arithmetic to the internal curve's inversion, so initial states built
// from CurveParams match Pack initial states bit for bit.
func (p CurveParams) EnthalpyAt(tempC float64) float64 {
	if tempC > p.MeltC {
		return p.HMeltHiJ + p.CapLiquidJPerK*(tempC-p.MeltC)
	}
	return p.CapSolidJPerK * tempC
}
