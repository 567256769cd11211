// Package thermal implements the per-server lumped-parameter thermal
// model of the VMT reproduction: CPU power drives the air temperature
// at the wax through a first-order airflow node, the wax exchanges
// heat with that air, and whatever is not stored in the wax is ejected
// to the machine room as cooling load.
//
// The original study calibrated a CFD model of a physical test server
// and reduced it to per-server parameters for the DCsim event
// simulator. This package is that reduced model: an air node with heat
// capacity CAir coupled to the inlet through conductance KAir and to
// the wax pack through conductance HWax,
//
//	CAir·dTair/dt = P − KAir·(Tair − Tinlet) − HWax·(Tair − Twax)
//
// with the wax pack handling sensible/latent storage (package pcm).
// The instantaneous cooling load presented to the room is
// KAir·(Tair − Tinlet); heat stored in the wax is deferred load.
//
// Units: °C, W, J; time via time.Duration.
package thermal

import (
	"fmt"
	"time"

	"vmt/internal/workload"
)

// ServerSpec describes the simulated 2U server: a Sun Fire X4470
// chassis populated with four 8-core Xeon E7-4809 v4 CPUs, 100 W idle,
// 500 W peak, and 4.0 liters of wax behind the CPU heat sinks
// (Section IV-A), plus the reduced thermal-model parameters.
type ServerSpec struct {
	// CPUs and CoresPerCPU define the socket layout (4 × 8).
	CPUs        int
	CoresPerCPU int
	// IdlePowerW is drawn with no jobs placed; PeakPowerW caps the
	// total draw (the linear per-core model saturates there).
	IdlePowerW float64
	PeakPowerW float64
	// PowerScale converts Table I CPU-only per-core wattages into
	// attributable server dynamic power (memory, VRM, and fan power
	// scale with core activity). Calibrated so a round-robin cluster
	// under the two-day trace peaks just below the wax melting point,
	// the paper's qualitative anchor for "TTS alone cannot melt wax".
	PowerScale float64
	// AirConductanceWPerK (KAir) couples the air node to the inlet:
	// steady-state air temperature is Tinlet + P/KAir when the wax is
	// in equilibrium.
	AirConductanceWPerK float64
	// WaxConductanceWPerK (HWax) couples the air node to the wax pack
	// through the aluminum container surfaces.
	WaxConductanceWPerK float64
	// AirTimeConstant sets the air/chassis thermal lag; the node's
	// heat capacity is (KAir+HWax)·AirTimeConstant.
	AirTimeConstant time.Duration
	// WaxVolumeL is the deployed PCM volume (4.0 L per the CFD-derived
	// limit in the TTS paper).
	WaxVolumeL float64
	// SubStep is the internal integration step; model updates longer
	// than SubStep are subdivided for numerical stability.
	SubStep time.Duration
	// CPUThermalResistanceKPerW converts per-socket power into the die
	// temperature rise above the local air (junction-to-air through
	// the heat sink); CPULimitC is the throttling threshold. The CFD
	// study behind the 4.0 L wax figure verified CPU limits are not
	// exceeded — these two fields let the simulation re-check that
	// constraint under VMT's concentrated placement.
	CPUThermalResistanceKPerW float64
	CPULimitC                 float64
}

// PaperServer returns the calibrated specification used throughout the
// reproduction.
func PaperServer() ServerSpec {
	return ServerSpec{
		CPUs:                4,
		CoresPerCPU:         workload.CoresPerCPU,
		IdlePowerW:          100,
		PeakPowerW:          500,
		PowerScale:          1.5,
		AirConductanceWPerK: 22.35,
		WaxConductanceWPerK: 96,
		AirTimeConstant:     5 * time.Minute,
		WaxVolumeL:          4.0,
		SubStep:             10 * time.Second,
		// 0.25 K/W junction-to-air for a 2U heat sink; Xeon E7 Tcase
		// limits are low 80s °C.
		CPUThermalResistanceKPerW: 0.25,
		CPULimitC:                 85,
	}
}

// MaxCores is the most cores a server may have: the cluster's place
// keys hold its busy cores and per-workload job counts in 15 bits each.
const MaxCores = 1<<15 - 1

// Cores returns the total core count (32 for the paper server).
func (s ServerSpec) Cores() int { return s.CPUs * s.CoresPerCPU }

// Validate reports whether the spec is physically sensible.
func (s ServerSpec) Validate() error {
	switch {
	case s.CPUs <= 0 || s.CoresPerCPU <= 0:
		return fmt.Errorf("thermal: need positive socket/core counts")
	case s.CoresPerCPU > MaxCores/s.CPUs:
		return fmt.Errorf("thermal: CPUs×CoresPerCPU is %d×%d, more than %d cores", s.CPUs, s.CoresPerCPU, MaxCores)
	case s.IdlePowerW < 0 || s.PeakPowerW <= s.IdlePowerW:
		return fmt.Errorf("thermal: need 0 <= idle < peak power, got %v/%v",
			s.IdlePowerW, s.PeakPowerW)
	case s.PowerScale <= 0:
		return fmt.Errorf("thermal: power scale must be positive")
	case s.AirConductanceWPerK <= 0 || s.WaxConductanceWPerK <= 0:
		return fmt.Errorf("thermal: conductances must be positive")
	case s.AirTimeConstant <= 0:
		return fmt.Errorf("thermal: air time constant must be positive")
	case s.WaxVolumeL <= 0:
		return fmt.Errorf("thermal: wax volume must be positive")
	case s.SubStep <= 0:
		return fmt.Errorf("thermal: substep must be positive")
	case s.CPUThermalResistanceKPerW < 0:
		return fmt.Errorf("thermal: negative CPU thermal resistance")
	}
	return nil
}

// CPUTempC estimates the hottest die temperature for a server drawing
// powerW with air at airTempC: the per-socket share of dynamic power
// through the junction-to-air resistance, above the local air.
func (s ServerSpec) CPUTempC(powerW, airTempC float64) float64 {
	dynamic := powerW - s.IdlePowerW
	if dynamic < 0 {
		dynamic = 0
	}
	perSocket := dynamic / float64(s.CPUs)
	return airTempC + perSocket*s.CPUThermalResistanceKPerW
}

// AirHeatCapacityJPerK returns the air/chassis node heat capacity
// implied by the configured time constant.
func (s ServerSpec) AirHeatCapacityJPerK() float64 {
	return (s.AirConductanceWPerK + s.WaxConductanceWPerK) * s.AirTimeConstant.Seconds()
}

// SteadyAirTempC returns the equilibrium air temperature for a given
// power draw once the wax has fully equilibrated (no net wax flow).
func (s ServerSpec) SteadyAirTempC(powerW, inletC float64) float64 {
	return inletC + powerW/s.AirConductanceWPerK
}
