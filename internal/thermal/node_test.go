package thermal

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"vmt/internal/pcm"
)

func newNode(t *testing.T) *Node {
	t.Helper()
	n, err := NewNode(PaperServer(), pcm.CommercialParaffin(), 22)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestSpecValidate(t *testing.T) {
	if err := PaperServer().Validate(); err != nil {
		t.Fatalf("PaperServer invalid: %v", err)
	}
	cases := []func(*ServerSpec){
		func(s *ServerSpec) { s.CPUs = 0 },
		func(s *ServerSpec) { s.CoresPerCPU = 0 },
		func(s *ServerSpec) { s.IdlePowerW = -1 },
		func(s *ServerSpec) { s.PeakPowerW = s.IdlePowerW },
		func(s *ServerSpec) { s.PowerScale = 0 },
		func(s *ServerSpec) { s.AirConductanceWPerK = 0 },
		func(s *ServerSpec) { s.WaxConductanceWPerK = -1 },
		func(s *ServerSpec) { s.AirTimeConstant = 0 },
		func(s *ServerSpec) { s.WaxVolumeL = 0 },
		func(s *ServerSpec) { s.SubStep = 0 },
		func(s *ServerSpec) { s.CPUs, s.CoresPerCPU = 2, 1<<30 },     // 2^31 cores
		func(s *ServerSpec) { s.CPUs, s.CoresPerCPU = 1<<16, 1<<16 }, // 2^32 cores
	}
	for i, mutate := range cases {
		s := PaperServer()
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestCores(t *testing.T) {
	if got := PaperServer().Cores(); got != 32 {
		t.Fatalf("Cores = %d, want 32", got)
	}
}

func TestStepRejectsBadInput(t *testing.T) {
	n := newNode(t)
	if _, err := n.Step(100, 0); err == nil {
		t.Fatal("zero dt should fail")
	}
	if _, err := n.Step(-1, time.Minute); err == nil {
		t.Fatal("negative power should fail")
	}
}

// Idle server converges to the steady-state temperature below melting.
func TestIdleSteadyState(t *testing.T) {
	n := newNode(t)
	spec := PaperServer()
	var last StepResult
	for i := 0; i < 300; i++ { // 5 hours (combined time constant ≈ 32 min)
		var err error
		last, err = n.Step(spec.IdlePowerW, time.Minute)
		if err != nil {
			t.Fatal(err)
		}
	}
	want := spec.SteadyAirTempC(spec.IdlePowerW, 22) // 22 + 100/22.35 ≈ 26.5
	if math.Abs(last.AirTempC-want) > 0.05 {
		t.Fatalf("idle air temp = %v, want ≈%v", last.AirTempC, want)
	}
	if last.MeltFrac != 0 {
		t.Fatalf("idle server should not melt wax, frac=%v", last.MeltFrac)
	}
	// At steady state the whole draw goes to the room.
	if math.Abs(last.CoolingLoadW-spec.IdlePowerW) > 0.5 {
		t.Fatalf("steady cooling load = %v, want ≈%v", last.CoolingLoadW, spec.IdlePowerW)
	}
}

// A hot server pins its air temperature near the melting point while
// the wax melts, then rises once fully melted — the TTS mechanism.
func TestMeltingPinsAirTemp(t *testing.T) {
	n := newNode(t)
	const power = 400 // well above melt threshold (22+400/22.35 ≈ 39.9)
	sawPinned := false
	var full StepResult
	for i := 0; i < 20*60; i++ {
		res, err := n.Step(power, time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		if res.MeltFrac > 0.2 && res.MeltFrac < 0.8 {
			// During bulk melting the wax holds the air down near the
			// melting point (within the KAir/HWax divider).
			if res.AirTempC < 35.7 || res.AirTempC > 37.0 {
				t.Fatalf("air %.2f°C during melt (frac %.2f), want pinned near 35.7",
					res.AirTempC, res.MeltFrac)
			}
			sawPinned = true
		}
		full = res
	}
	if !sawPinned {
		t.Fatal("never observed bulk melting")
	}
	if full.MeltFrac != 1 {
		t.Fatalf("wax should be fully melted, frac=%v", full.MeltFrac)
	}
	want := PaperServer().SteadyAirTempC(power, 22)
	if math.Abs(full.AirTempC-want) > 0.2 {
		t.Fatalf("post-melt air = %v, want ≈%v", full.AirTempC, want)
	}
}

// While melting, the cooling load is clamped below the applied power:
// the wax absorbs the difference (thermal time shifting).
func TestWaxDefersCoolingLoad(t *testing.T) {
	n := newNode(t)
	const power = 400
	// Warm up to the melting regime.
	for i := 0; i < 60; i++ {
		if _, err := n.Step(power, time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	res, err := n.Step(power, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeltFrac <= 0 || res.MeltFrac >= 1 {
		t.Fatalf("expected mid-melt, frac=%v", res.MeltFrac)
	}
	if res.WaxFlowW <= 0 {
		t.Fatalf("wax should be absorbing, flow=%v", res.WaxFlowW)
	}
	if res.CoolingLoadW >= power {
		t.Fatalf("cooling load %v not reduced below power %v", res.CoolingLoadW, power)
	}
	// Step-level balance: load + wax flow + air heating == power.
	// (air term is small near quasi-steady state)
	if res.CoolingLoadW+res.WaxFlowW > power+1 {
		t.Fatalf("flows exceed input: %v + %v > %v", res.CoolingLoadW, res.WaxFlowW, power)
	}
}

// After load drops, melted wax refreezes and releases its stored heat:
// the cooling load temporarily exceeds the applied power.
func TestRefreezeReleasesHeat(t *testing.T) {
	n := newNode(t)
	for i := 0; i < 10*60; i++ {
		if _, err := n.Step(400, time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	if n.MeltFrac() < 0.5 {
		t.Fatalf("warm-up melted only %v", n.MeltFrac())
	}
	sawRelease := false
	for i := 0; i < 6*60; i++ {
		res, err := n.Step(100, time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		if res.WaxFlowW < -1 && res.CoolingLoadW > 100 {
			sawRelease = true
		}
	}
	if !sawRelease {
		t.Fatal("refreeze never released heat to the room")
	}
	if n.MeltFrac() > 0.05 {
		t.Fatalf("wax should largely refreeze at idle, frac=%v", n.MeltFrac())
	}
}

// Exact discrete energy conservation across an arbitrary power history.
func TestEnergyConservation(t *testing.T) {
	n := newNode(t)
	powers := []float64{100, 350, 500, 80, 420, 150, 470, 100}
	for _, p := range powers {
		for i := 0; i < 90; i++ {
			if _, err := n.Step(p, time.Minute); err != nil {
				t.Fatal(err)
			}
		}
	}
	led := n.Ledger()
	waxDelta := n.Pack().EnthalpyJ(22) // started solid at 22°C
	balance := led.InputJ - led.EjectedJ - n.AirEnergyJ() - waxDelta
	if math.Abs(balance) > 1e-6*led.InputJ {
		t.Fatalf("energy imbalance %v J of %v J input", balance, led.InputJ)
	}
	if math.Abs(led.WaxStoredJ-waxDelta) > 1e-6*led.InputJ {
		t.Fatalf("ledger wax %v != enthalpy delta %v", led.WaxStoredJ, waxDelta)
	}
}

// Property: conservation holds for random power sequences, and state
// stays within physical bounds.
func TestConservationProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		n, err := NewNode(PaperServer(), pcm.CommercialParaffin(), 22)
		if err != nil {
			return false
		}
		for _, r := range raw {
			p := float64(r % 501)
			if _, err := n.Step(p, 5*time.Minute); err != nil {
				return false
			}
			if n.MeltFrac() < 0 || n.MeltFrac() > 1 {
				return false
			}
		}
		led := n.Ledger()
		balance := led.InputJ - led.EjectedJ - n.AirEnergyJ() - n.Pack().EnthalpyJ(22)
		return math.Abs(balance) <= 1e-6*(led.InputJ+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// The calibration anchor: a round-robin server under the paper mix at
// 95% utilization stays just below the melting point (TTS alone cannot
// melt wax in this datacenter), while a hot-group server under VMT
// exceeds it.
func TestCalibrationAnchors(t *testing.T) {
	spec := PaperServer()
	// Round-robin server: paper-mix mean per-core dynamic power.
	mixPerCore := 4.2775 * spec.PowerScale // W/core, see workload.PaperMix
	rrPower := spec.IdlePowerW + 0.95*32*mixPerCore
	rrTemp := spec.SteadyAirTempC(rrPower, 22)
	if rrTemp >= 35.7 {
		t.Fatalf("RR peak steady temp %v must stay below PMT 35.7", rrTemp)
	}
	if rrTemp < 34.5 {
		t.Fatalf("RR peak steady temp %v should approach PMT (calibration drifted)", rrTemp)
	}
	// Hot-group server at GV=22: 18,240 hot cores over 616 servers.
	hotPerCore := 6.3198 * spec.PowerScale
	hotPower := spec.IdlePowerW + 18240.0/616*hotPerCore
	hotTemp := spec.SteadyAirTempC(hotPower, 22)
	if hotTemp <= 35.7+1 {
		t.Fatalf("hot group steady temp %v must clear PMT with margin", hotTemp)
	}
}

func TestSetInletTemp(t *testing.T) {
	n := newNode(t)
	n.SetInletTempC(24)
	if n.InletTempC() != 24 {
		t.Fatalf("inlet = %v", n.InletTempC())
	}
	for i := 0; i < 300; i++ {
		if _, err := n.Step(100, time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	want := PaperServer().SteadyAirTempC(100, 24)
	if math.Abs(n.AirTempC()-want) > 0.1 {
		t.Fatalf("air = %v, want %v", n.AirTempC(), want)
	}
}

func TestStepSubdividesLongSteps(t *testing.T) {
	// A single 1-hour step must land on the same state as 60 1-minute
	// steps (both subdivide to the same 10s grid).
	a := newNode(t)
	b := newNode(t)
	if _, err := a.Step(400, time.Hour); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		if _, err := b.Step(400, time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	if math.Abs(a.AirTempC()-b.AirTempC()) > 1e-9 {
		t.Fatalf("air temps diverge: %v vs %v", a.AirTempC(), b.AirTempC())
	}
	if math.Abs(a.MeltFrac()-b.MeltFrac()) > 1e-12 {
		t.Fatalf("melt fracs diverge: %v vs %v", a.MeltFrac(), b.MeltFrac())
	}
}

func TestCPUTempAndThrottle(t *testing.T) {
	spec := PaperServer()
	// Idle: die at air temperature.
	if got := spec.CPUTempC(spec.IdlePowerW, 30); got != 30 {
		t.Fatalf("idle die temp = %v", got)
	}
	// Below idle power is clamped.
	if got := spec.CPUTempC(50, 30); got != 30 {
		t.Fatalf("sub-idle die temp = %v", got)
	}
	// Full dynamic power: 400 W over 4 sockets × 0.25 K/W = +25 °C.
	if got := spec.CPUTempC(500, 40); math.Abs(got-65) > 1e-12 {
		t.Fatalf("full-load die temp = %v, want 65", got)
	}
	if spec.WouldThrottle(500, 40) {
		t.Fatal("65 °C should not throttle")
	}
	if !spec.WouldThrottle(500, 61) {
		t.Fatal("86 °C should throttle")
	}
	// Zero limit disables the check.
	spec.CPULimitC = 0
	if spec.WouldThrottle(500, 200) {
		t.Fatal("disabled limit should never throttle")
	}
	spec = PaperServer()
	spec.CPUThermalResistanceKPerW = -1
	if err := spec.Validate(); err == nil {
		t.Fatal("negative resistance should fail validation")
	}
}
