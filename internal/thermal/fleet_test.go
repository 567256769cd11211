package thermal

import (
	"math"
	"testing"
	"time"

	"vmt/internal/pcm"
)

func newTestFleet(t *testing.T, n int) *Fleet {
	t.Helper()
	inlets := make([]float64, n)
	for i := range inlets {
		inlets[i] = 22
	}
	f, err := NewFleet(PaperServer(), pcm.CommercialParaffin(), inlets)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestNewFleetRejectsBadSize(t *testing.T) {
	for _, inlets := range [][]float64{nil, {}} {
		if _, err := NewFleet(PaperServer(), pcm.CommercialParaffin(), inlets); err == nil {
			t.Errorf("NewFleet with %d inlets should fail", len(inlets))
		}
	}
}

func TestNewFleetValidates(t *testing.T) {
	inlets := []float64{22, 22}
	bad := PaperServer()
	bad.SubStep = 0
	if _, err := NewFleet(bad, pcm.CommercialParaffin(), inlets); err == nil {
		t.Error("invalid spec should fail")
	}
	badMat := pcm.CommercialParaffin()
	badMat.LatentHeatJPerKg = 0
	if _, err := NewFleet(PaperServer(), badMat, inlets); err == nil {
		t.Error("invalid material should fail")
	}
	if _, err := NewFleet(PaperServer(), pcm.CommercialParaffin(), inlets); err != nil {
		t.Errorf("valid spec and material: %v", err)
	}
}

func TestFleetInitMatchesNode(t *testing.T) {
	// Every server's initial state must match NewNode at its inlet bit
	// for bit — including the Pack.Reset quirk of pinning the cached wax
	// temperature verbatim.
	inlets := []float64{22, 25.3, 40.1}
	f, err := NewFleet(PaperServer(), pcm.CommercialParaffin(), inlets)
	if err != nil {
		t.Fatal(err)
	}
	for i, inlet := range inlets {
		node, err := NewNode(PaperServer(), pcm.CommercialParaffin(), inlet)
		if err != nil {
			t.Fatal(err)
		}
		h, wt := node.Pack().IntegratorState()
		if math.Float64bits(f.waxHJ[i]) != math.Float64bits(h) {
			t.Errorf("inlet %v: enthalpy %v != node %v", inlet, f.waxHJ[i], h)
		}
		if math.Float64bits(f.WaxTempC(i)) != math.Float64bits(wt) {
			t.Errorf("inlet %v: wax temp %v != node %v", inlet, f.WaxTempC(i), wt)
		}
		if f.MeltFrac(i) != node.MeltFrac() {
			t.Errorf("inlet %v: melt %v != node %v", inlet, f.MeltFrac(i), node.MeltFrac())
		}
		if f.AirTempC(i) != inlet || f.InletTempC(i) != inlet {
			t.Errorf("inlet %v: air/inlet not pinned", inlet)
		}
		if math.Float64bits(f.EnthalpyJ(i, 22)) != math.Float64bits(node.Pack().EnthalpyJ(22)) {
			t.Errorf("inlet %v: EnthalpyJ mismatch", inlet)
		}
	}
	// The fleet holds its own inlets: the caller's slice is not aliased.
	inlets[0] = 30
	if f.InletTempC(0) != 22 {
		t.Error("NewFleet aliased the caller's inlet slice")
	}
}

func TestFleetStepRejectsBadInput(t *testing.T) {
	f := newTestFleet(t, 4)
	power := make([]float64, 4)
	if _, err := f.StepRange(0, 4, power, 0); err == nil {
		t.Error("zero dt should fail")
	}
	if _, err := f.StepRange(-1, 4, power, time.Minute); err == nil {
		t.Error("negative lo should fail")
	}
	if _, err := f.StepRange(0, 5, power, time.Minute); err == nil {
		t.Error("hi out of range should fail")
	}
	if _, err := f.StepRange(3, 2, power, time.Minute); err == nil {
		t.Error("inverted range should fail")
	}
	// A power slice shorter than the range fails before any server
	// steps.
	untouched := newTestFleet(t, 4)
	if idx, err := f.StepRange(1, 4, []float64{100, 100, 100}, time.Minute); err == nil || idx != 1 {
		t.Errorf("short power slice: got (%d, %v), want an error at index 1", idx, err)
	}
	requireFleetsBitIdentical(t, 0, f, untouched)
	power[2] = -5
	idx, err := f.StepRange(0, 4, power, time.Minute)
	if err == nil {
		t.Fatal("negative power should fail")
	}
	if idx != 2 {
		t.Errorf("error index = %d, want 2 (the offending server)", idx)
	}
}

func TestFleetViewAliasesState(t *testing.T) {
	f := newTestFleet(t, 3)
	v := f.View()
	if len(v.AirTempC) != 3 || len(v.MeltFrac) != 3 || len(v.CoolingLoadW) != 3 ||
		len(v.WaxFlowW) != 3 || len(v.WaxStoredJ) != 3 || len(v.Settled) != 3 {
		t.Fatal("view slices must span the fleet")
	}
	power := []float64{400, 100, 250}
	if _, err := f.StepRange(0, 3, power, time.Minute); err != nil {
		t.Fatal(err)
	}
	// The view is live: the same slices the step wrote.
	for i := 0; i < 3; i++ {
		if v.AirTempC[i] != f.AirTempC(i) || v.CoolingLoadW[i] != f.CoolingLoadW(i) {
			t.Fatalf("server %d: view is not live", i)
		}
	}
	if v.AirTempC[0] <= 22 {
		t.Error("loaded server should have warmed above its inlet")
	}
}

func TestFleetSetInletInvalidatesMemo(t *testing.T) {
	f := newTestFleet(t, 1)
	power := []float64{150}
	// Settle to the memoized steady state. Reaching the bit-exact fixed
	// point takes ~1000 minute-steps: the analog transient decays in a
	// few time constants, but the last ulps of enthalpy drain
	// geometrically.
	for i := 0; i < 1500; i++ {
		if _, err := f.StepRange(0, 1, power, time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	if !f.Settled(0) {
		t.Fatal("server should settle under 25 h of constant load")
	}
	f.SetInletTempC(0, 27)
	if f.InletTempC(0) != 27 {
		t.Fatal("inlet not updated")
	}
	if _, err := f.StepRange(0, 1, power, time.Minute); err != nil {
		t.Fatal(err)
	}
	if f.Settled(0) {
		t.Error("memo must not replay across an inlet change")
	}
	if f.AirTempC(0) <= 22+150/PaperServer().AirConductanceWPerK-1 {
		t.Error("air temperature should drift toward the warmer inlet")
	}
}

func TestFleetSpecMaterialAccessors(t *testing.T) {
	s := PaperServer()
	s.WaxVolumeL = 2.5
	f, err := NewFleet(s, pcm.Inert(), []float64{22, 22})
	if err != nil {
		t.Fatal(err)
	}
	if f.Spec().WaxVolumeL != 2.5 || f.Material().Name != pcm.Inert().Name {
		t.Error("spec/material not retained")
	}
	if f.Len() != 2 {
		t.Errorf("Len = %d, want 2", f.Len())
	}
}

// TestFleetMeltFracBounds drives a server through full melt and
// refreeze; the melt fraction must stay in [0,1] at every step.
func TestFleetMeltFracBounds(t *testing.T) {
	f := newTestFleet(t, 1)
	check := func(phase string) {
		t.Helper()
		m := f.MeltFrac(0)
		if m < 0 || m > 1 {
			t.Fatalf("%s: melt fraction %v outside [0,1]", phase, m)
		}
	}
	power := []float64{500}
	for i := 0; i < 2000; i++ { // full melt and beyond
		if _, err := f.StepRange(0, 1, power, time.Minute); err != nil {
			t.Fatal(err)
		}
		check("melting")
	}
	if f.MeltFrac(0) != 1 {
		t.Fatalf("peak load for 33 h should fully melt the wax, got %v", f.MeltFrac(0))
	}
	power[0] = 100
	for i := 0; i < 2000; i++ {
		if _, err := f.StepRange(0, 1, power, time.Minute); err != nil {
			t.Fatal(err)
		}
		check("refreezing")
	}
	if f.MeltFrac(0) != 0 {
		t.Fatalf("idle load for 33 h should refreeze the wax, got %v", f.MeltFrac(0))
	}
}

// TestFleetEnergyConservation checks the ledger identity
// input = ejected + wax-stored + air-node energy at every step.
func TestFleetEnergyConservation(t *testing.T) {
	f := newTestFleet(t, 2)
	power := []float64{380, 120}
	for step := 0; step < 500; step++ {
		if _, err := f.StepRange(0, 2, power, time.Minute); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			l := f.Ledger(i)
			balance := l.InputJ - l.EjectedJ - l.WaxStoredJ - f.AirEnergyJ(i)
			if scale := math.Max(l.InputJ, 1); math.Abs(balance)/scale > 1e-9 {
				t.Fatalf("step %d server %d: energy imbalance %v J of %v J input",
					step, i, balance, l.InputJ)
			}
		}
	}
}
