package thermal

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"
)

// TestSnapshotRoundTripBitIdentical: stepping a fleet 60 ticks, then
// capturing → serializing → restoring into a second identically built
// fleet and stepping both another 60 ticks, must keep the two fleets
// bit-identical throughout — snapshots are a checkpoint, not an
// approximation.
func TestSnapshotRoundTripBitIdentical(t *testing.T) {
	const n = 8
	a := newTestFleet(t, n)
	power := make([]float64, n)
	for i := range power {
		power[i] = 100 + 50*float64(i%5)
	}
	for step := 0; step < 60; step++ {
		if _, err := a.StepRange(0, n, power, time.Minute); err != nil {
			t.Fatal(err)
		}
	}

	var buf bytes.Buffer
	if err := a.CaptureState().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	st, err := ReadFleetState(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	b := newTestFleet(t, n)
	if err := b.RestoreState(st); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < n; i++ {
		if math.Float64bits(a.waxHJ[i]) != math.Float64bits(b.waxHJ[i]) ||
			math.Float64bits(a.AirTempC(i)) != math.Float64bits(b.AirTempC(i)) ||
			math.Float64bits(a.WaxTempC(i)) != math.Float64bits(b.WaxTempC(i)) ||
			math.Float64bits(a.MeltFrac(i)) != math.Float64bits(b.MeltFrac(i)) {
			t.Fatalf("server %d: restored state differs from captured", i)
		}
	}
	for step := 0; step < 60; step++ {
		power[step%n] = 100 + float64(step%4)*100
		if _, err := a.StepRange(0, n, power, time.Minute); err != nil {
			t.Fatal(err)
		}
		if _, err := b.StepRange(0, n, power, time.Minute); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if math.Float64bits(a.waxHJ[i]) != math.Float64bits(b.waxHJ[i]) ||
				math.Float64bits(a.AirTempC(i)) != math.Float64bits(b.AirTempC(i)) {
				t.Fatalf("step %d server %d: trajectories diverged after restore", step, i)
			}
			la, lb := a.Ledger(i), b.Ledger(i)
			if math.Float64bits(la.InputJ) != math.Float64bits(lb.InputJ) ||
				math.Float64bits(la.EjectedJ) != math.Float64bits(lb.EjectedJ) ||
				math.Float64bits(la.WaxStoredJ) != math.Float64bits(lb.WaxStoredJ) {
				t.Fatalf("step %d server %d: ledgers diverged after restore", step, i)
			}
		}
	}
}

// TestSnapshotPreservesInitVerbatimTemp: a snapshot of a freshly
// initialized fleet must restore the verbatim (non-round-tripped)
// cached wax temperature, not recompute it from the enthalpy.
func TestSnapshotPreservesInitVerbatimTemp(t *testing.T) {
	f := newTestFleet(t, 1)
	var buf bytes.Buffer
	if err := f.CaptureState().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	st, err := ReadFleetState(&buf)
	if err != nil {
		t.Fatal(err)
	}
	g := newTestFleet(t, 1)
	if err := g.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(g.WaxTempC(0)) != math.Float64bits(f.WaxTempC(0)) {
		t.Fatalf("restored wax temp %v != captured %v", g.WaxTempC(0), f.WaxTempC(0))
	}
}

func TestSnapshotRestoreRejectsMismatch(t *testing.T) {
	f := newTestFleet(t, 2)
	st := f.CaptureState()

	big := newTestFleet(t, 3)
	if err := big.RestoreState(st); err == nil {
		t.Error("size mismatch should fail")
	}
}

func TestSnapshotRestoreClearsMemoAndOutputs(t *testing.T) {
	f := newTestFleet(t, 1)
	power := []float64{150}
	for i := 0; i < 1500; i++ { // bit-exact settling takes ~1000 steps
		if _, err := f.StepRange(0, 1, power, time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	if !f.Settled(0) {
		t.Fatal("server should have settled")
	}
	st := f.CaptureState()
	if err := f.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if f.Settled(0) || f.CoolingLoadW(0) != 0 || f.WaxFlowW(0) != 0 {
		t.Error("restore must clear settled flags and per-step outputs")
	}
	// The next step must integrate (memo cleared), and land on the same
	// state the memo would have replayed — the steady state.
	if _, err := f.StepRange(0, 1, power, time.Minute); err != nil {
		t.Fatal(err)
	}
}

func TestReadFleetStateRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"empty":            "",
		"no header":        `{"id":0,"air_c":22}`,
		"bad version":      `{"v":2,"n":0}`,
		"count mismatch":   `{"v":1,"n":2}` + "\n" + `{"id":0}`,
		"id gap":           `{"v":1,"n":1}` + "\n" + `{"id":1}`,
		"melt below zero":  `{"v":1,"n":1}` + "\n" + `{"id":0,"melt":-0.5}`,
		"melt above one":   `{"v":1,"n":1}` + "\n" + `{"id":0,"melt":1.5}`,
		"negative n":       `{"v":1,"n":-1}`,
		"trailing data":    `{"v":1,"n":0} {"x":1}`,
		"not json":         "not json\n",
		"non-finite float": `{"v":1,"n":1}` + "\n" + `{"id":0,"air_c":1e999}`,
	}
	for name, input := range cases {
		if _, err := ReadFleetState(strings.NewReader(input)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestReadFleetStateAcceptsBlankLines(t *testing.T) {
	input := "\n" + `{"v":1,"n":1}` + "\n\n" +
		`{"id":0,"air_c":22,"wax_h_j":1000,"wax_t_c":22,"melt":0,"inlet_c":22,"input_j":0,"eject_j":0,"stored_j":0}` + "\n\n"
	st, err := ReadFleetState(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if st.N != 1 || len(st.Records) != 1 || st.Records[0].AirC != 22 {
		t.Fatalf("decoded %+v", st)
	}
}
