package thermal

import (
	"fmt"
	"math"
	"testing"
	"time"

	"vmt/internal/pcm"
	"vmt/internal/stats"
)

// Differential oracle: the struct-of-arrays Fleet and the retained
// scalar Node are two implementations of the same physics, and every
// trajectory they produce must agree bit for bit — math.Float64bits
// equality on every state variable, every output, every ledger, every
// step. The fleets here are randomized the way a real run stresses the
// kernel: seeded job churn (quantized power levels), crash phases
// (power pinned to zero, as the fault injector does), mixed materials
// and specs, inlet overrides, and step lengths that exercise both the
// counted substep loop and the trailing partial substep.

// oracleFleet pairs a Fleet with its per-server scalar shadow.
type oracleFleet struct {
	fleet *Fleet
	nodes []*Node
}

// newOracleFleet builds n servers with materials and specs cycling
// through a heterogeneous palette, both as a Fleet and as scalar
// Nodes.
func newOracleFleet(t *testing.T, n int) *oracleFleet {
	t.Helper()
	mats := []pcm.Material{
		pcm.CommercialParaffin(),
		pcm.PureNParaffin(40),
		pcm.CommercialParaffin().WithLatentHeat(180_000),
		pcm.Inert(),
	}
	specs := []ServerSpec{PaperServer()}
	{
		s := PaperServer()
		s.WaxVolumeL = 2.5
		s.AirConductanceWPerK = 18
		specs = append(specs, s)
	}
	{
		s := PaperServer()
		s.SubStep = 7 * time.Second // non-divisor of the minute steps below
		s.AirTimeConstant = 3 * time.Minute
		specs = append(specs, s)
	}
	return newOracleFleetOf(t, n, mats, specs, []float64{22, 25, 18.5})
}

// newOracleFleetOf builds n servers whose material, spec and inlet
// cycle through the given palettes, both as a Fleet and as scalar
// Nodes.
func newOracleFleetOf(t *testing.T, n int, mats []pcm.Material, specs []ServerSpec, inlets []float64) *oracleFleet {
	t.Helper()
	f, err := NewFleet(n)
	if err != nil {
		t.Fatal(err)
	}
	of := &oracleFleet{fleet: f, nodes: make([]*Node, n)}
	for i := 0; i < n; i++ {
		mat := mats[i%len(mats)]
		spec := specs[i%len(specs)]
		inlet := inlets[i%len(inlets)]
		if err := f.Init(i, spec, mat, inlet); err != nil {
			t.Fatal(err)
		}
		node, err := NewNode(spec, mat, inlet)
		if err != nil {
			t.Fatal(err)
		}
		of.nodes[i] = node
	}
	return of
}

// stepNodes steps every scalar shadow by dt and requires each fleet
// server to match it bit for bit.
func (of *oracleFleet) stepNodes(t *testing.T, step int, power []float64, dt time.Duration) {
	t.Helper()
	for i, node := range of.nodes {
		res, err := node.Step(power[i], dt)
		if err != nil {
			t.Fatalf("step %d server %d: scalar step failed: %v", step, i, err)
		}
		of.requireBitIdentical(t, step, i, res)
	}
}

// requireBitIdentical compares every observable of fleet server i
// against its scalar shadow with bit equality.
func (of *oracleFleet) requireBitIdentical(t *testing.T, step, i int, res StepResult) {
	t.Helper()
	f, node := of.fleet, of.nodes[i]
	checks := []struct {
		name       string
		fleet, ref float64
	}{
		{"airC", f.AirTempC(i), node.AirTempC()},
		{"waxH", f.waxHJ[i], nodeWaxH(node)},
		{"waxT", f.WaxTempC(i), node.WaxTempC()},
		{"melt", f.MeltFrac(i), node.MeltFrac()},
		{"res.AirTempC", f.AirTempC(i), res.AirTempC},
		{"res.WaxTempC", f.WaxTempC(i), res.WaxTempC},
		{"res.MeltFrac", f.MeltFrac(i), res.MeltFrac},
		{"coolingW", f.CoolingLoadW(i), res.CoolingLoadW},
		{"waxFlowW", f.WaxFlowW(i), res.WaxFlowW},
		{"inputJ", f.Ledger(i).InputJ, node.Ledger().InputJ},
		{"ejectJ", f.Ledger(i).EjectedJ, node.Ledger().EjectedJ},
		{"storedJ", f.Ledger(i).WaxStoredJ, node.Ledger().WaxStoredJ},
		{"airEnergyJ", f.AirEnergyJ(i), node.AirEnergyJ()},
	}
	for _, c := range checks {
		if math.Float64bits(c.fleet) != math.Float64bits(c.ref) {
			t.Fatalf("step %d server %d: %s diverged: fleet %v (%#x) vs scalar %v (%#x)",
				step, i, c.name, c.fleet, math.Float64bits(c.fleet),
				c.ref, math.Float64bits(c.ref))
		}
	}
}

func nodeWaxH(n *Node) float64 {
	h, _ := n.Pack().IntegratorState()
	return h
}

// TestFleetOracleBitIdentical drives both implementations through 400
// steps of randomized load with crash phases, inlet overrides, and
// varying step lengths, demanding bit-identical trajectories
// throughout.
func TestFleetOracleBitIdentical(t *testing.T) {
	const n = 32
	of := newOracleFleet(t, n)
	f := of.fleet
	rng := stats.NewRNG(7)
	spec := PaperServer()
	perCore := spec.PowerScale * 9.5

	power := make([]float64, n)
	crashed := make([]bool, n)
	// Step lengths mix the common tick with lengths that leave a
	// trailing partial substep (61 s, 90 s) and long multi-substep
	// steps (7 min).
	dts := []time.Duration{
		time.Minute, time.Minute, time.Minute, 61 * time.Second,
		90 * time.Second, 7 * time.Minute,
	}
	for step := 0; step < 400; step++ {
		dt := dts[step%len(dts)]
		// Seeded job churn: a few servers change core occupancy each
		// step, quantized to per-core power levels like the cluster's
		// placement bookkeeping produces.
		for k := 0; k < 5; k++ {
			i := rng.Intn(n)
			cores := rng.Intn(33)
			power[i] = spec.IdlePowerW + float64(cores)*perCore
			if power[i] > spec.PeakPowerW {
				power[i] = spec.PeakPowerW
			}
		}
		// Fault churn: crash → zero power (what the injector's crashed
		// servers draw); repair → back to idle.
		if step%17 == 0 {
			i := rng.Intn(n)
			crashed[i] = !crashed[i]
		}
		// Inlet variation, exercising memo invalidation on both sides.
		if step%83 == 41 {
			i := rng.Intn(n)
			c := 20 + rng.Float64()*6
			f.SetInletTempC(i, c)
			of.nodes[i].SetInletTempC(c)
		}
		for i := range power {
			if crashed[i] {
				power[i] = 0
			} else if power[i] == 0 {
				power[i] = spec.IdlePowerW
			}
		}
		if idx, err := f.StepRange(0, n, power, dt); err != nil {
			t.Fatalf("step %d: fleet step failed at server %d: %v", step, idx, err)
		}
		of.stepNodes(t, step, power, dt)
	}
}

// TestFleetOracleSteadyStateMemo holds constant load long enough for
// every server to settle, checks the memo replay path stays
// bit-identical to the scalar memo replay, and that the settled flags
// report the steady state.
func TestFleetOracleSteadyStateMemo(t *testing.T) {
	const n = 8
	of := newOracleFleet(t, n)
	f := of.fleet
	power := make([]float64, n)
	for i := range power {
		power[i] = 100 + 25*float64(i%4)
	}
	// Long enough for air and wax to reach their bit-exact fixed points
	// (the analog transient decays within a few ~32 min time constants,
	// but draining the last ulps of enthalpy takes ~1000 minute-steps).
	for step := 0; step < 2000; step++ {
		if idx, err := f.StepRange(0, n, power, time.Minute); err != nil {
			t.Fatalf("step %d: fleet step failed at server %d: %v", step, idx, err)
		}
		of.stepNodes(t, step, power, time.Minute)
	}
	for i := 0; i < n; i++ {
		if !f.Settled(i) {
			t.Errorf("server %d not settled after 33 h of constant load", i)
		}
	}
	// A load change must drop the settled flag and stay bit-identical
	// through the transient.
	power[0] = 450
	for step := 0; step < 5; step++ {
		if _, err := f.StepRange(0, n, power, time.Minute); err != nil {
			t.Fatal(err)
		}
		of.stepNodes(t, 2000+step, power, time.Minute)
		if step == 0 && f.Settled(0) {
			t.Error("server 0 still settled immediately after a load change")
		}
	}
}

// TestFleetOracleChunkedStepping verifies StepRange over disjoint
// chunks is the same function as one full-range call: the property the
// cluster's parallel fan-out depends on.
func TestFleetOracleChunkedStepping(t *testing.T) {
	const n = 24
	a := newOracleFleet(t, n).fleet
	b := newOracleFleet(t, n).fleet
	rng := stats.NewRNG(11)
	power := make([]float64, n)
	for step := 0; step < 50; step++ {
		for i := range power {
			power[i] = 100 + rng.Float64()*350
		}
		if _, err := a.StepRange(0, n, power, time.Minute); err != nil {
			t.Fatal(err)
		}
		// Uneven chunks, stepped out of order: ranges are disjoint so
		// order cannot matter.
		for _, r := range [][2]int{{17, 24}, {5, 17}, {0, 5}} {
			if _, err := b.StepRange(r[0], r[1], power, time.Minute); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < n; i++ {
			if math.Float64bits(a.AirTempC(i)) != math.Float64bits(b.AirTempC(i)) ||
				math.Float64bits(a.waxHJ[i]) != math.Float64bits(b.waxHJ[i]) {
				t.Fatalf("step %d server %d: chunked stepping diverged from full-range", step, i)
			}
		}
	}
}

// requireFleetsBitIdentical compares every per-server column of two
// fleets — state, projections, outputs, ledgers, settled flags, and
// the step-transition memos, which govern future behavior — with bit
// equality.
func requireFleetsBitIdentical(t *testing.T, step int, a, b *Fleet) {
	t.Helper()
	if a.n != b.n {
		t.Fatalf("fleet sizes differ: %d vs %d", a.n, b.n)
	}
	for i := 0; i < a.n; i++ {
		cols := []struct {
			name string
			x, y float64
		}{
			{"airC", a.airC[i], b.airC[i]},
			{"waxHJ", a.waxHJ[i], b.waxHJ[i]},
			{"waxTC", a.waxTC[i], b.waxTC[i]},
			{"meltFrac", a.meltFrac[i], b.meltFrac[i]},
			{"inputJ", a.inputJ[i], b.inputJ[i]},
			{"ejectJ", a.ejectJ[i], b.ejectJ[i]},
			{"storedJ", a.storedJ[i], b.storedJ[i]},
			{"coolingW", a.coolingW[i], b.coolingW[i]},
			{"waxFlowW", a.waxFlowW[i], b.waxFlowW[i]},
		}
		for _, c := range cols {
			if math.Float64bits(c.x) != math.Float64bits(c.y) {
				t.Fatalf("step %d server %d: %s diverged: %v (%#x) vs %v (%#x)",
					step, i, c.name, c.x, math.Float64bits(c.x), c.y, math.Float64bits(c.y))
			}
		}
		if a.settled[i] != b.settled[i] {
			t.Fatalf("step %d server %d: settled flag diverged: %v vs %v",
				step, i, a.settled[i], b.settled[i])
		}
		if a.memo[i] != b.memo[i] {
			t.Fatalf("step %d server %d: step-transition memo diverged", step, i)
		}
		if a.memoState[i] != b.memoState[i] {
			t.Fatalf("step %d server %d: step-transition memo state diverged: %03b vs %03b",
				step, i, a.memoState[i], b.memoState[i])
		}
	}
}

// TestFleetOracleLaneLists drives the lane-list bookkeeping of
// StepRange against the scalar oracle: full lists, partial lists at
// chunk ends, flushes at substep changes, and lists filled around memo
// replays must all leave every server bit-identical to Node.Step.
func TestFleetOracleLaneLists(t *testing.T) {
	spec := PaperServer()
	perCore := spec.PowerScale * 9.5
	dts := []time.Duration{
		time.Minute, time.Minute, 61 * time.Second, 90 * time.Second, 7 * time.Minute,
	}

	churn := func(t *testing.T, of *oracleFleet, chunks [][2]int, steps int, seed uint64) {
		t.Helper()
		n := len(of.nodes)
		rng := stats.NewRNG(seed)
		power := make([]float64, n)
		for i := range power {
			power[i] = spec.IdlePowerW
		}
		for step := 0; step < steps; step++ {
			dt := dts[step%len(dts)]
			for k := 0; k < 5; k++ {
				i := rng.Intn(n)
				cores := rng.Intn(33)
				power[i] = spec.IdlePowerW + float64(cores)*perCore
				if power[i] > spec.PeakPowerW {
					power[i] = spec.PeakPowerW
				}
			}
			for _, r := range chunks {
				if idx, err := of.fleet.StepRange(r[0], r[1], power, dt); err != nil {
					t.Fatalf("step %d: fleet step failed at server %d: %v", step, idx, err)
				}
			}
			of.stepNodes(t, step, power, dt)
		}
	}

	t.Run("homogeneous", func(t *testing.T) {
		// Chunk starts at 5 and 17 are not lane multiples, and each
		// chunk ends on a partial lane list.
		const n = 53
		of := newOracleFleetOf(t, n, []pcm.Material{pcm.CommercialParaffin()},
			[]ServerSpec{spec}, []float64{22})
		churn(t, of, [][2]int{{0, 5}, {5, 17}, {17, n}}, 300, 13)
	})

	t.Run("heterogeneous", func(t *testing.T) {
		// Every third server has a 7 s substep, so the lane list
		// flushes twice in every three servers.
		const n = 29
		churn(t, newOracleFleet(t, n), [][2]int{{0, n}}, 300, 17)
	})

	t.Run("settled memo replay", func(t *testing.T) {
		const n = 16
		of := newOracleFleetOf(t, n, []pcm.Material{pcm.CommercialParaffin()},
			[]ServerSpec{spec}, []float64{22})
		f := of.fleet
		power := make([]float64, n)
		for i := range power {
			power[i] = 100 + 25*float64(i%4)
		}
		// Constant load until every server settles and replays its memo.
		for step := 0; step < 2000; step++ {
			if _, err := f.StepRange(0, n, power, time.Minute); err != nil {
				t.Fatal(err)
			}
			of.stepNodes(t, step, power, time.Minute)
		}
		for i := 0; i < n; i++ {
			if !f.Settled(i) {
				t.Fatalf("server %d not settled after 33 h of constant load", i)
			}
		}
		// Perturb one server: it joins a lane list on its own while its
		// neighbours replay around it.
		power[3] = 450
		for step := 0; step < 5; step++ {
			if _, err := f.StepRange(0, n, power, time.Minute); err != nil {
				t.Fatal(err)
			}
			of.stepNodes(t, 2000+step, power, time.Minute)
			if f.Settled(3) {
				t.Fatalf("step %d: perturbed server still settled", step)
			}
		}
	})
}

// TestFleetStepRangeFirstError pins StepRange's first-error contract
// wherever the bad server falls relative to the lane lists: it
// reports that server's index and message, every server before it has
// committed its step (pending lane lists are flushed before the error
// returns), and it and every later server are untouched.
func TestFleetStepRangeFirstError(t *testing.T) {
	spec := PaperServer()
	mat := pcm.CommercialParaffin()
	const n = 12
	for _, bad := range []int{0, 3, 7, 11} {
		for _, kind := range []string{"negative power", "uninitialized"} {
			build := func() *Fleet {
				f, err := NewFleet(n)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < n; i++ {
					if kind == "uninitialized" && i == bad {
						continue
					}
					if err := f.Init(i, spec, mat, 22); err != nil {
						t.Fatal(err)
					}
				}
				return f
			}
			power := make([]float64, n)
			for i := range power {
				power[i] = 150 + 25*float64(i)
			}
			want := fmt.Sprintf("thermal: fleet server %d not initialized", bad)
			if kind == "negative power" {
				power[bad] = -1
				want = "thermal: negative power -1"
			}
			got := build()
			idx, err := got.StepRange(0, n, power, time.Minute)
			if err == nil || idx != bad || err.Error() != want {
				t.Fatalf("bad=%d (%s): got (%d, %v), want (%d, %q)", bad, kind, idx, err, bad, want)
			}
			ref := build()
			if _, err := ref.StepRange(0, bad, power, time.Minute); err != nil {
				t.Fatal(err)
			}
			requireFleetsBitIdentical(t, 0, got, ref)
		}
	}
}
