package cluster

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"vmt/internal/workload"
)

// Random job churn must never break the physics invariants: every
// server's melt fraction stays in [0,1], and energy is conserved
// exactly — input splits into ejected heat, wax storage, and air
// sensible heat, with nothing created or lost. This pins the
// lookup-table enthalpy math and the step-transition memo to the
// first-principles balance under arbitrary load sequences.
func TestEnergyConservationRandomJobs(t *testing.T) {
	wls := workload.TableI()
	f := func(ops []uint8, seed uint64) bool {
		const n = 4
		c, err := New(PaperCluster(n))
		if err != nil || c.EnableEstimates() != nil {
			return false
		}
		for k, op := range ops {
			s := c.Server(int(op) % n)
			w := wls[int(op>>2)%len(wls)]
			switch {
			case op%3 == 0 && s.FreeCores() > 0:
				if err := s.Place(w); err != nil {
					t.Logf("place: %v", err)
					return false
				}
			case op%3 == 1 && s.Jobs(w) > 0:
				if err := s.Remove(w); err != nil {
					t.Logf("remove: %v", err)
					return false
				}
			}
			// Vary the step length so substep partials get exercised.
			dt := time.Minute + time.Duration(op%5)*17*time.Second
			sample, err := c.Step(dt)
			if err != nil {
				t.Logf("step %d: %v", k, err)
				return false
			}
			if sample.MeanMeltFrac < 0 || sample.MeanMeltFrac > 1 {
				t.Logf("step %d: mean melt %v out of bounds", k, sample.MeanMeltFrac)
				return false
			}
			for i := 0; i < n; i++ {
				if f := c.Server(i).MeltFrac(); f < 0 || f > 1 {
					t.Logf("step %d: server %d melt %v out of bounds", k, i, f)
					return false
				}
				if f := c.Server(i).ReportedMeltFrac(); f < 0 || f > 1 {
					t.Logf("step %d: server %d reported melt %v out of bounds", k, i, f)
					return false
				}
			}
		}
		for i := 0; i < n; i++ {
			s := c.Server(i)
			led := s.Ledger()
			residual := led.InputJ - led.EjectedJ - led.WaxStoredJ - s.AirEnergyJ()
			// Tolerance scales with turnover; each substep balances
			// exactly, so only accumulated rounding remains.
			tol := 1e-6 * (math.Abs(led.InputJ) + math.Abs(led.EjectedJ) + 1)
			if math.Abs(residual) > tol {
				t.Logf("server %d: conservation residual %v (input %v)", i, residual, led.InputJ)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// The melt-fraction and enthalpy-conservation invariants hold on the
// struct-of-arrays store itself: after heavy mixed load, every View
// slot satisfies melt ∈ [0,1] and the per-server ledger balance
// input = ejected + wax-stored + air-node energy.
func TestFleetStoreInvariants(t *testing.T) {
	const n = 512
	c, err := New(PaperCluster(n))
	if err != nil {
		t.Fatal(err)
	}
	wls := workload.TableI()
	for i := 0; i < n; i++ {
		s := c.Server(i)
		for j := 0; j < i%33; j++ {
			if err := s.Place(wls[(i+j)%len(wls)]); err != nil {
				t.Fatal(err)
			}
		}
	}
	for step := 0; step < 200; step++ {
		if _, err := c.Step(time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	f := c.fleet
	v := f.View()
	for i := 0; i < n; i++ {
		if v.MeltFrac[i] < 0 || v.MeltFrac[i] > 1 {
			t.Fatalf("server %d: melt %v outside [0,1]", i, v.MeltFrac[i])
		}
		led := f.Ledger(i)
		if math.Float64bits(led.WaxStoredJ) != math.Float64bits(v.WaxStoredJ[i]) {
			t.Fatalf("server %d: view ledger disagrees with accessor", i)
		}
		residual := led.InputJ - led.EjectedJ - led.WaxStoredJ - f.AirEnergyJ(i)
		tol := 1e-6 * (math.Abs(led.InputJ) + math.Abs(led.EjectedJ) + 1)
		if math.Abs(residual) > tol {
			t.Fatalf("server %d: conservation residual %v (input %v)", i, residual, led.InputJ)
		}
	}
}

// The fan-out must stay invisible at fleet scale: N=100k servers with
// PhysicsWorkers 1/2/4/8/16 — plus 7, whose uneven chunks exercise the
// boundary arithmetic — produce bit-identical per-server state. Load
// varies per server so a chunk-offset bug cannot cancel out.
func TestStepPhysicsWorkersBitIdenticalAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-server fleet comparison is a long test")
	}
	const n = 100_000
	build := func(workers int) *Cluster {
		cfg := PaperCluster(n)
		cfg.PhysicsWorkers = workers
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			s := c.Server(i)
			for j := 0; j < (i*7)%33; j++ {
				if err := s.Place(workload.VideoEncoding); err != nil {
					t.Fatal(err)
				}
			}
		}
		return c
	}
	ref := build(1)
	const steps = 3
	for step := 0; step < steps; step++ {
		if _, err := ref.Step(time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	refV := ref.fleet.View()
	for _, workers := range []int{2, 4, 7, 8, 16} {
		c := build(workers)
		var sample Sample
		var err error
		for step := 0; step < steps; step++ {
			if sample, err = c.Step(time.Minute); err != nil {
				t.Fatal(err)
			}
		}
		if sample.MeanMeltFrac < 0 || sample.MeanMeltFrac > 1 {
			t.Fatalf("workers=%d: mean melt %v out of bounds", workers, sample.MeanMeltFrac)
		}
		v := c.fleet.View()
		for i := 0; i < n; i++ {
			if math.Float64bits(refV.AirTempC[i]) != math.Float64bits(v.AirTempC[i]) ||
				math.Float64bits(refV.MeltFrac[i]) != math.Float64bits(v.MeltFrac[i]) ||
				math.Float64bits(refV.CoolingLoadW[i]) != math.Float64bits(v.CoolingLoadW[i]) ||
				math.Float64bits(refV.WaxStoredJ[i]) != math.Float64bits(v.WaxStoredJ[i]) {
				t.Fatalf("workers=%d: server %d diverged from workers=1", workers, i)
			}
		}
	}
}

// The per-tick physics fan-out must be invisible: stepping identical
// clusters with 1, 2, and 8 workers through the same job sequence
// leaves every server in a bit-identical state.
func TestStepPhysicsWorkersBitIdentical(t *testing.T) {
	wls := workload.TableI()
	build := func(workers int) *Cluster {
		cfg := PaperCluster(6)
		cfg.PhysicsWorkers = workers
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	clusters := []*Cluster{build(1), build(2), build(8)}
	for step := 0; step < 240; step++ {
		for _, c := range clusters {
			s := c.Server(step % c.Len())
			w := wls[step%len(wls)]
			if step%7 == 3 && s.Jobs(w) > 0 {
				if err := s.Remove(w); err != nil {
					t.Fatal(err)
				}
			} else if s.FreeCores() > 0 {
				if err := s.Place(w); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := c.Step(time.Minute); err != nil {
				t.Fatal(err)
			}
		}
		ref := clusters[0]
		for ci, c := range clusters[1:] {
			for i := 0; i < ref.Len(); i++ {
				a, b := ref.Server(i), c.Server(i)
				if math.Float64bits(a.AirTempC()) != math.Float64bits(b.AirTempC()) ||
					math.Float64bits(a.MeltFrac()) != math.Float64bits(b.MeltFrac()) {
					t.Fatalf("step %d: server %d diverged with %d workers (air %v vs %v, melt %v vs %v)",
						step, i, clusters[ci+1].workers,
						a.AirTempC(), b.AirTempC(), a.MeltFrac(), b.MeltFrac())
				}
			}
		}
	}
}
