package fault

import (
	"testing"
	"time"

	"vmt/internal/cluster"
	"vmt/internal/workload"
)

// stubHost records evacuations without a scheduler: it "moves" every
// job off the crashed server by removing it.
type stubHost struct {
	evacuated []int
}

func (h *stubHost) Evacuate(s *cluster.Server) (moved, lost int, err error) {
	h.evacuated = append(h.evacuated, s.ID())
	for _, w := range s.Workloads() {
		for s.Jobs(w) > 0 {
			if err := s.Remove(w); err != nil {
				return moved, lost, err
			}
			moved++
		}
	}
	return moved, lost, nil
}

func testCluster(t *testing.T, n int) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New(cluster.PaperCluster(n))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestScheduledCrashAndRepair(t *testing.T) {
	c := testCluster(t, 4)
	w := workload.WebSearch
	for i := 0; i < 3; i++ {
		if err := c.Server(1).Place(w); err != nil {
			t.Fatal(err)
		}
	}
	host := &stubHost{}
	plan := &Plan{Crashes: []Crash{{Server: 1, AtMin: 10, RepairAfterMin: 20}}}
	if err := plan.ValidateFor(c.Len()); err != nil {
		t.Fatal(err)
	}
	inj := NewInjector(plan, c, host, nil)

	step := time.Minute
	if err := inj.Tick(5*time.Minute, step); err != nil {
		t.Fatal(err)
	}
	if c.Server(1).Failed() {
		t.Fatal("server crashed before its scheduled time")
	}
	if err := inj.Tick(10*time.Minute, step); err != nil {
		t.Fatal(err)
	}
	if !c.Server(1).Failed() {
		t.Fatal("server should be down at its crash time")
	}
	if got := c.Server(1).FreeCores(); got != 0 {
		t.Fatalf("failed server advertises %d free cores, want 0", got)
	}
	if got := c.Server(1).PowerW(); got != 0 {
		t.Fatalf("failed server draws %v W, want 0", got)
	}
	if c.FailedServers() != 1 {
		t.Fatalf("FailedServers() = %d, want 1", c.FailedServers())
	}
	if len(host.evacuated) != 1 || host.evacuated[0] != 1 {
		t.Fatalf("evacuated = %v, want [1]", host.evacuated)
	}
	if inj.Crashes() != 1 || inj.Evacuated() != 3 || inj.Lost() != 0 {
		t.Fatalf("crashes=%d evacuated=%d lost=%d, want 1/3/0",
			inj.Crashes(), inj.Evacuated(), inj.Lost())
	}

	// Before the repair window elapses the server stays down.
	if err := inj.Tick(25*time.Minute, step); err != nil {
		t.Fatal(err)
	}
	if !c.Server(1).Failed() {
		t.Fatal("server repaired early")
	}
	if err := inj.Tick(30*time.Minute, step); err != nil {
		t.Fatal(err)
	}
	if c.Server(1).Failed() {
		t.Fatal("server should be repaired after its downtime")
	}
	if c.FailedServers() != 0 {
		t.Fatalf("FailedServers() = %d after repair, want 0", c.FailedServers())
	}
	if inj.Repairs() != 1 {
		t.Fatalf("Repairs() = %d, want 1", inj.Repairs())
	}
}

func TestUnrepairedCrashStaysDown(t *testing.T) {
	c := testCluster(t, 2)
	plan := &Plan{Crashes: []Crash{{Server: 0, AtMin: 1}}}
	inj := NewInjector(plan, c, &stubHost{}, nil)
	for minute := 1; minute <= 600; minute += 30 {
		if err := inj.Tick(time.Duration(minute)*time.Minute, time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	if !c.Server(0).Failed() {
		t.Fatal("unrepaired crash should keep the server down")
	}
	if inj.Repairs() != 0 {
		t.Fatalf("Repairs() = %d, want 0", inj.Repairs())
	}
}

// TestStochasticDeterminism: the same plan over two fresh clusters
// produces the identical crash history, tick for tick.
func TestStochasticDeterminism(t *testing.T) {
	run := func() []uint64 {
		c := testCluster(t, 8)
		plan := &Plan{Seed: 11, Stochastic: &Stochastic{RatePerHour: 2, RepairAfterMin: 15}}
		inj := NewInjector(plan, c, &stubHost{}, nil)
		var history []uint64
		for minute := 5; minute <= 600; minute += 5 {
			if err := inj.Tick(time.Duration(minute)*time.Minute, 5*time.Minute); err != nil {
				t.Fatal(err)
			}
			history = append(history, inj.Crashes(), inj.Repairs())
		}
		return history
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("histories diverge at step %d: %d vs %d", i, a[i], b[i])
		}
	}
	if a[len(a)-2] == 0 {
		t.Fatal("rate 2/h over 10h on 8 servers should have crashed something")
	}
}

func TestStochasticSeedChangesHistory(t *testing.T) {
	crashAt := func(seed uint64) uint64 {
		c := testCluster(t, 8)
		plan := &Plan{Seed: seed, Stochastic: &Stochastic{RatePerHour: 2, RepairAfterMin: 15}}
		inj := NewInjector(plan, c, &stubHost{}, nil)
		var first uint64
		for minute := 5; minute <= 600; minute += 5 {
			if err := inj.Tick(time.Duration(minute)*time.Minute, 5*time.Minute); err != nil {
				t.Fatal(err)
			}
			if first == 0 && inj.Crashes() > 0 {
				first = uint64(minute)
			}
		}
		return first
	}
	if crashAt(1) == crashAt(2) && crashAt(3) == crashAt(1) {
		t.Fatal("three seeds all crash first at the same tick; RNG looks unseeded")
	}
}

func TestArrheniusMTBFOverride(t *testing.T) {
	c := testCluster(t, 2)
	plan := &Plan{Stochastic: &Stochastic{Arrhenius: true, MTBFHours: 1234}}
	inj := NewInjector(plan, c, &stubHost{}, nil)
	if inj.model.MTBFHours != 1234 {
		t.Fatalf("MTBFHours = %v, want the plan's 1234", inj.model.MTBFHours)
	}
}

func TestSensorFaultKinds(t *testing.T) {
	c := testCluster(t, 4)
	plan := &Plan{
		Seed: 5,
		Sensors: []SensorFault{
			{Server: 0, Kind: KindStuck, StartMin: 10, EndMin: 20, ValueC: 99},
			{Server: 1, Kind: KindDrift, StartMin: 0, DriftCPerHour: 6},
			{Server: 2, Kind: KindNoise, StartMin: 0, StdevC: 0.5},
			{Server: 3, Kind: KindDropout, StartMin: 30},
		},
	}
	inj := NewInjector(plan, c, &stubHost{}, nil)

	// Stuck: inside the window the reading is ValueC, outside it passes
	// through.
	if v, ok := inj.sensors[0].Sense(30, 15*time.Minute); !ok || v != 99 {
		t.Fatalf("stuck window: got (%v, %v), want (99, true)", v, ok)
	}
	if v, ok := inj.sensors[0].Sense(30, 25*time.Minute); !ok || v != 30 {
		t.Fatalf("after stuck window: got (%v, %v), want (30, true)", v, ok)
	}

	// Drift: 6 °C/h for 30 min = +3 °C.
	if v, ok := inj.sensors[1].Sense(30, 30*time.Minute); !ok || v != 33 {
		t.Fatalf("drift: got (%v, %v), want (33, true)", v, ok)
	}

	// Noise: perturbed but present, and deterministic per sensor RNG.
	v1, ok1 := inj.sensors[2].Sense(30, time.Minute)
	if !ok1 || v1 == 30 {
		t.Fatalf("noise: got (%v, %v), want a perturbed reading", v1, ok1)
	}
	c2, _ := cluster.New(cluster.PaperCluster(4))
	inj2 := NewInjector(plan, c2, &stubHost{}, nil)
	if v2, _ := inj2.sensors[2].Sense(30, time.Minute); v2 != v1 {
		t.Fatalf("noise not deterministic: %v vs %v", v1, v2)
	}

	// Dropout: no reading inside the open-ended window.
	if _, ok := inj.sensors[3].Sense(30, 29*time.Minute); !ok {
		t.Fatal("dropout before its window should pass through")
	}
	if _, ok := inj.sensors[3].Sense(30, 31*time.Minute); ok {
		t.Fatal("dropout window should suppress the reading")
	}

	// A crashed server's sensor reads nothing regardless of faults.
	inj.sensors[0].down = true
	if _, ok := inj.sensors[0].Sense(30, 25*time.Minute); ok {
		t.Fatal("a down server's sensor should read nothing")
	}
}

// TestCrashMarksEstimatorStale: a crash suppresses estimator updates
// through the sensor interposer, so StaleFor grows until the repair
// re-anchors the estimate.
func TestCrashMarksEstimatorStale(t *testing.T) {
	c := testCluster(t, 2)
	plan := &Plan{Crashes: []Crash{{Server: 0, AtMin: 1, RepairAfterMin: 10}}}
	inj := NewInjector(plan, c, &stubHost{}, nil)
	if err := inj.Tick(time.Minute, time.Minute); err != nil {
		t.Fatal(err)
	}
	est := c.Server(0).Estimator()
	for i := 0; i < 5; i++ {
		est.Update(30, time.Minute)
	}
	if got := est.StaleFor(); got != 5*time.Minute {
		t.Fatalf("StaleFor() = %v while down, want 5m", got)
	}
	if err := inj.Tick(11*time.Minute, time.Minute); err != nil {
		t.Fatal(err)
	}
	if got := c.Server(0).Estimator().StaleFor(); got != 0 {
		t.Fatalf("StaleFor() = %v after repair, want 0", got)
	}
}

// The injector installs sensors on every estimator, so it enables the
// cluster's estimates when it is built, and a cluster that has stepped
// without them is a construction-order bug it refuses.
func TestNewInjectorEnablesEstimates(t *testing.T) {
	c := testCluster(t, 2)
	NewInjector(&Plan{}, c, &stubHost{}, nil)
	if c.Server(1).Estimator() == nil {
		t.Fatal("NewInjector left the cluster without estimates")
	}
	late := testCluster(t, 2)
	if _, err := late.Step(time.Minute); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewInjector over a cluster stepped without estimates should panic")
		}
	}()
	NewInjector(&Plan{}, late, &stubHost{}, nil)
}
