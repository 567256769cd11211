package cluster

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"vmt/internal/stats"
	"vmt/internal/workload"
)

func newCluster(t *testing.T, n int) *Cluster {
	t.Helper()
	c, err := New(PaperCluster(n))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidate(t *testing.T) {
	if err := PaperCluster(10).Validate(); err != nil {
		t.Fatalf("PaperCluster invalid: %v", err)
	}
	bad := PaperCluster(0)
	if err := bad.Validate(); err == nil {
		t.Fatal("zero servers should fail")
	}
	bad = PaperCluster(10)
	bad.InletStdevC = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative stdev should fail")
	}
	bad = PaperCluster(10)
	bad.Server.CPUs = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("bad server spec should fail")
	}
	bad = PaperCluster(10)
	bad.Material.DensityKgPerL = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("bad material should fail")
	}
	if _, err := New(bad); err == nil {
		t.Fatal("New should propagate validation errors")
	}
}

func TestClusterShape(t *testing.T) {
	c := newCluster(t, 10)
	if c.Len() != 10 {
		t.Fatalf("Len = %d", c.Len())
	}
	if c.TotalCores() != 320 {
		t.Fatalf("TotalCores = %d", c.TotalCores())
	}
	for i := 0; i < 10; i++ {
		if c.Server(i).ID() != i {
			t.Fatalf("server %d has ID %d", i, c.Server(i).ID())
		}
	}
}

func TestPlaceRemoveBookkeeping(t *testing.T) {
	c := newCluster(t, 2)
	s := c.Server(0)
	if err := s.Place(workload.WebSearch); err != nil {
		t.Fatal(err)
	}
	if err := s.Place(workload.WebSearch); err != nil {
		t.Fatal(err)
	}
	if err := s.Place(workload.VirusScan); err != nil {
		t.Fatal(err)
	}
	if s.BusyCores() != 3 || s.FreeCores() != 29 {
		t.Fatalf("cores: busy=%d free=%d", s.BusyCores(), s.FreeCores())
	}
	if s.Jobs(workload.WebSearch) != 2 || s.Jobs(workload.VirusScan) != 1 {
		t.Fatal("job counts wrong")
	}
	if c.JobCount(workload.WebSearch) != 2 || c.BusyCores() != 3 {
		t.Fatal("cluster aggregates wrong")
	}
	if err := s.Remove(workload.WebSearch); err != nil {
		t.Fatal(err)
	}
	if s.Jobs(workload.WebSearch) != 1 || s.BusyCores() != 2 {
		t.Fatal("removal bookkeeping wrong")
	}
	if err := s.Remove(workload.Clustering); err == nil {
		t.Fatal("removing absent workload should fail")
	}
}

func TestPlaceFullServer(t *testing.T) {
	c := newCluster(t, 1)
	s := c.Server(0)
	for i := 0; i < 32; i++ {
		if err := s.Place(workload.VirusScan); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Place(workload.VirusScan); err == nil {
		t.Fatal("33rd job should fail")
	}
	if s.Utilization() != 1 {
		t.Fatalf("utilization = %v", s.Utilization())
	}
}

func TestPowerModel(t *testing.T) {
	c := newCluster(t, 1)
	s := c.Server(0)
	spec := c.Config().Server
	if got := s.PowerW(); got != spec.IdlePowerW {
		t.Fatalf("idle power = %v", got)
	}
	for i := 0; i < 4; i++ {
		if err := s.Place(workload.VideoEncoding); err != nil {
			t.Fatal(err)
		}
	}
	want := spec.IdlePowerW + 4*workload.VideoEncoding.PerCorePowerW()*spec.PowerScale
	if got := s.PowerW(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("power = %v, want %v", got, want)
	}
}

func TestPowerCapsAtPeak(t *testing.T) {
	cfg := PaperCluster(1)
	cfg.Server.PowerScale = 10 // force the cap
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := c.Server(0)
	for i := 0; i < 32; i++ {
		if err := s.Place(workload.VideoEncoding); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.PowerW(); got != cfg.Server.PeakPowerW {
		t.Fatalf("power = %v, want cap %v", got, cfg.Server.PeakPowerW)
	}
}

func TestStepAggregates(t *testing.T) {
	c := newCluster(t, 4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 8; j++ {
			if err := c.Server(i).Place(workload.Clustering); err != nil {
				t.Fatal(err)
			}
		}
	}
	sample, err := c.Step(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	wantPower := 4 * c.Server(0).PowerW()
	if math.Abs(sample.TotalPowerW-wantPower) > 1e-9 {
		t.Fatalf("total power = %v, want %v", sample.TotalPowerW, wantPower)
	}
	if len(sample.AirTempC) != 4 || len(sample.MeltFrac) != 4 {
		t.Fatal("per-server snapshots missing")
	}
	if sample.MeanAirTempC <= 22 {
		t.Fatalf("mean air temp %v should exceed inlet", sample.MeanAirTempC)
	}
	if sample.CoolingLoadW <= 0 {
		t.Fatalf("cooling load %v", sample.CoolingLoadW)
	}
}

// TestStepAllocFree: a steady-state tick at one physics worker
// allocates nothing, at paper scale and at 3,000 servers, which crosses
// a physBlock boundary.
func TestStepAllocFree(t *testing.T) {
	for _, n := range []int{100, 3_000} {
		cfg := PaperCluster(n)
		cfg.PhysicsWorkers = 1
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Load every third server so full and partial lane lists both
		// occur.
		for i := 0; i < n; i += 3 {
			for j := 0; j < 16; j++ {
				if err := c.Server(i).Place(workload.VideoEncoding); err != nil {
					t.Fatal(err)
				}
			}
		}
		if _, err := c.Step(time.Minute); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := c.Step(time.Minute); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("n=%d: Step allocates %v times per tick, want 0", n, allocs)
		}
	}
}

func TestInletVariationDeterministic(t *testing.T) {
	cfg := PaperCluster(50)
	cfg.InletStdevC = 2
	cfg.Seed = 7
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var inlets []float64
	for i := 0; i < 50; i++ {
		if a.Server(i).InletTempC() != b.Server(i).InletTempC() {
			t.Fatal("same seed produced different inlets")
		}
		inlets = append(inlets, a.Server(i).InletTempC())
	}
	if sd := stats.StdDev(inlets); sd < 1 || sd > 3 {
		t.Fatalf("inlet stdev = %v, want ≈2", sd)
	}
	if mu := stats.Mean(inlets); math.Abs(mu-22) > 1 {
		t.Fatalf("inlet mean = %v, want ≈22", mu)
	}
}

func TestNoVariationUniformInlets(t *testing.T) {
	c := newCluster(t, 10)
	for i := 0; i < 10; i++ {
		if c.Server(i).InletTempC() != 22 {
			t.Fatalf("server %d inlet %v", i, c.Server(i).InletTempC())
		}
	}
}

// Property: busy cores always equal the sum of per-workload jobs and
// never exceed capacity, across random place/remove sequences.
func TestBookkeepingProperty(t *testing.T) {
	wls := workload.TableI()
	f := func(ops []uint8) bool {
		c, err := New(PaperCluster(3))
		if err != nil {
			return false
		}
		for _, op := range ops {
			s := c.Server(int(op) % 3)
			w := wls[int(op>>2)%len(wls)]
			if op%2 == 0 {
				if s.FreeCores() > 0 {
					if err := s.Place(w); err != nil {
						return false
					}
				}
			} else if s.Jobs(w) > 0 {
				if err := s.Remove(w); err != nil {
					return false
				}
			}
		}
		for i := 0; i < 3; i++ {
			s := c.Server(i)
			sum := 0
			for _, w := range wls {
				sum += s.Jobs(w)
			}
			if sum != s.BusyCores() || s.BusyCores() > s.Cores() || s.BusyCores() < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// The scheduler-visible melt estimate must track ground truth through
// a realistic melt cycle.
func TestReportedMeltTracksTruth(t *testing.T) {
	c := newCluster(t, 1)
	s := c.Server(0)
	for i := 0; i < 30; i++ {
		if err := s.Place(workload.VideoEncoding); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 12*60; i++ {
		if _, err := c.Step(time.Minute); err != nil {
			t.Fatal(err)
		}
		if d := math.Abs(s.MeltFrac() - s.ReportedMeltFrac()); d > 0.08 {
			t.Fatalf("estimator drift %v at minute %d (truth %v, reported %v)",
				d, i, s.MeltFrac(), s.ReportedMeltFrac())
		}
	}
	if s.MeltFrac() < 0.9 {
		t.Fatalf("hot server should have melted most wax, frac=%v", s.MeltFrac())
	}
}

func TestAccessors(t *testing.T) {
	c := newCluster(t, 3)
	if len(c.Servers()) != 3 {
		t.Fatal("Servers length")
	}
	s := c.Server(1)
	if s.AirTempC() != 22 || s.WaxTempC() != 22 {
		t.Fatal("thermal accessors")
	}
	if c.Fleet() == nil || c.Fleet().Len() != 3 {
		t.Fatal("cluster should expose its fleet store")
	}
	s.SetInletTempC(25)
	if s.InletTempC() != 25 {
		t.Fatal("SetInletTempC")
	}
	i := c.WorkloadIndex(workload.WebSearch)
	if j := c.WorkloadIndex(workload.WebSearch); j != i {
		t.Fatal("index not stable")
	}
	if s.JobsAt(i) != 0 || s.JobsAt(-1) != 0 || s.JobsAt(99) != 0 {
		t.Fatal("JobsAt bounds")
	}
}

func TestWorkloadsListing(t *testing.T) {
	c := newCluster(t, 1)
	s := c.Server(0)
	if len(s.Workloads()) != 0 {
		t.Fatal("fresh server should run nothing")
	}
	if err := s.Place(workload.WebSearch); err != nil {
		t.Fatal(err)
	}
	if err := s.Place(workload.Clustering); err != nil {
		t.Fatal(err)
	}
	ws := s.Workloads()
	if len(ws) != 2 || ws[0].Name != "Clustering" || ws[1].Name != "WebSearch" {
		t.Fatalf("Workloads = %v", ws)
	}
	if err := s.Remove(workload.Clustering); err != nil {
		t.Fatal(err)
	}
	if got := s.Workloads(); len(got) != 1 || got[0].Name != "WebSearch" {
		t.Fatalf("after removal: %v", got)
	}
}
