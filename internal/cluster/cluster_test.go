package cluster

import (
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"vmt/internal/pcm"
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

// TestStepCPUTempMatchesSpec: Cluster.Step computes every server's die
// temperature inline from hoisted spec scalars, and no binary calls
// ServerSpec.CPUTempC. Each Sample's MaxCPUTempC and ThrottlingServers
// must equal, bit for bit, CPUTempC over every server's draw and air
// temperature, a server over the CPU limit counting as throttling and
// a zero limit throttling none. Three cases: crashed servers, whose
// zero draw sits under the idle floor; a limit that some servers
// exceed and others do not; and the limit off.
func TestStepCPUTempMatchesSpec(t *testing.T) {
	wls := workload.TableI()
	for _, tc := range []struct {
		name     string
		limitC   float64
		crash    bool
		throttle bool // some but not all servers throttle at the end
	}{
		{"crashed", 85, true, false},
		{"throttling", 40, false, true},
		{"no-limit", 0, false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := PaperCluster(8)
			cfg.Server.CPULimitC = tc.limitC
			c, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Server i runs i/7 of its cores, so draws span idle to
			// full load.
			for i := 0; i < c.Len(); i++ {
				for j := 0; j < i*c.Server(i).Cores()/7; j++ {
					if err := c.Server(i).Place(wls[(i+j)%len(wls)]); err != nil {
						t.Fatal(err)
					}
				}
			}
			spec := cfg.Server
			var sample Sample
			for step := 0; step < 90; step++ {
				// Every loaded server crashes mid-run. Their air stays
				// warmer than the idle server's for a while, so the
				// hottest die is a crashed server's, at the idle floor.
				if tc.crash && step == 45 {
					for i := 1; i < c.Len(); i++ {
						c.MarkFailed(i)
					}
				}
				if sample, err = c.Step(time.Minute); err != nil {
					t.Fatal(err)
				}
				var wantMax float64
				wantThrottle := 0
				for _, s := range c.Servers() {
					cpu := spec.CPUTempC(s.PowerW(), s.AirTempC())
					if cpu > wantMax {
						wantMax = cpu
					}
					if spec.CPULimitC > 0 && cpu > spec.CPULimitC {
						wantThrottle++
					}
				}
				if math.Float64bits(sample.MaxCPUTempC) != math.Float64bits(wantMax) {
					t.Fatalf("step %d: MaxCPUTempC = %v, CPUTempC gives %v", step, sample.MaxCPUTempC, wantMax)
				}
				if sample.ThrottlingServers != wantThrottle {
					t.Fatalf("step %d: ThrottlingServers = %d, CPUTempC gives %d", step, sample.ThrottlingServers, wantThrottle)
				}
			}
			if got := sample.ThrottlingServers > 0 && sample.ThrottlingServers < c.Len(); got != tc.throttle {
				t.Fatalf("%d of %d servers throttle at the end (hottest die %v °C)",
					sample.ThrottlingServers, c.Len(), sample.MaxCPUTempC)
			}
		})
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

// New's allocations do not grow with the cluster: a server is a handle
// in one slab and its state lives in columns, so New(PaperCluster(n))
// allocates as many times at 10,000 servers as at 100 (28 times with
// go1.24). Its bytes per server are those columns' alone, since the
// fleet stores its one spec and material once: about 283 B per server
// at 10,000 servers.
func TestNewAllocationsIndependentOfSize(t *testing.T) {
	// The process's first GC cycle starts the runtime's mark workers,
	// and AllocsPerRun would charge their allocations to whichever New
	// that cycle interrupts.
	runtime.GC()
	allocs := func(n int) float64 {
		cfg := PaperCluster(n)
		return testing.AllocsPerRun(5, func() {
			if _, err := New(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(100), allocs(10_000); small != large {
		t.Fatalf("New allocates %v times at 100 servers and %v at 10,000, want equal", small, large)
	}
	const n, maxPerServer = 10_000, 320
	cfg := PaperCluster(n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := New(cfg); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if per := float64(after.TotalAlloc-before.TotalAlloc) / n; per > maxPerServer {
		t.Fatalf("New(PaperCluster(%d)) allocates %.1f B per server, want at most %d", n, per, maxPerServer)
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
	if err := c.EnableEstimates(); err != nil {
		t.Fatal(err)
	}
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

// Estimates are opt-in. A new cluster has none; EnableEstimates gives
// each server the estimator pcm.NewEstimator builds at its drawn inlet
// and is idempotent; a cluster that has stepped without estimates
// refuses them.
func TestEnableEstimates(t *testing.T) {
	cfg := PaperCluster(4)
	cfg.InletStdevC = 1.5
	cfg.Seed = 3
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < c.Len(); i++ {
		if c.Server(i).Estimator() != nil {
			t.Fatalf("server %d has an estimator before EnableEstimates", i)
		}
	}
	if err := c.EnableEstimates(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < c.Len(); i++ {
		s := c.Server(i)
		est := s.Estimator()
		if est == nil {
			t.Fatalf("server %d has no estimator after EnableEstimates", i)
		}
		want, err := pcm.NewEstimator(cfg.Material, cfg.Server.WaxVolumeL, s.InletTempC(), cfg.Server.WaxConductanceWPerK)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(est, want) {
			t.Fatalf("server %d estimator differs from a new one at its inlet %v °C", i, s.InletTempC())
		}
	}
	first := c.Server(0).Estimator()
	if _, err := c.Step(time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := c.EnableEstimates(); err != nil || c.Server(0).Estimator() != first {
		t.Fatalf("second EnableEstimates: err %v, column replaced %v", err, c.Server(0).Estimator() != first)
	}
	if n := first.Updates(); n != 1 {
		t.Fatalf("estimator ran %d updates over one Step, want 1", n)
	}

	late := newCluster(t, 2)
	if _, err := late.Step(time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := late.EnableEstimates(); err == nil {
		t.Fatal("EnableEstimates after a Step should fail")
	}
	if late.Server(0).Estimator() != nil {
		t.Fatal("a refused EnableEstimates must leave no estimator behind")
	}
}

// A reader of melt estimates on a cluster without them is a bug: the
// report panics and names the server rather than fall back to ground
// truth.
func TestReportedMeltFracWithoutEstimatesPanics(t *testing.T) {
	c := newCluster(t, 3)
	var got any
	func() {
		defer func() { got = recover() }()
		c.Server(2).ReportedMeltFrac()
	}()
	msg, _ := got.(string)
	if !strings.Contains(msg, "server 2") {
		t.Fatalf("ReportedMeltFrac without estimates: recovered %v, want a panic naming server 2", got)
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
	if c.fleet == nil || c.fleet.Len() != 3 {
		t.Fatal("cluster's fleet store should hold every server")
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
