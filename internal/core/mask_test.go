package core

import (
	"fmt"
	"testing"
	"time"

	"vmt/internal/cluster"
	"vmt/internal/fault"
	"vmt/internal/sched"
	"vmt/internal/telemetry"
	"vmt/internal/topology"
	"vmt/internal/workload"
)

// liveWaxBits evaluates server s's wax-state bits from the predicates
// VMT-WA's scan filters called on every visit before the mask existed:
// melted (never for a degraded server), canMeltMore and alreadyMolten,
// each read from the server as it is now.
func liveWaxBits(wa *WaxAware, s *cluster.Server) uint8 {
	melted := false
	if !wa.degraded[s.ID()] {
		if wa.cfg.OracleWaxState {
			melted = s.MeltFrac() >= wa.cfg.WaxThreshold
		} else {
			melted = s.ReportedMeltFrac() >= wa.cfg.WaxThreshold
		}
	}
	var b uint8
	if !melted || s.AirTempC() < wa.pmtC {
		b |= waxCanMeltMore
	}
	if melted && s.AirTempC() >= wa.pmtC {
		b |= waxMolten
	}
	if !melted {
		b |= waxNotMelted
	}
	return b
}

// melted reads s's melted state from wa's mask.
func melted(wa *WaxAware, s *cluster.Server) bool {
	return wa.bits()[s.ID()]&waxNotMelted == 0
}

// maskStats counts what the differential hook saw.
type maskStats struct {
	reads     int
	maxMelted int
	molten    int // reads that found a server melted at or above the PMT
}

// checkMaskLive installs the differential hook on wa: every read of
// the mask re-derives every server's bits and the melted count from
// the live predicates, and fails t at the first difference.
func checkMaskLive(t *testing.T, wa *WaxAware) *maskStats {
	st := &maskStats{}
	wa.checkMask = func(mask []uint8) {
		t.Helper()
		st.reads++
		count := 0
		sawMolten := false
		for i, s := range wa.g.c.Servers() {
			want := liveWaxBits(wa, s)
			if mask[i] != want {
				t.Fatalf("read %d: server %d mask bits %03b, live predicates give %03b", st.reads, i, mask[i], want)
			}
			if want&waxNotMelted == 0 {
				count++
			}
			if want&waxMolten != 0 {
				sawMolten = true
			}
		}
		if count != wa.meltedCount {
			t.Fatalf("read %d: mask counts %d melted servers, live predicates %d", st.reads, wa.meltedCount, count)
		}
		st.maxMelted = max(st.maxMelted, count)
		if sawMolten {
			st.molten++
		}
	}
	return st
}

// maskPlan is the differential test's fault plan over n servers (ten
// per rack): single-server crashes and repairs, a rack trip, a row
// derate, Byzantine melt and utilization reporters (one lying melted
// for a window), sensor dropouts and a stuck-hot sensor, and
// background stochastic crashes.
func maskPlan(n int) *fault.Plan {
	return &fault.Plan{
		Seed:     uint64(n),
		Topology: &topology.Spec{ServersPerRack: 10, RacksPerRow: 5, RowsPerZone: 2},
		Crashes: []fault.Crash{
			{Server: 5, AtMin: 30, RepairAfterMin: 45},
			{Server: 17, AtMin: 50, RepairAfterMin: 60},
			{Server: 9, AtMin: 140},
		},
		Domains: []fault.DomainFault{
			{Kind: topology.DomainRack, Index: 3, AtMin: 90, RepairAfterMin: 60},
			{Kind: topology.DomainRow, Index: 0, Mode: fault.ModeDerate, AtMin: 40, RepairAfterMin: 120, DerateInletDeltaC: 8},
		},
		Stochastic: &fault.Stochastic{RatePerHour: 0.005, RepairAfterMin: 40},
		Byzantine: []fault.ByzantineFault{
			{Server: 2, Kind: fault.ByzMelt, StartMin: 20, Bias: 0.6, Jitter: 0.05},
			{Server: 3, Kind: fault.ByzMelt, StartMin: 60, EndMin: 150, Bias: 1},
			{Server: 0, Kind: fault.ByzUtil, StartMin: 20, Bias: -0.4, Jitter: 0.02},
		},
		Sensors: []fault.SensorFault{
			{Server: 4, Kind: fault.KindDropout, StartMin: 30, EndMin: 80},
			{Server: 12, Kind: fault.KindDropout, StartMin: 100, EndMin: 130},
			{Server: 8, Kind: fault.KindStuck, StartMin: 10, EndMin: 100, ValueC: 50},
		},
	}
}

// maskRun drives one wax-aware policy over n servers through the
// session's tick order — cluster Step, fault injector, report guard,
// then the manager's Reconcile — with the differential hook on, and
// returns a digest of the final job layout and what the hook saw.
func maskRun(t *testing.T, n, workers int, policy, manager string) (string, *maskStats, *fault.Injector) {
	const (
		step  = time.Minute
		ticks = 150
	)
	ccfg := cluster.PaperCluster(n)
	ccfg.InletTempC = 27 // hot enough that loaded servers melt within the run
	ccfg.PhysicsWorkers = workers
	c, err := cluster.New(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{GV: 22, OracleWaxState: policy == "oracle"}
	var (
		wa  *WaxAware
		pol sched.Scheduler
	)
	if policy == "preserve" {
		p, err := NewPreserving(c, cfg, ticks/2*step, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		wa, pol = p.wa, p
	} else {
		if wa, err = NewWaxAware(c, cfg); err != nil {
			t.Fatal(err)
		}
		pol = wa
	}
	st := checkMaskLive(t, wa)

	mix := workload.PaperMix()
	src := workload.NewBurstySource(uint64(n), 20*time.Minute, 0.5, 0.95, 0.4)
	type host interface {
		fault.Host
		Reconcile(time.Duration) error
	}
	var m host
	if manager == "stream" {
		sm, err := sched.NewStreamManager(c, mix, src, pol, sched.DefaultTaskDurations(), uint64(n))
		if err != nil {
			t.Fatal(err)
		}
		m = sm
	} else {
		lm, err := sched.NewLoadManager(c, mix, src, pol)
		if err != nil {
			t.Fatal(err)
		}
		m = lm
	}
	plan := maskPlan(n)
	if err := plan.ValidateFor(n); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	inj := fault.NewInjector(plan, c, m, reg)
	guard := sched.NewGuard(c, mix, step, reg)

	if err := m.Reconcile(0); err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= ticks; k++ {
		now := time.Duration(k) * step
		if _, err := c.Step(step); err != nil {
			t.Fatal(err)
		}
		if err := inj.Tick(now, step); err != nil {
			t.Fatal(err)
		}
		guard.Tick(now)
		if err := m.Reconcile(now); err != nil {
			t.Fatal(err)
		}
	}
	// The policy's own queries gave the cluster its placement index
	// exactly where it pays.
	if (n >= indexServers) != (c.PlacementIndex() != nil) {
		t.Fatalf("%d servers: placement index present = %v", n, c.PlacementIndex() != nil)
	}
	digest := fmt.Sprintf("hot %d:", wa.g.hotSize)
	for _, s := range c.Servers() {
		digest += fmt.Sprintf(" %d/%d", s.BusyCores(), s.Jobs(workload.WebSearch))
	}
	return digest, st, inj
}

// VMT-WA's wax-state mask agrees with the live predicates at every
// read. VMT-WA, its oracle ablation and VMT-preserve run under the load
// and stream managers through crashes and repairs, a rack trip, a
// derate, Byzantine reporters and sensor faults, at 100 servers
// (scans) and 613 (placement index), at 1, 2 and 8 physics workers;
// every mask read is checked against the live predicates, and the
// final layout is the same at every worker count.
func TestWaxMaskMatchesLivePredicates(t *testing.T) {
	for _, n := range []int{100, indexServers} {
		for _, policy := range []string{"vmt-wa", "oracle", "preserve"} {
			for _, manager := range []string{"load", "stream"} {
				t.Run(fmt.Sprintf("%d/%s/%s", n, policy, manager), func(t *testing.T) {
					t.Parallel()
					var first string
					for _, workers := range []int{1, 2, 8} {
						digest, st, inj := maskRun(t, n, workers, policy, manager)
						if workers == 1 {
							first = digest
							t.Logf("%d mask reads, up to %d melted servers, %d reads with molten servers, %d crashes, %d evacuated jobs",
								st.reads, st.maxMelted, st.molten, inj.Crashes(), inj.Evacuated())
							if st.maxMelted == 0 || st.molten == 0 || inj.Evacuated() == 0 {
								t.Errorf("run never melted a server (%d) or found one molten (%d reads), or evacuated nothing (%d)",
									st.maxMelted, st.molten, inj.Evacuated())
							}
						} else if digest != first {
							t.Errorf("workers %d: final layout differs from workers 1", workers)
						}
					}
				})
			}
		}
	}
}

// windowHost evacuates nothing: the window tests crash only empty
// servers.
type windowHost struct{}

func (windowHost) Evacuate(*cluster.Server) (int, int, error) { return 0, 0, nil }

// windowCluster builds four servers under VMT-WA (GV 22: servers 0 and
// 1 form the hot group; threshold 0.5) with the differential hook on,
// and a fault injector when plan is non-nil. Server 0 is full of hot
// jobs and server 1 runs above the PMT with its wax still solid, so a
// hot placement can go only to server 1 until server 1 reads as
// melted, and then goes to server 2, the first extension. The returned
// placeHot asks VMT-WA for a hot placement's target without placing.
func windowCluster(t *testing.T, plan *fault.Plan) (*cluster.Cluster, *fault.Injector, func() int) {
	t.Helper()
	c := newCluster(t, 4)
	wa, err := NewWaxAware(c, Config{GV: 22, WaxThreshold: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	var inj *fault.Injector
	if plan != nil {
		if err := plan.ValidateFor(c.Len()); err != nil {
			t.Fatal(err)
		}
		inj = fault.NewInjector(plan, c, windowHost{}, nil)
	}
	fillServer(t, c, 0, workload.WebSearch, c.Server(0).Cores())
	c.Server(1).SetInletTempC(40)
	minutes := 0
	for s := c.Server(1); minutes < 4*60 && s.AirTempC() < wa.pmtC+1; minutes++ {
		if _, err := c.Step(time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	if s := c.Server(1); s.AirTempC() < wa.pmtC || s.ReportedMeltFrac() >= 0.5 {
		t.Fatalf("server 1: air %.1f °C, reported melt %.2f; want above the PMT and less than half melted", s.AirTempC(), s.ReportedMeltFrac())
	}
	checkMaskLive(t, wa)
	wa.Tick(time.Duration(minutes) * time.Minute)
	placeHot := func() int {
		t.Helper()
		s, err := wa.Place(workload.WebSearch)
		if err != nil {
			t.Fatal(err)
		}
		return s.ID()
	}
	if got := placeHot(); got != 1 {
		t.Fatalf("before the change, hot placement chose server %d, want 1", got)
	}
	return c, inj, placeHot
}

// A report filter installed between two placements of one scheduling
// band reaches the second: SetReportFilter moves the report epoch.
func TestWaxMaskWindowSetReportFilter(t *testing.T) {
	c, _, placeHot := windowCluster(t, nil)
	c.Server(1).SetReportFilter(meltedReports{})
	if got := placeHot(); got != 2 {
		t.Fatalf("after server 1 reports melted wax, hot placement chose server %d, want 2", got)
	}
}

// A Byzantine lie that the injector's refresh turns on pushes server
// 1's reported melt fraction over the threshold; the placements that
// follow before the scheduler's Tick (a stream manager's departures
// select there) see it: the refresh moves the report epoch.
func TestWaxMaskWindowByzantineRefresh(t *testing.T) {
	c, inj, placeHot := windowCluster(t, &fault.Plan{
		Byzantine: []fault.ByzantineFault{{Server: 1, Kind: fault.ByzMelt, StartMin: 2, Bias: 1}},
	})
	if got := c.Server(1).ReportedMeltFrac(); got >= 0.5 {
		t.Fatalf("server 1 reports %.2f before its lie starts", got)
	}
	if err := inj.Tick(2*time.Minute, time.Minute); err != nil {
		t.Fatal(err)
	}
	if got := c.Server(1).ReportedMeltFrac(); got < 0.5 {
		t.Fatalf("server 1 reports %.2f after its lie starts, want at least 0.5", got)
	}
	if got := placeHot(); got != 2 {
		t.Fatalf("after server 1's melt lie starts, hot placement chose server %d, want 2", got)
	}
}

// A repair re-anchors server 1's estimator at its air temperature,
// above the PMT, so it reads fully melted; the placements that follow
// before the scheduler's Tick (crash evacuations place there) see it:
// the repair moves the report epoch.
func TestWaxMaskWindowRepairReset(t *testing.T) {
	c, inj, placeHot := windowCluster(t, &fault.Plan{
		Crashes: []fault.Crash{{Server: 1, AtMin: 2, RepairAfterMin: 1}},
	})
	if err := inj.Tick(2*time.Minute, time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := inj.Tick(3*time.Minute, time.Minute); err != nil {
		t.Fatal(err)
	}
	if s := c.Server(1); s.Failed() || s.ReportedMeltFrac() < 0.5 {
		t.Fatalf("server 1 after repair: failed %v, reported melt %.2f; want repaired and melted", s.Failed(), s.ReportedMeltFrac())
	}
	if got := placeHot(); got != 2 {
		t.Fatalf("after server 1's repair reset, hot placement chose server %d, want 2", got)
	}
}
