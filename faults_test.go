package vmt

import (
	"context"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"vmt/internal/fault"
	"vmt/internal/telemetry"
	"vmt/internal/topology"
)

// testFaultPlan is the shared exercise plan: a scheduled crash with
// repair, stochastic crashes, and one of each sensor fault kind.
func testFaultPlan() *fault.Plan {
	return &fault.Plan{
		Seed:       7,
		Crashes:    []fault.Crash{{Server: 1, AtMin: 120, RepairAfterMin: 180}},
		Stochastic: &fault.Stochastic{RatePerHour: 0.05, RepairAfterMin: 90},
		Sensors: []fault.SensorFault{
			{Server: 0, Kind: fault.KindDropout, StartMin: 200, EndMin: 400},
			{Server: 2, Kind: fault.KindNoise, StartMin: 0, StdevC: 0.3},
			{Server: 3, Kind: fault.KindStuck, StartMin: 100, EndMin: 300, ValueC: 20},
			{Server: 4, Kind: fault.KindDrift, StartMin: 0, DriftCPerHour: 0.5},
		},
	}
}

func faultScenario(policy Policy) Config {
	cfg := Scenario(8, policy, 22)
	cfg.Trace = smallTrace()
	cfg.JobStream = true
	cfg.Faults = testFaultPlan()
	return cfg
}

// correlatedFaultPlan exercises every correlated and Byzantine fault
// path at once: a scheduled rack trip, a cooling-zone derate, sparse
// stochastic rack trips, and lying utilization and melt reports.
func correlatedFaultPlan() *fault.Plan {
	return &fault.Plan{
		Seed:     11,
		Topology: &topology.Spec{ServersPerRack: 3, RacksPerRow: 2, RowsPerZone: 2},
		Domains: []fault.DomainFault{
			{Kind: topology.DomainRack, Index: 1, AtMin: 240, RepairAfterMin: 180},
			{Kind: topology.DomainZone, Index: 0, Mode: fault.ModeDerate, AtMin: 600, RepairAfterMin: 120, DerateInletDeltaC: 5},
		},
		StochasticDomains: &fault.StochasticDomains{Kind: topology.DomainRack, RatePerHour: 0.02, RepairAfterMin: 120},
		Byzantine: []fault.ByzantineFault{
			{Server: 0, Kind: fault.ByzUtil, StartMin: 60, Bias: -0.5, Jitter: 0.02},
			{Server: 2, Kind: fault.ByzMelt, StartMin: 120, EndMin: 600, Bias: 0.6, Jitter: 0.05},
		},
	}
}

func correlatedScenario(policy Policy) Config {
	cfg := Scenario(8, policy, 22)
	cfg.Trace = smallTrace()
	cfg.JobStream = true
	cfg.Faults = correlatedFaultPlan()
	return cfg
}

func TestConfigValidateRejectsBadFaultPlan(t *testing.T) {
	cfg := faultScenario(PolicyVMTWA)
	cfg.Faults = &fault.Plan{Stochastic: &fault.Stochastic{RatePerHour: -1}}
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative failure rate should fail validation")
	}
	cfg.Faults = &fault.Plan{Crashes: []fault.Crash{{Server: 99, AtMin: 1}}}
	if err := cfg.Validate(); err == nil {
		t.Fatal("out-of-range crash server should fail validation")
	}
}

// TestFaultRunReportsTotals: the injected faults surface in the
// Result and something actually happened.
func TestFaultRunReportsTotals(t *testing.T) {
	res, err := Run(faultScenario(PolicyVMTWA))
	if err != nil {
		t.Fatal(err)
	}
	if res.FaultCrashes == 0 {
		t.Error("scheduled crash at 120 min never landed")
	}
	if res.FaultRepairs == 0 {
		t.Error("no repairs completed over a full day with 90-180 min downtimes")
	}
	if res.EvacuatedJobs == 0 {
		t.Error("crashes on a loaded cluster should evacuate jobs")
	}
}

// TestFaultRunBitIdenticalAcrossWorkersAndCache is the determinism
// acceptance bar: the same Config+Plan produces a bit-identical
// outcome, fault totals included, for PhysicsWorkers 1/2/8 and with
// the run cache on or off.
func TestFaultRunBitIdenticalAcrossWorkersAndCache(t *testing.T) {
	for _, policy := range []Policy{PolicyVMTTA, PolicyVMTWA} {
		base := faultScenario(policy)
		var ref *Result
		for _, workers := range []int{1, 2, 8} {
			cfg := base
			cfg.PhysicsWorkers = workers
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", policy, workers, err)
			}
			if ref == nil {
				ref = res
				continue
			}
			if d := identicalOutcome(ref, res); d != "" {
				t.Fatalf("%s workers=%d: %s", policy, workers, d)
			}
		}

		// Cache off vs on (plus the cached replay) must match too.
		cache := RunCache()
		cache.Reset()
		cache.SetEnabled(false)
		uncached, err := RunMany([]Config{base}, BatchOptions{})
		cache.SetEnabled(true)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := RunMany([]Config{base}, BatchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		replay, err := RunMany([]Config{base}, BatchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if d := identicalOutcome(ref, uncached[0]); d != "" {
			t.Fatalf("%s cache off: %s", policy, d)
		}
		if d := identicalOutcome(ref, fresh[0]); d != "" {
			t.Fatalf("%s cache miss: %s", policy, d)
		}
		if replay[0] != fresh[0] {
			t.Fatalf("%s: replay should hand back the cached result", policy)
		}
		cache.Reset()
	}
}

// TestEmptyFaultPlanMatchesNil: a present-but-empty plan is the
// fault-free run, bit for bit.
func TestEmptyFaultPlanMatchesNil(t *testing.T) {
	cfg := Scenario(5, PolicyVMTWA, 22)
	cfg.Trace = smallTrace()
	ref, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = &fault.Plan{Seed: 99}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d := identicalOutcome(ref, res); d != "" {
		t.Fatalf("empty plan changed the run: %s", d)
	}
}

// TestWaxAwareDegradesOnSensorDropout: a dropout longer than
// DefaultMaxEstimateAge makes VMT-WA fall back to thermal-aware
// placement for that server, counted on sched_estimate_fallbacks.
func TestWaxAwareDegradesOnSensorDropout(t *testing.T) {
	cfg := Scenario(6, PolicyVMTWA, 22)
	cfg.Trace = smallTrace()
	cfg.Faults = &fault.Plan{
		Sensors: []fault.SensorFault{{Server: 0, Kind: fault.KindDropout, StartMin: 60}},
	}
	reg := telemetry.NewRegistry()
	cfg.Metrics = reg
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("sched_estimate_fallbacks").Value(); got == 0 {
		t.Fatal("an open-ended dropout should trigger at least one estimate fallback")
	}
}

// TestFaultTelemetryCounters: the injector's counters land in the
// run's registry.
func TestFaultTelemetryCounters(t *testing.T) {
	cfg := faultScenario(PolicyVMTTA)
	reg := telemetry.NewRegistry()
	cfg.Metrics = reg
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("fault_injected_crashes").Value(); got != res.FaultCrashes {
		t.Errorf("fault_injected_crashes = %d, Result says %d", got, res.FaultCrashes)
	}
	if got := reg.Counter("fault_evacuated_jobs").Value(); got != res.EvacuatedJobs {
		t.Errorf("fault_evacuated_jobs = %d, Result says %d", got, res.EvacuatedJobs)
	}
	if got := reg.Counter("sched_migrations").Value(); got < res.EvacuatedJobs {
		t.Errorf("sched_migrations = %d, want at least the %d evacuations", got, res.EvacuatedJobs)
	}
}

// TestCorrelatedFaultRunBitIdentical extends the determinism
// acceptance bar to the correlated and Byzantine fault machinery: the
// same Config and plan — rack trips, zone derates, stochastic domain
// draws, lying reports, quarantine decisions and all — produce a
// bit-identical outcome, domain trips and quarantines included, for
// PhysicsWorkers 1/2/8 and with the run cache off, missed, and
// replayed.
func TestCorrelatedFaultRunBitIdentical(t *testing.T) {
	for _, policy := range []Policy{PolicyVMTTA, PolicyVMTWA} {
		base := correlatedScenario(policy)
		var ref *Result
		for _, workers := range []int{1, 2, 8} {
			cfg := base
			cfg.PhysicsWorkers = workers
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", policy, workers, err)
			}
			if ref == nil {
				ref = res
				continue
			}
			if d := identicalOutcome(ref, res); d != "" {
				t.Fatalf("%s workers=%d: %s", policy, workers, d)
			}
		}
		if ref.DomainTrips == 0 {
			t.Fatalf("%s: the scheduled rack trip at 240 min never landed", policy)
		}

		cache := RunCache()
		cache.Reset()
		cache.SetEnabled(false)
		uncached, err := RunMany([]Config{base}, BatchOptions{})
		cache.SetEnabled(true)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := RunMany([]Config{base}, BatchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		replay, err := RunMany([]Config{base}, BatchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if d := identicalOutcome(ref, uncached[0]); d != "" {
			t.Fatalf("%s cache off: %s", policy, d)
		}
		if d := identicalOutcome(ref, fresh[0]); d != "" {
			t.Fatalf("%s cache miss: %s", policy, d)
		}
		if replay[0] != fresh[0] {
			t.Fatalf("%s: replay should hand back the cached result", policy)
		}
		cache.Reset()
	}
}

// TestCorrelatedFaultTelemetryCounters: the domain-trip, quarantine,
// and load-shedding counters all fire under the correlated plan and
// agree with the Result totals.
func TestCorrelatedFaultTelemetryCounters(t *testing.T) {
	cfg := correlatedScenario(PolicyVMTWA)
	reg := telemetry.NewRegistry()
	cfg.Metrics = reg
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("fault_domain_trips").Value(); got == 0 || got != res.DomainTrips {
		t.Errorf("fault_domain_trips = %d, Result says %d (want both > 0)", got, res.DomainTrips)
	}
	if got := reg.Counter("sched_reports_quarantined").Value(); got == 0 || got != res.ReportsQuarantined {
		t.Errorf("sched_reports_quarantined = %d, Result says %d (want both > 0)", got, res.ReportsQuarantined)
	}
	if reg.Counter("sched_jobs_shed").Value() == 0 {
		t.Error("losing a rack of 3 servers out of 8 should shed stream load")
	}
}

// TestCorrelatedFaultFreeRunIdentical: a plan that declares topology
// but no faults is the fault-free run bit for bit — geometry alone
// must not perturb anything.
func TestCorrelatedFaultFreeRunIdentical(t *testing.T) {
	cfg := Scenario(6, PolicyVMTWA, 22)
	cfg.Trace = smallTrace()
	ref, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = &fault.Plan{
		Seed:     3,
		Topology: &topology.Spec{ServersPerRack: 2, RacksPerRow: 3, RowsPerZone: 1},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d := identicalOutcome(ref, res); d != "" {
		t.Fatalf("topology-only plan changed the run: %s", d)
	}
}

// panicTracer panics on the first span of the run it is attached to.
type panicTracer struct{}

func (panicTracer) Emit(telemetry.SpanEvent) { panic("tracer exploded") }

// cancelTracer cancels a shared context the first time its run emits.
type cancelTracer struct{ cancel context.CancelFunc }

func (c cancelTracer) Emit(telemetry.SpanEvent) { c.cancel() }

// slowTracer stretches its run's wall time without touching results.
type slowTracer struct{ d time.Duration }

func (s slowTracer) Emit(telemetry.SpanEvent) { time.Sleep(s.d) }

// TestRunManyPanicIsolation: a panicking run becomes an indexed
// *RunError carrying the stack; its siblings complete.
func TestRunManyPanicIsolation(t *testing.T) {
	mk := func() Config {
		cfg := BaselineScenario(3)
		cfg.Trace = smallTrace()
		return cfg
	}
	noRunCache(t)
	cfgs := []Config{mk(), mk(), mk()}
	cfgs[1].Tracer = panicTracer{}
	results, err := RunMany(cfgs, BatchOptions{})
	var re *RunError
	if !errors.As(err, &re) || re.Index != 1 {
		t.Fatalf("err = %v, want *RunError at index 1", err)
	}
	if !strings.Contains(re.Err.Error(), "panicked") || !strings.Contains(re.Err.Error(), "tracer exploded") {
		t.Fatalf("error should carry the recovered panic, got: %v", re.Err)
	}
	if results[0] == nil || results[2] == nil {
		t.Fatal("siblings of the panicking run should complete")
	}
	if results[1] != nil {
		t.Fatal("the panicking run should have no result")
	}
}

// TestRunManyCancellation: cancelling the batch context mid-flight
// yields clean partial progress — completed runs keep results, the
// cancelled and never-started runs fail with ctx.Err(), and no worker
// goroutines are left behind.
func TestRunManyCancellation(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	mk := func() Config {
		cfg := BaselineScenario(3)
		cfg.Trace = smallTrace()
		return cfg
	}
	// Sequential dispatch: run 0 completes, run 1 cancels the batch at
	// its first span, run 2 is never dispatched.
	noRunCache(t)
	cfgs := []Config{mk(), mk(), mk()}
	cfgs[1].Tracer = cancelTracer{cancel: cancel}
	results, err := RunMany(cfgs, BatchOptions{Workers: 1, Context: ctx})
	var re *RunError
	if !errors.As(err, &re) || re.Index != 1 {
		t.Fatalf("err = %v, want *RunError at index 1", err)
	}
	if !errors.Is(re.Err, context.Canceled) {
		t.Fatalf("run 1 should fail with context.Canceled, got %v", re.Err)
	}
	if results[0] == nil {
		t.Fatal("run 0 completed before the cancel and should keep its result")
	}
	if results[1] != nil || results[2] != nil {
		t.Fatal("cancelled runs should have no results")
	}
	// No goroutine leak: the workers drain and exit.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before+2 {
		t.Fatalf("goroutines leaked: %d before, %d after", before, g)
	}
}

// TestRunManyTimeout: a hanging run is cut off with
// context.DeadlineExceeded at its index while siblings complete.
func TestRunManyTimeout(t *testing.T) {
	mk := func() Config {
		cfg := BaselineScenario(3)
		cfg.Trace = smallTrace()
		return cfg
	}
	noRunCache(t)
	cfgs := []Config{mk(), mk()}
	cfgs[0].Tracer = slowTracer{d: 20 * time.Millisecond}
	results, err := RunMany(cfgs, BatchOptions{Timeout: 100 * time.Millisecond})
	var re *RunError
	if !errors.As(err, &re) || re.Index != 0 {
		t.Fatalf("err = %v, want *RunError at index 0", err)
	}
	if !errors.Is(re.Err, context.DeadlineExceeded) {
		t.Fatalf("slow run should time out, got %v", re.Err)
	}
	if results[1] == nil {
		t.Fatal("the fast sibling should complete")
	}
}

// TestCacheCorruptionQuarantine: a cached result mutated after Commit
// is detected on the next read, quarantined, recomputed, and counted —
// never silently returned.
func TestCacheCorruptionQuarantine(t *testing.T) {
	cache := RunCache()
	cache.Reset()
	defer cache.Reset()
	cfg := BaselineScenario(4)
	cfg.Trace = smallTrace()
	reg := telemetry.NewRegistry()
	SetDefaultObservers(Observers{Metrics: reg})
	defer SetDefaultObservers(Observers{})
	first, err := RunMany([]Config{cfg}, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	good := first[0].CoolingLoadW.Values[0]
	// Scribble on the shared cached result.
	first[0].CoolingLoadW.Values[0] = good + 1
	second, err := RunMany([]Config{cfg}, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if second[0] == first[0] {
		t.Fatal("the corrupted entry was handed back instead of recomputed")
	}
	if got := second[0].CoolingLoadW.Values[0]; math.Float64bits(got) != math.Float64bits(good) {
		t.Fatalf("recomputed value %v, want the original %v", got, good)
	}
	if got := cache.Corruptions(); got != 1 {
		t.Fatalf("Corruptions() = %d, want 1", got)
	}
	if got := reg.Counter("experiment_cache_corruptions").Value(); got != 1 {
		t.Fatalf("experiment_cache_corruptions = %d, want 1", got)
	}
	// The recomputed entry replaced the quarantined one.
	third, err := RunMany([]Config{cfg}, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if third[0] != second[0] {
		t.Fatal("the recomputed result should be cached again")
	}
}
