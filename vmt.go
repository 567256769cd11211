// Package vmt reproduces "Virtual Melting Temperature: Managing Server
// Load to Minimize Cooling Overhead with Phase Change Materials"
// (Skach et al., ISCA 2018): a datacenter-scale simulation of servers
// carrying paraffin-wax phase change material, with thermal-aware
// (VMT-TA) and wax-aware (VMT-WA) job placement that concentrates hot
// jobs to melt wax — storing peak heat and shrinking the peak cooling
// load — even when cluster-average temperatures never reach the wax's
// physical melting point.
//
// The package is a facade over the internal subsystems (event-driven
// simulator, PCM model, thermal model, schedulers). Typical use:
//
//	res, err := vmt.Run(vmt.Scenario(100, vmt.PolicyVMTTA, 22))
//	fmt.Println(res.CoolingSummary())
//
// See the examples/ directory for complete programs and bench_test.go
// for the harness that regenerates every table and figure in the
// paper's evaluation.
package vmt

import (
	"context"
	"fmt"
	"time"

	"vmt/internal/cluster"
	"vmt/internal/cooling"
	"vmt/internal/core"
	"vmt/internal/fault"
	"vmt/internal/pcm"
	"vmt/internal/sched"
	"vmt/internal/stats"
	"vmt/internal/telemetry"
	"vmt/internal/thermal"
	"vmt/internal/trace"
	"vmt/internal/workload"
)

// Policy selects a job placement algorithm.
type Policy string

const (
	// PolicyRoundRobin is the prior TTS work's baseline scheduler.
	PolicyRoundRobin Policy = "round-robin"
	// PolicyCoolestFirst is the thermally balanced baseline.
	PolicyCoolestFirst Policy = "coolest-first"
	// PolicyVMTTA is VMT with thermal aware job placement.
	PolicyVMTTA Policy = "vmt-ta"
	// PolicyVMTWA is VMT with wax aware job placement.
	PolicyVMTWA Policy = "vmt-wa"
	// PolicyVMTPreserve is the reproduction's extension of the paper's
	// raise-the-melting-temperature idea (Section III): sacrifice part
	// of the hot group early to preserve wax for a hotter peak later.
	PolicyVMTPreserve Policy = "vmt-preserve"
)

// UnmarshalText decodes a policy name, accepting the rr/cf shorthands
// the CLI tables use. Other unknown names decode as they are and fail
// Validate.
func (p *Policy) UnmarshalText(b []byte) error {
	switch s := Policy(b); s {
	case "rr":
		*p = PolicyRoundRobin
	case "cf":
		*p = PolicyCoolestFirst
	default:
		*p = s
	}
	return nil
}

// Config describes one cluster simulation run. Its JSON form is the
// run's identity: the run cache keys on it and spec settings decode
// onto it, so every field is part of both unless tagged `json:"-"` —
// reserved for the observers and PhysicsWorkers, which never change a
// Result.
type Config struct {
	// Servers is the cluster size (the paper uses 1,000 for scale-out
	// results and 100 for parameter sweeps).
	Servers int `json:"servers"`
	// Policy selects the scheduler.
	Policy Policy `json:"policy"`
	// GV is the grouping value for the VMT policies (Equation 1);
	// ignored by the baselines.
	GV float64 `json:"gv"`
	// WaxThreshold is VMT-WA's "fully melted" cutoff on the reported
	// melt fraction; unset selects the paper's 0.98.
	WaxThreshold Optional[float64] `json:"wax_threshold"`
	// OracleWaxState lets VMT-WA read ground-truth melt state instead
	// of the per-server estimator (ablation only).
	OracleWaxState bool `json:"oracle_wax_state"`
	// MigrationBudgetFrac caps VMT-WA's per-tick migrations as a
	// fraction of cluster cores; zero selects the default 0.25
	// (ablation knob).
	MigrationBudgetFrac float64 `json:"migration_budget_frac"`
	// GVSchedule retunes the grouping value at the given times (VMT
	// policies only) — the day-ahead adaptive operation of Section
	// V-C. Entries must have strictly increasing times.
	GVSchedule []GVChange `json:"gv_schedule"`
	// PreserveUntil and SacrificeFrac configure PolicyVMTPreserve:
	// until PreserveUntil, hot load concentrates on SacrificeFrac of
	// the hot group so the rest keeps its wax solid for the later
	// peak. Unset values select hour 30 (after day one's peak) and 0.4.
	PreserveUntil time.Duration     `json:"preserve_until_ns"`
	SacrificeFrac Optional[float64] `json:"sacrifice_frac"`
	// Server, Material: hardware and PCM; unset values select the
	// calibrated paper server and commercial 35.7 °C paraffin. The
	// material's key is "pcm": spec settings use "material" to pick
	// one by name.
	Server   Optional[thermal.ServerSpec] `json:"server"`
	Material Optional[pcm.Material]       `json:"pcm"`
	// InletTempC is the mean inlet temperature (unset → 22 °C) and
	// InletStdevC the per-server variation for Figures 19–20.
	InletTempC  Optional[float64] `json:"inlet_c"`
	InletStdevC float64           `json:"inlet_stdev_c"`
	// Seed drives every stochastic element (inlet draw; trace noise
	// adds its own seed from the trace spec).
	Seed uint64 `json:"seed"`
	// Trace is the load trace spec; zero value selects the paper's
	// two-day trace.
	Trace trace.Spec `json:"trace"`
	// CustomTrace overrides Trace with an externally supplied series
	// (see trace.FromReader) — the hook for production traces.
	CustomTrace *trace.Trace `json:"custom_trace"`
	// Source, when non-nil, replaces the finite trace with a seeded
	// open-loop arrival generator (workload.SourceSpec: poisson,
	// bursty, flashcrowd). Generators are open-ended, so pair with
	// Horizon for batch runs; without one, only a stepped Session can
	// drive the run. Mutually exclusive with CustomTrace.
	Source *workload.SourceSpec `json:"source"`
	// Horizon bounds the simulated duration. Zero selects the job
	// source's natural length: the trace duration for trace-driven
	// runs, open-ended for generator-driven ones.
	Horizon time.Duration `json:"horizon_ns"`
	// Mix is the workload mix; nil selects the five-workload paper
	// mix (≈60% hot).
	Mix *workload.Mix `json:"mix"`
	// Step is the scheduling/model period (zero → one minute, the
	// paper's wax-model update interval).
	Step time.Duration `json:"step_ns"`
	// PhysicsWorkers bounds the goroutines advancing per-server
	// physics inside each tick. Results are bit-identical for every
	// value (the per-server updates are independent and the
	// aggregation is a fixed-order sequential reduction); the knob
	// only trades goroutines for wall time. Zero picks automatically:
	// parallel for large clusters in a solo Run, serial inside RunMany
	// (whose workers already saturate the cores). Negative is invalid.
	PhysicsWorkers int `json:"-"`
	// RecordGrids retains per-server, per-sample air temperature and
	// melt fraction (the heat-map figures). Costs O(servers×samples)
	// memory, so it defaults off.
	RecordGrids bool `json:"record_grids"`
	// JobStream switches task-like workloads (video, scanning,
	// clustering) from fluid reconciliation to discrete Poisson
	// arrivals with sampled durations — the query-level load model.
	// Arrivals that find no free core are dropped and counted in the
	// result. TaskDurations overrides the per-workload mean durations
	// (nil selects sched.DefaultTaskDurations).
	JobStream     bool                     `json:"job_stream"`
	TaskDurations map[string]time.Duration `json:"task_durations_ns"`
	// Faults, when non-nil, injects deterministic failures: server
	// crashes/repairs (scheduled or stochastic) and melt-estimator
	// sensor faults. Part of the run's identity — the same seed and
	// plan reproduce the same Result bit for bit — so it participates
	// in the run-cache key. Nil injects nothing and leaves the hot
	// path untouched.
	Faults *fault.Plan `json:"faults"`
	// Metrics, when non-nil, receives run instrumentation: engine
	// dispatch counts and per-band wall time, scheduler placements and
	// hot-group resizes, the fleet melt-fraction histogram, and
	// time-above-PMT. Telemetry is strictly observational — results
	// are bit-identical with or without it. Safe to share one registry
	// across RunMany workers.
	Metrics *telemetry.Registry `json:"-"`
	// Tracer, when non-nil, receives one span event per simulation
	// phase per tick (physics, schedule, sample) with wall-clock
	// timings and key gauges; export via telemetry.Recorder as JSONL
	// or Chrome trace_event JSON. Nil disables tracing at (near) zero
	// cost.
	Tracer telemetry.Tracer `json:"-"`
	// Stream, when non-nil, receives windowed time-series telemetry:
	// each sample tick feeds cooling_load_w, total_power_w,
	// mean_air_temp_c, mean_melt_frac, max_cpu_temp_c (and
	// hot_group_size for grouping policies) into bounded-memory
	// samplers that aggregate fixed windows of ticks into
	// min/max/mean/p99 and hand each sealed window to the stream's sink
	// the moment it closes — telemetry that is on disk while the run is
	// still going, with O(windows) memory regardless of run length.
	// Strictly observational, like Metrics and Tracer.
	Stream *telemetry.Stream `json:"-"`
	// Fleet, when non-nil, receives one immutable FleetSnapshot per
	// sample tick: per-server air temperature, melt fraction, placement
	// group, and crash state. The publisher's atomic live view backs
	// the cliobs /fleet endpoint (scrape-safe mid-run); its optional
	// sink writes the NDJSON fleet log vmtdiff replays to find the
	// first divergent tick between two runs. Strictly observational.
	Fleet *telemetry.FleetPublisher `json:"-"`
	// ProfileBands, when true and Metrics is set, profiles each engine
	// band (physics, fault, schedule, sample): wall time and heap
	// allocation deltas land on band_wall_ns_*/band_alloc_bytes_*/
	// band_spans_* counters, with the profiler's own cost separated
	// into profiler_self_ns, and allocation deltas attach to trace
	// spans (Chrome trace counter tracks). Strictly observational.
	ProfileBands bool `json:"-"`
}

// Scenario returns a ready-to-run paper configuration for the given
// cluster size, policy, and GV.
func Scenario(servers int, policy Policy, gv float64) Config {
	return Config{Servers: servers, Policy: policy, GV: gv}
}

// BaselineScenario returns the round-robin reference configuration
// every study measures against: the given cluster size under the prior
// TTS work's baseline scheduler, no grouping value. Centralizing the
// construction keeps the baseline semantics in one place (and makes
// the shared-baseline run deduplication of the experiment engine easy
// to see at call sites).
func BaselineScenario(servers int) Config {
	return Scenario(servers, PolicyRoundRobin, 0)
}

// withDefaults resolves zero values to the paper's configuration.
func (c Config) withDefaults() Config {
	if !c.Server.IsSet() {
		c.Server = Some(thermal.PaperServer())
	}
	if !c.Material.IsSet() {
		c.Material = Some(pcm.CommercialParaffin())
	}
	if !c.InletTempC.IsSet() {
		c.InletTempC = Some(22.0)
	}
	if !c.WaxThreshold.IsSet() {
		c.WaxThreshold = Some(core.DefaultWaxThreshold)
	}
	if c.Trace.Days == 0 {
		c.Trace = trace.PaperTwoDay()
	}
	if c.Mix == nil {
		c.Mix = workload.PaperMix()
	}
	if c.Step == 0 {
		c.Step = time.Minute
	}
	if c.PreserveUntil == 0 {
		c.PreserveUntil = 30 * time.Hour // past day one's peak and trough
	}
	if !c.SacrificeFrac.IsSet() {
		c.SacrificeFrac = Some(0.4)
	}
	return c
}

// Validate reports whether the configuration can run.
func (c Config) Validate() error {
	c = c.withDefaults()
	switch c.Policy {
	case PolicyRoundRobin, PolicyCoolestFirst:
	case PolicyVMTTA, PolicyVMTWA, PolicyVMTPreserve:
		if c.GV <= 0 {
			return fmt.Errorf("vmt: policy %s requires a positive GV", c.Policy)
		}
	default:
		return fmt.Errorf("vmt: unknown policy %q", c.Policy)
	}
	if c.Servers <= 0 {
		return fmt.Errorf("vmt: need a positive server count")
	}
	if c.Step <= 0 {
		return fmt.Errorf("vmt: need a positive step")
	}
	if c.PhysicsWorkers < 0 {
		return fmt.Errorf("vmt: negative physics worker count %d", c.PhysicsWorkers)
	}
	if err := c.Faults.ValidateFor(c.Servers); err != nil {
		return err
	}
	if c.Horizon < 0 {
		return fmt.Errorf("vmt: negative horizon %v", c.Horizon)
	}
	if c.Source != nil {
		if c.CustomTrace != nil {
			return fmt.Errorf("vmt: Source and CustomTrace are mutually exclusive")
		}
		return c.Source.Validate()
	}
	if c.CustomTrace != nil {
		if c.CustomTrace.Len() < 2 {
			return fmt.Errorf("vmt: custom trace needs at least two samples")
		}
		return nil
	}
	return c.Trace.Validate()
}

// Result holds the observables of one run, sampled once per Step.
type Result struct {
	// Config echoes the resolved configuration.
	Config Config
	// CoolingLoadW is the cluster cooling load over time — the series
	// behind Figures 13 and 16.
	CoolingLoadW *stats.Series
	// TotalPowerW is the aggregate electrical draw over time.
	TotalPowerW *stats.Series
	// MeanAirTempC is the fleet-average air temperature at the wax.
	MeanAirTempC *stats.Series
	// HotGroupTempC is the hot-group average air temperature (VMT
	// policies only; nil otherwise) — Figures 12 and 15.
	HotGroupTempC *stats.Series
	// HotGroupSize tracks the dynamic hot group (VMT policies only) —
	// the expansions visible in Figure 14.
	HotGroupSize *stats.Series
	// MeanMeltFrac is the fleet-average ground-truth melt fraction.
	MeanMeltFrac *stats.Series
	// WaxEnergyJ is the total latent+sensible energy currently parked
	// in wax, relative to the run start.
	WaxEnergyJ *stats.Series
	// MaxCPUTempC tracks the fleet's hottest estimated die
	// temperature; ThrottleMinutes counts sample periods during which
	// any server exceeded the CPU limit (must stay zero — the paper's
	// wax deployment is constrained to never throttle).
	MaxCPUTempC     *stats.Series
	ThrottleMinutes int
	// TaskArrivals and TaskDrops report the query-level load model's
	// totals (JobStream runs only); drops are the QoS failure the
	// paper attributes to undersized groups. TaskDrops counts drop
	// events: one per task arrival that found no free core, one per
	// task an evacuation could not re-place, and one per fluid resize
	// that fell short of its target (an event, not a core count).
	TaskArrivals, TaskDrops uint64
	// FaultCrashes/FaultRepairs count injected server crashes and
	// completed repairs; EvacuatedJobs jobs re-placed off crashed
	// servers and LostJobs jobs dropped for lack of surviving
	// capacity. All zero without Config.Faults.
	FaultCrashes, FaultRepairs uint64
	EvacuatedJobs, LostJobs    uint64
	// DomainTrips counts correlated failure-domain activations (PDU
	// trips, cooling-zone failures); ReportsQuarantined counts
	// defense-layer quarantine transitions of servers whose telemetry
	// failed the plausibility cross-checks. Zero without Config.Faults.
	DomainTrips        uint64
	ReportsQuarantined uint64
	// AirTempGrid and MeltFracGrid are [sample][server] snapshots,
	// recorded only with Config.RecordGrids (Figures 9–11, 14).
	AirTempGrid  [][]float64
	MeltFracGrid [][]float64
}

// CoolingSummary reduces the cooling-load series.
func (r *Result) CoolingSummary() (cooling.Summary, error) {
	return cooling.Summarize(r.CoolingLoadW)
}

// PeakCoolingW returns the peak cooling load in watts.
func (r *Result) PeakCoolingW() float64 {
	peak, _, err := r.CoolingLoadW.Peak()
	if err != nil {
		return 0
	}
	return peak
}

// hotGrouper is implemented by the VMT schedulers.
type hotGrouper interface {
	HotGroupSize() int
}

// Run executes one simulation over the configured trace and returns
// the sampled result. Runs are deterministic: identical configurations
// produce identical results.
func Run(cfg Config) (*Result, error) {
	return RunCtx(context.Background(), cfg)
}

// reconciler is the per-tick scheduling surface Run drives: Reconcile
// advances the job population each period, and Evacuate clears a
// crashed server (fault injection). Both managers in internal/sched
// implement it.
type reconciler interface {
	Reconcile(time.Duration) error
	Evacuate(*cluster.Server) (moved, lost int, err error)
}

// RunCtx is Run with cancellation: when ctx is cancelled the engine
// stops at the next tick boundary and the run returns ctx.Err(). The
// result is still deterministic when it completes — cancellation can
// only abort a run, never change what a completed run returns.
//
// RunCtx is a thin wrapper over Session: it opens one, steps it to
// the horizon in a single engine pass, and closes it — so batch runs
// and stepped sessions share every line of the pipeline, and the
// wrapper adds no per-tick work.
func RunCtx(ctx context.Context, cfg Config) (*Result, error) {
	s, err := OpenCtx(ctx, cfg)
	if err != nil {
		return nil, err
	}
	if err := s.StepAll(); err != nil {
		s.Close()
		return nil, err
	}
	res, err := s.Close()
	if err != nil {
		return nil, err
	}
	return res, nil
}

// newScheduler instantiates the configured policy bound to cl.
func newScheduler(cfg Config, cl *cluster.Cluster) (sched.Scheduler, error) {
	coreCfg := core.Config{
		GV:                  cfg.GV,
		WaxThreshold:        cfg.WaxThreshold.Value(),
		OracleWaxState:      cfg.OracleWaxState,
		MigrationBudgetFrac: cfg.MigrationBudgetFrac,
		Metrics:             cfg.Metrics,
	}
	var (
		s   sched.Scheduler
		err error
	)
	switch cfg.Policy {
	case PolicyRoundRobin:
		s = sched.NewRoundRobin(cl)
	case PolicyCoolestFirst:
		s = sched.NewCoolestFirst(cl)
	case PolicyVMTTA:
		s, err = core.NewThermalAware(cl, coreCfg)
	case PolicyVMTWA:
		s, err = core.NewWaxAware(cl, coreCfg)
	case PolicyVMTPreserve:
		s, err = core.NewPreserving(cl, coreCfg, cfg.PreserveUntil, cfg.SacrificeFrac.Value())
	default:
		return nil, fmt.Errorf("vmt: unknown policy %q", cfg.Policy)
	}
	if err != nil {
		return nil, err
	}
	if len(cfg.GVSchedule) > 0 {
		tunable, ok := s.(core.Tunable)
		if !ok {
			return nil, fmt.Errorf("vmt: policy %s does not support GV retuning", cfg.Policy)
		}
		schedule := make([]core.GVChange, len(cfg.GVSchedule))
		for i, ch := range cfg.GVSchedule {
			schedule[i] = core.GVChange{At: ch.At, GV: ch.GV}
		}
		return core.NewRetuning(tunable, schedule)
	}
	return s, nil
}
