package vmt

import (
	"context"
	"fmt"
	"math"
	"time"

	"vmt/internal/cluster"
	"vmt/internal/fault"
	"vmt/internal/sched"
	"vmt/internal/stats"
	"vmt/internal/telemetry"
	"vmt/internal/trace"
	"vmt/internal/workload"
)

// Session is a long-lived, resumable simulation: the monolithic Run
// pipeline decomposed into Open → Observe/Place/Step → Close, so an
// external controller (an RL policy, an MPC loop, a live operator)
// can drive the cluster one tick at a time instead of replaying a
// closed batch. Determinism is preserved exactly: a session stepped
// tick by tick, in ragged chunks, or all at once produces a Result
// bit-identical to vmt.Run of the same Config — Run itself is a thin
// wrapper that opens a session and steps it to completion.
//
// Each tick runs a fixed pipeline of stages (physics, then fault and
// guard when a plan is set, then schedule, then sample), built once by
// OpenCtx; the schedule stage alone also runs at t=0 to place the
// initial load. Between ticks the only loop state is the clock, so a
// chunked advance runs exactly the stages one monolithic pass would.
// Everything the stages accumulate — the cluster, the schedulers, the
// partially filled Result, the latched first error — lives in the
// Session. See DESIGN.md.
//
// A Session is not safe for concurrent use; drive it from one
// goroutine (the vmtsim -serve mode serializes HTTP access with a
// mutex).
type Session struct {
	cfg Config // resolved (withDefaults applied)
	ctx context.Context

	cl        *cluster.Cluster
	override  *sched.Override
	grouper   hotGrouper
	hasGroups bool
	src       workload.JobSource
	stream    *sched.StreamManager
	injector  *fault.Injector
	guard     *sched.Guard

	// schedule is the stage that also runs alone at t=0; stages is one
	// tick's pipeline in order, schedule included.
	schedule stage
	stages   []stage

	res        *Result
	step       time.Duration
	horizon    time.Duration // 0 = open-ended
	now        time.Duration // the session clock
	lastSample cluster.Sample
	runErr     error
	closed     bool
}

// stage is one part of the per-tick pipeline; now is the tick's
// simulated time. A stage reports failure through Session.fail.
type stage func(now time.Duration)

// Observation is a read-only snapshot of a session between steps —
// the observe half of the step/observe seam. Aggregates mirror the
// sample the last completed tick recorded; before the first step they
// are zero (no physics has run yet). Servers always holds every
// server's current state: before the first step, each server's air and
// wax at its drawn inlet temperature and every core free.
type Observation struct {
	// Tick is the number of completed steps; SimTime = Tick × Step.
	Tick    int64         `json:"tick"`
	SimTime time.Duration `json:"sim_time_ns"`
	// Done reports a finite-horizon session that has reached its end.
	Done bool `json:"done"`
	// Utilization is the job source's demand level at SimTime.
	Utilization float64 `json:"utilization"`
	// Fleet aggregates from the last completed tick.
	CoolingLoadW float64 `json:"cooling_load_w"`
	TotalPowerW  float64 `json:"total_power_w"`
	MeanAirTempC float64 `json:"mean_air_temp_c"`
	MeanMeltFrac float64 `json:"mean_melt_frac"`
	MaxCPUTempC  float64 `json:"max_cpu_temp_c"`
	WaxEnergyJ   float64 `json:"wax_energy_j"`
	// SettledServers counts servers coasting on the memoized
	// steady-state physics transition; ThrottlingServers counts
	// servers whose die temperature is over the throttle point.
	SettledServers    int `json:"settled_servers"`
	ThrottlingServers int `json:"throttling_servers"`
	FreeCores         int `json:"free_cores"`
	BusyCores         int `json:"busy_cores"`
	// HotGroupSize is 0 for non-grouping policies.
	HotGroupSize int    `json:"hot_group_size"`
	TaskArrivals uint64 `json:"task_arrivals"`
	// TaskDrops counts drop events so far, as Result.TaskDrops does:
	// one per task arrival that found no free core, one per task an
	// evacuation could not re-place, and one per fluid resize that fell
	// short of its target (an event, not a core count).
	TaskDrops uint64 `json:"task_drops"`
	// PlacementsOverridden and Rejected count the accepted and refused
	// Place directives (the observe/place seam).
	PlacementsOverridden uint64 `json:"placements_overridden"`
	Rejected             uint64 `json:"placements_rejected"`
	// Servers is the per-server state, indexed by server ID.
	Servers []ServerObservation `json:"servers"`
}

// ServerObservation is one server's externally visible state.
type ServerObservation struct {
	ID        int     `json:"id"`
	AirTempC  float64 `json:"air_temp_c"`
	MeltFrac  float64 `json:"melt_frac"`
	FreeCores int     `json:"free_cores"`
	BusyCores int     `json:"busy_cores"`
	Crashed   bool    `json:"crashed"`
	Group     string  `json:"group,omitempty"`
}

// Open builds a session from cfg without advancing time. Equivalent
// to OpenCtx with a background context.
func Open(cfg Config) (*Session, error) {
	return OpenCtx(context.Background(), cfg)
}

// OpenCtx is Open with cancellation: when ctx is cancelled the run
// stops in the next tick's physics stage, the session latches
// ctx.Err(), and Close still returns the cleanly sampled partial
// Result alongside the error. Cancellation can only truncate a run,
// never change what the completed prefix recorded.
func OpenCtx(ctx context.Context, cfg Config) (*Session, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	cfg = cfg.withDefaults()
	cfg.Observers = cfg.Observers.or(defaultObservers())

	cl, err := cluster.New(cluster.Config{
		NumServers:     cfg.Servers,
		Server:         cfg.Server.Value(),
		Material:       cfg.Material.Value(),
		InletTempC:     cfg.InletTempC.Value(),
		InletStdevC:    cfg.InletStdevC,
		Seed:           cfg.Seed,
		PhysicsWorkers: cfg.PhysicsWorkers,
	})
	if err != nil {
		return nil, err
	}
	scheduler, err := newScheduler(cfg, cl)
	if err != nil {
		return nil, err
	}

	// The job source: an open-loop generator when configured, the
	// (finite) trace otherwise. The horizon is the source's natural
	// length unless Horizon overrides it; zero means open-ended, which
	// only a stepped session can drive.
	var src workload.JobSource
	if cfg.Source != nil {
		src, err = cfg.Source.New()
		if err != nil {
			return nil, err
		}
	} else if cfg.CustomTrace != nil {
		src = cfg.CustomTrace
	} else {
		// Cached: sweeps rerun the same spec hundreds of times, and
		// generated traces are immutable, so every run of a batch
		// shares one decode.
		tr, err := trace.Cached(cfg.Trace, cfg.Step)
		if err != nil {
			return nil, err
		}
		src = tr
	}
	horizon := cfg.Horizon
	if horizon == 0 {
		horizon = src.Horizon()
	}

	// The Override wrapper is the place half of the seam: with no
	// directives it is transparent (no RNG draws, no changed
	// decisions), so wrapping costs nothing and bit-identity with the
	// unwrapped pipeline holds by construction. The grouping interface
	// is resolved on the real policy underneath.
	override, err := sched.NewOverride(cl, scheduler)
	if err != nil {
		return nil, err
	}
	var reconcile reconciler
	var stream *sched.StreamManager
	if cfg.JobStream {
		durations := cfg.TaskDurations
		if durations == nil {
			durations = sched.DefaultTaskDurations()
		}
		stream, err = sched.NewStreamManager(cl, cfg.Mix, src, override, durations, cfg.Seed)
		if err != nil {
			return nil, err
		}
		if cfg.Metrics != nil {
			stream.SetMetrics(cfg.Metrics)
		}
		reconcile = stream
	} else {
		lm, err := sched.NewLoadManager(cl, cfg.Mix, src, override)
		if err != nil {
			return nil, err
		}
		if cfg.Metrics != nil {
			lm.SetMetrics(cfg.Metrics)
		}
		reconcile = lm
	}

	// Fault injection: the injector interposes sensors at construction
	// and ticks in the fault stage (after physics, before the
	// scheduler). Nil plan → nil injector → zero overhead. The guard
	// is the matching defense: whenever faults are in play it
	// cross-checks every server's reported telemetry against power
	// residuals and melt-rate physics, quarantining implausible
	// reporters (see internal/sched.Guard). Both enable the cluster's
	// wax-state estimates, so a faulted run steps the estimators
	// whatever its policy; both are built here, before the first tick.
	var injector *fault.Injector
	var guard *sched.Guard
	if cfg.Faults != nil && !cfg.Faults.Empty() {
		injector = fault.NewInjector(cfg.Faults, cl, reconcile, cfg.Metrics)
		guard = sched.NewGuard(cl, cfg.Mix, cfg.Step, cfg.Metrics)
	}

	// One sample lands per step over the horizon; preallocating the
	// series keeps the sample phase free of append reallocations. An
	// open-ended session grows as it goes.
	nSamples := 0
	if horizon > 0 {
		nSamples = int(horizon / cfg.Step)
	}
	res := &Result{
		Config:       cfg,
		CoolingLoadW: stats.NewSeriesCap(cfg.Step, nSamples),
		TotalPowerW:  stats.NewSeriesCap(cfg.Step, nSamples),
		MeanAirTempC: stats.NewSeriesCap(cfg.Step, nSamples),
		MeanMeltFrac: stats.NewSeriesCap(cfg.Step, nSamples),
		WaxEnergyJ:   stats.NewSeriesCap(cfg.Step, nSamples),
		MaxCPUTempC:  stats.NewSeriesCap(cfg.Step, nSamples),
	}
	grouper, hasGroups := scheduler.(hotGrouper)
	if hasGroups {
		res.HotGroupTempC = stats.NewSeriesCap(cfg.Step, nSamples)
		res.HotGroupSize = stats.NewSeriesCap(cfg.Step, nSamples)
	}

	s := &Session{
		cfg:       cfg,
		ctx:       ctx,
		cl:        cl,
		override:  override,
		grouper:   grouper,
		hasGroups: hasGroups,
		src:       src,
		stream:    stream,
		injector:  injector,
		guard:     guard,
		res:       res,
		step:      cfg.Step,
		horizon:   horizon,
	}
	fail := s.fail

	// Tracing and band profiling: span wraps a stage so each tick emits
	// one span event with wall timings and the gauges args samples at
	// close, and (with ProfileBands) brackets the stage with the band
	// profiler so wall/alloc deltas land on the band counters and the
	// allocation delta rides on the span event. With a nil tracer and no
	// profiler the stage is returned untouched, so the uninstrumented
	// hot path is unchanged.
	tracer := cfg.Tracer
	var profiler *telemetry.BandProfiler
	if cfg.ProfileBands {
		profiler = telemetry.NewBandProfiler(cfg.Metrics) // nil registry → nil profiler
	}
	var wall0 time.Time
	if tracer != nil {
		wall0 = time.Now() //vmtlint:allow detrand observational: span wall-clock origin, never read by the simulation
	}
	span := func(name string, fn stage, args func() map[string]float64) stage {
		if tracer == nil && profiler == nil {
			return fn
		}
		band := profiler.Band(name) // nil profiler → nil band, whose methods no-op
		return func(now time.Duration) {
			var t0 time.Time
			if tracer != nil {
				t0 = time.Now() //vmtlint:allow detrand observational: span timing feeds the tracer only
			}
			band.Begin() //vmtlint:allow detrand observational: band profiler wall/alloc deltas feed telemetry only
			fn(now)
			_, alloc := band.End() //vmtlint:allow detrand observational: band profiler wall/alloc deltas feed telemetry only
			if tracer == nil {
				return
			}
			ev := telemetry.SpanEvent{
				Name:       name,
				At:         now,
				WallStart:  t0.Sub(wall0),
				Wall:       time.Since(t0), //vmtlint:allow detrand observational: span timing feeds the tracer only
				AllocBytes: alloc,
			}
			if args != nil {
				ev.Args = args()
			}
			tracer.Emit(ev)
		}
	}

	// Streaming series handles, resolved once so the sample stage does
	// no map lookups. A nil Stream hands out nil series whose Observe
	// is a no-op — the unstreamed run pays one nil check per series.
	var (
		stCooling = cfg.Stream.Series("cooling_load_w")
		stPower   = cfg.Stream.Series("total_power_w")
		stAirTemp = cfg.Stream.Series("mean_air_temp_c")
		stMelt    = cfg.Stream.Series("mean_melt_frac")
		stMaxCPU  = cfg.Stream.Series("max_cpu_temp_c")
		stHotSize *telemetry.TimeSeries
	)
	if hasGroups {
		stHotSize = cfg.Stream.Series("hot_group_size")
	}

	// Thermal/PCM instruments, sampled in the sample stage: the fleet
	// melt-fraction distribution and accumulated server-seconds above
	// the wax's physical melting temperature.
	var (
		meltHist  = cfg.Metrics.Histogram("pcm_melt_frac", telemetry.LinearBounds(0, 1, 10)...)
		abovePMT  = cfg.Metrics.Counter("thermal_above_pmt_server_s")
		runTicks  = cfg.Metrics.Counter("run_ticks")
		settledG  = cfg.Metrics.Gauge("cluster_settled_servers")
		pmtC      = cfg.Material.Value().MeltTempC
		stepSecs  = uint64(cfg.Step.Seconds())
		hasMetric = cfg.Metrics != nil
	)

	// Physics: advance the cluster by one period. It does not run at
	// t=0 (no elapsed time yet); the scheduler places the initial load
	// first. A cancelled context fails the tick here, before any stage
	// of it has changed state.
	s.stages = append(s.stages, span("physics", func(time.Duration) {
		if done != nil {
			select {
			case <-done:
				fail(ctx.Err())
				return
			default:
			}
		}
		smp, err := cl.Step(cfg.Step)
		if err != nil {
			fail(err)
			return
		}
		s.lastSample = smp
	}, func() map[string]float64 {
		return map[string]float64{
			"cooling_load_w":  s.lastSample.CoolingLoadW,
			"mean_air_temp_c": s.lastSample.MeanAirTempC,
			"mean_melt_frac":  s.lastSample.MeanMeltFrac,
		}
	}))

	// Faults: crashes, repairs, and stochastic draws land between the
	// physics settling and the scheduler's reaction, in server-ID
	// order on the session's single goroutine. A crash scheduled at
	// at_min lands on the first fault tick at or after it.
	if injector != nil {
		s.stages = append(s.stages, span("fault", func(now time.Duration) {
			if err := injector.Tick(now, cfg.Step); err != nil {
				fail(err)
			}
		}, nil))
		// The guard runs right after the injector: trust decisions are
		// made on the tick's settled reports, before the schedule stage
		// reads them.
		s.stages = append(s.stages, span("guard", func(now time.Duration) {
			guard.Tick(now)
		}, nil))
	}

	// Scheduling: reconcile the job population with the source. This
	// stage alone also runs at t=0, to place the initial load.
	s.schedule = span("schedule", func(now time.Duration) {
		if err := reconcile.Reconcile(now); err != nil {
			fail(err)
		}
	}, func() map[string]float64 {
		args := map[string]float64{"total_power_w": s.lastSample.TotalPowerW}
		if hasGroups {
			args["hot_group_size"] = float64(grouper.HotGroupSize())
		}
		return args
	})
	s.stages = append(s.stages, s.schedule)

	// Sample: record the settled state each tick (after the tick's
	// physics, so the series align with elapsed intervals).
	s.stages = append(s.stages, span("sample", func(now time.Duration) {
		lastSample := s.lastSample
		if hasMetric {
			runTicks.Inc()
			// How much of the fleet the physics memo is coasting
			// through — observational only, no control decisions.
			settledG.Set(float64(lastSample.SettledServers))
			// Both fleet instruments are published once per tick, not
			// once per server.
			meltHist.ObserveAll(lastSample.MeltFrac)
			var above uint64
			for _, air := range lastSample.AirTempC {
				if air >= pmtC {
					above++
				}
			}
			abovePMT.Add(above * stepSecs)
		}
		res.CoolingLoadW.Append(lastSample.CoolingLoadW)
		res.TotalPowerW.Append(lastSample.TotalPowerW)
		res.MeanAirTempC.Append(lastSample.MeanAirTempC)
		res.MeanMeltFrac.Append(lastSample.MeanMeltFrac)
		res.MaxCPUTempC.Append(lastSample.MaxCPUTempC)
		if lastSample.ThrottlingServers > 0 {
			res.ThrottleMinutes++
		}
		// The cluster accumulates the fleet wax ledger during its own
		// reduction (same ID-order sum this loop used to run).
		res.WaxEnergyJ.Append(lastSample.WaxEnergyJ)
		if hasGroups {
			size := grouper.HotGroupSize()
			res.HotGroupSize.Append(float64(size))
			var sum float64
			for i := 0; i < size; i++ {
				sum += lastSample.AirTempC[i]
			}
			if size > 0 {
				res.HotGroupTempC.Append(sum / float64(size))
			} else {
				res.HotGroupTempC.Append(lastSample.MeanAirTempC)
			}
		}
		if cfg.RecordGrids {
			air := make([]float64, len(lastSample.AirTempC))
			copy(air, lastSample.AirTempC)
			melt := make([]float64, len(lastSample.MeltFrac))
			copy(melt, lastSample.MeltFrac)
			res.AirTempGrid = append(res.AirTempGrid, air)
			res.MeltFracGrid = append(res.MeltFracGrid, melt)
		}
		// Streamed telemetry: one observation per series per tick, fed
		// into the bounded-memory window samplers. Ticks are 1-based
		// (the first sample lands after one elapsed step).
		if cfg.Stream != nil || cfg.Fleet != nil {
			tick := int64(now / cfg.Step)
			stCooling.Observe(tick, lastSample.CoolingLoadW)
			stPower.Observe(tick, lastSample.TotalPowerW)
			stAirTemp.Observe(tick, lastSample.MeanAirTempC)
			stMelt.Observe(tick, lastSample.MeanMeltFrac)
			stMaxCPU.Observe(tick, lastSample.MaxCPUTempC)
			if hasGroups {
				stHotSize.Observe(tick, float64(grouper.HotGroupSize()))
			}
			if cfg.Fleet != nil {
				// A fresh immutable snapshot per tick: readers of the
				// live view may hold the previous one indefinitely.
				snap := &telemetry.FleetSnapshot{
					Tick:         tick,
					SimNS:        int64(now),
					CoolingLoadW: lastSample.CoolingLoadW,
					TotalPowerW:  lastSample.TotalPowerW,
					Servers:      make([]telemetry.ServerState, len(lastSample.AirTempC)),
				}
				hot := 0
				if hasGroups {
					hot = grouper.HotGroupSize()
				}
				for i := range snap.Servers {
					st := telemetry.ServerState{
						ID:       i,
						AirTempC: lastSample.AirTempC[i],
						MeltFrac: lastSample.MeltFrac[i],
						Crashed:  cl.Server(i).Failed(),
					}
					if hasGroups {
						if i < hot {
							st.Group = "hot"
						} else {
							st.Group = "cold"
						}
					}
					snap.Servers[i] = st
				}
				cfg.Fleet.Publish(snap)
			}
		}
	}, func() map[string]float64 {
		args := map[string]float64{"max_cpu_temp_c": s.lastSample.MaxCPUTempC}
		if n := res.WaxEnergyJ.Len(); n > 0 {
			args["wax_energy_j"] = res.WaxEnergyJ.Values[n-1]
		}
		return args
	}))
	res.CoolingLoadW.Start = cfg.Step
	res.TotalPowerW.Start = cfg.Step
	res.MeanAirTempC.Start = cfg.Step
	res.MeanMeltFrac.Start = cfg.Step
	res.WaxEnergyJ.Start = cfg.Step
	res.MaxCPUTempC.Start = cfg.Step
	if hasGroups {
		res.HotGroupTempC.Start = cfg.Step
		res.HotGroupSize.Start = cfg.Step
	}
	return s, nil
}

// fail latches the first error. runUntil checks it after every stage,
// so no stage after the failing one runs and the clock stays at its
// tick.
func (s *Session) fail(err error) {
	if s.runErr == nil {
		s.runErr = err
	}
}

// runUntil runs every stage due at or before end, which must be
// positive: while the clock is still at 0 the t=0 schedule pass, then
// each tick k with k·step ≤ end, its stages in order. It returns right
// after a stage that latches an error, with the clock at that tick;
// otherwise the clock finishes at end. Running to t1 and then to t2
// runs exactly the stages one run to t2 would.
func (s *Session) runUntil(end time.Duration) {
	if s.now == 0 {
		s.schedule(0)
		if s.runErr != nil {
			return
		}
	}
	for k := int64(s.now/s.step) + 1; k <= int64(end/s.step); k++ {
		s.now = time.Duration(k) * s.step
		for _, run := range s.stages {
			run(s.now)
			if s.runErr != nil {
				return
			}
		}
	}
	s.now = end
}

// Tick returns the number of completed steps.
func (s *Session) Tick() int64 { return int64(s.now / s.step) }

// Now returns the session's simulated time.
func (s *Session) Now() time.Duration { return s.now }

// Done reports whether a finite-horizon session has reached its end.
// Open-ended sessions (an open-loop Source with no Horizon) are never
// done.
func (s *Session) Done() bool {
	return s.horizon > 0 && s.now >= s.horizon
}

// Step advances the session n ticks (clamped to the horizon, when
// finite), then seals every telemetry window the advance completed so
// streamed runs flush incrementally on step boundaries. Stepping a
// finished session is a no-op; stepping a closed or failed session
// returns the latched error. On an open-ended session, an n that would
// carry the clock past the largest time.Duration is refused without
// latching an error.
func (s *Session) Step(n int) error {
	if s.closed {
		return fmt.Errorf("vmt: session is closed")
	}
	if n <= 0 {
		return fmt.Errorf("vmt: step count %d must be positive", n)
	}
	if s.runErr != nil {
		return s.runErr
	}
	// Compare tick counts, never n·step, which can wrap.
	limit := s.horizon
	if limit == 0 {
		limit = math.MaxInt64
	}
	end := limit
	if time.Duration(n) <= (limit-s.now)/s.step {
		end = s.now + time.Duration(n)*s.step
	} else if s.horizon == 0 {
		return fmt.Errorf("vmt: step count %d overflows the session clock at %v", n, s.now)
	}
	s.runUntil(end)
	if s.runErr != nil {
		return s.runErr
	}
	s.cfg.Stream.SealThrough(s.Tick())
	return nil
}

// StepAll advances a finite-horizon session to its end in one pass of
// the tick loop — exactly the monolithic Run loop, so Run-over-Session
// keeps every golden fixture byte-identical and pays no per-step
// overhead.
func (s *Session) StepAll() error {
	if s.closed {
		return fmt.Errorf("vmt: session is closed")
	}
	if s.horizon == 0 {
		return fmt.Errorf("vmt: session is open-ended (Source with no Horizon); use Step")
	}
	if s.runErr != nil {
		return s.runErr
	}
	s.runUntil(s.horizon)
	return s.runErr
}

// Observe snapshots the session's externally visible state. Slices
// are freshly allocated; the caller owns them.
func (s *Session) Observe() Observation {
	last := s.lastSample
	obs := Observation{
		Tick:                 s.Tick(),
		SimTime:              s.now,
		Done:                 s.Done(),
		Utilization:          s.src.At(s.now),
		CoolingLoadW:         last.CoolingLoadW,
		TotalPowerW:          last.TotalPowerW,
		MeanAirTempC:         last.MeanAirTempC,
		MeanMeltFrac:         last.MeanMeltFrac,
		MaxCPUTempC:          last.MaxCPUTempC,
		WaxEnergyJ:           last.WaxEnergyJ,
		SettledServers:       last.SettledServers,
		ThrottlingServers:    last.ThrottlingServers,
		BusyCores:            s.cl.BusyCores(),
		PlacementsOverridden: s.override.Overridden(),
		Rejected:             s.override.Rejected(),
		Servers:              make([]ServerObservation, s.cl.Len()),
	}
	obs.FreeCores = s.cl.TotalCores() - obs.BusyCores
	if s.hasGroups {
		obs.HotGroupSize = s.grouper.HotGroupSize()
	}
	if s.stream != nil {
		obs.TaskArrivals = s.stream.Arrived()
		obs.TaskDrops = s.stream.Dropped()
	}
	for i := range obs.Servers {
		srv := s.cl.Server(i)
		so := ServerObservation{
			ID:        i,
			AirTempC:  srv.AirTempC(),
			MeltFrac:  srv.MeltFrac(),
			FreeCores: srv.FreeCores(),
			BusyCores: srv.BusyCores(),
			Crashed:   srv.Failed(),
		}
		if s.hasGroups {
			if i < obs.HotGroupSize {
				so.Group = "hot"
			} else {
				so.Group = "cold"
			}
		}
		obs.Servers[i] = so
	}
	return obs
}

// Place enqueues a one-shot directive: the next placement of the
// named workload lands on the given server, if it is alive with a
// free core at placement time (otherwise the built-in policy decides
// and the rejection is counted). The place half of the seam.
func (s *Session) Place(workloadName string, serverID int) error {
	if s.closed {
		return fmt.Errorf("vmt: session is closed")
	}
	if serverID < 0 || serverID >= s.cl.Len() {
		return fmt.Errorf("vmt: server %d out of range [0,%d)", serverID, s.cl.Len())
	}
	for _, e := range s.cfg.Mix.Entries() {
		if e.Workload.Name == workloadName {
			s.override.Direct(workloadName, serverID)
			return nil
		}
	}
	return fmt.Errorf("vmt: unknown workload %q", workloadName)
}

// Close seals the session: trailing telemetry windows flush, the
// scheduler and fault totals land on the Result, and the Result is
// returned — complete after a full run, a clean partial prefix after
// cancellation or failure (returned alongside the latched error).
// Close is idempotent.
func (s *Session) Close() (*Result, error) {
	if !s.closed {
		s.closed = true
		// Seal trailing partial windows so the stream's sink holds the
		// full run. Nil-safe.
		s.cfg.Stream.Flush()
		if s.stream != nil {
			s.res.TaskArrivals = s.stream.Arrived()
			s.res.TaskDrops = s.stream.Dropped()
		}
		if s.injector != nil {
			s.res.FaultCrashes = s.injector.Crashes()
			s.res.FaultRepairs = s.injector.Repairs()
			s.res.EvacuatedJobs = s.injector.Evacuated()
			s.res.LostJobs = s.injector.Lost()
			s.res.DomainTrips = s.injector.DomainTrips()
		}
		if s.guard != nil {
			s.res.ReportsQuarantined = s.guard.Quarantined()
		}
	}
	return s.res, s.runErr
}
