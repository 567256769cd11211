package main

import (
	"fmt"
	"time"

	"vmt"
	"vmt/internal/cluster"
	"vmt/internal/core"
	"vmt/internal/fault"
	"vmt/internal/pcm"
	"vmt/internal/sched"
	"vmt/internal/telemetry"
	"vmt/internal/thermal"
	"vmt/internal/trace"
	wl "vmt/internal/workload"
)

// The traced run is a replica of vmt.Session's tick loop assembled from
// the layers' public calls, with a span around each call into a layer.
// It must reproduce the untraced Session run bit for bit, which makes
// its per-layer split a measurement of the same program. Keep it in
// step with session.go: the engine fires, per tick, physics, then the
// fault band (injector, then guard), then the scheduler, then the
// sample band; the scheduler alone also fires at t=0.

// Layer identifiers. Each span is attributed to one layer; a layer's
// self time is its span time minus that of the spans nested in it.
const (
	lTick = iota
	lClusterStep
	lFaultTick
	lEvacPlace
	lGuardTick
	lReconcile
	lPolicyTick
	lPlace
	lEvict
	lSample
	lSeriesObserve
	lFleetPublish
	lSeal
	lSinkWrite
	nLayers
)

var layerNames = [nLayers]string{
	lTick:          "tick",
	lClusterStep:   "cluster.step",
	lFaultTick:     "fault.tick",
	lEvacPlace:     "fault.evac_place",
	lGuardTick:     "guard.tick",
	lReconcile:     "sched.reconcile",
	lPolicyTick:    "sched.policy_tick",
	lPlace:         "sched.place",
	lEvict:         "sched.evict",
	lSample:        "session.sample",
	lSeriesObserve: "telemetry.series_observe",
	lFleetPublish:  "telemetry.fleet_publish",
	lSeal:          "telemetry.seal",
	lSinkWrite:     "telemetry.sink_write",
}

// spanLayers are recorded as one span per tick through the Recorder;
// the per-call layers (placements, evictions, series observations and
// sink writes, up to hundreds per tick) are aggregated as counters.
var spanLayers = [nLayers]bool{
	lTick: true, lClusterStep: true, lFaultTick: true, lGuardTick: true,
	lReconcile: true, lPolicyTick: true, lSample: true, lSeal: true,
}

type frame struct {
	layer int
	start time.Time
	child time.Duration
}

// profiler keeps the open span stack and per-layer totals. All methods
// are no-ops on a nil profiler, so the untraced Session run shares the
// sink writers with the traced one.
type profiler struct {
	open  []frame
	total [nLayers]time.Duration
	self  [nLayers]time.Duration
	calls [nLayers]int64
	hist  [nLayers]*logHist

	rec    *telemetry.Recorder // nil: no spans recorded
	origin time.Time
	run    int           // Recorder run index (pid in the Chrome trace)
	now    time.Duration // sim time of the tick in progress
}

func newProfiler(rec *telemetry.Recorder) *profiler {
	p := &profiler{rec: rec, origin: time.Now()}
	for _, l := range []int{lPlace, lEvict, lEvacPlace} {
		p.hist[l] = &logHist{}
	}
	return p
}

func (p *profiler) begin(layer int) {
	if p == nil {
		return
	}
	p.open = append(p.open, frame{layer: layer, start: time.Now()})
}

func (p *profiler) end() {
	if p == nil {
		return
	}
	t := time.Now()
	f := p.open[len(p.open)-1]
	p.open = p.open[:len(p.open)-1]
	d := t.Sub(f.start)
	p.total[f.layer] += d
	p.self[f.layer] += d - f.child
	p.calls[f.layer]++
	if n := len(p.open); n > 0 {
		p.open[n-1].child += d
	}
	if h := p.hist[f.layer]; h != nil {
		h.add(d)
	}
	if p.rec != nil && spanLayers[f.layer] {
		p.rec.Emit(telemetry.SpanEvent{
			Name: layerNames[f.layer], Run: p.run, At: p.now,
			WallStart: f.start.Sub(p.origin), Wall: d,
		})
	}
}

// inside reports whether the innermost open span is layer.
func (p *profiler) inside(layer int) bool {
	return len(p.open) > 0 && p.open[len(p.open)-1].layer == layer
}

// timedScheduler is the timing decorator around the policy. Placements
// made inside the injector's tick are evacuations and are counted
// separately from the reconcile loop's.
type timedScheduler struct {
	inner sched.Scheduler
	p     *profiler
}

func (t *timedScheduler) Name() string { return t.inner.Name() }

func (t *timedScheduler) Tick(now time.Duration) {
	t.p.begin(lPolicyTick)
	t.inner.Tick(now)
	t.p.end()
}

func (t *timedScheduler) Place(w wl.Workload) (*cluster.Server, error) {
	layer := lPlace
	if t.p.inside(lFaultTick) {
		layer = lEvacPlace
	}
	t.p.begin(layer)
	s, err := t.inner.Place(w)
	t.p.end()
	return s, err
}

func (t *timedScheduler) SelectRemoval(w wl.Workload) (*cluster.Server, error) {
	t.p.begin(lEvict)
	s, err := t.inner.SelectRemoval(w)
	t.p.end()
	return s, err
}

type hotGrouper interface{ HotGroupSize() int }

// timedGrouper forwards HotGroupSize for the VMT policies, so the
// decorated scheduler satisfies the same optional interface the
// Session resolves on the real one.
type timedGrouper struct {
	*timedScheduler
	g hotGrouper
}

func (t timedGrouper) HotGroupSize() int { return t.g.HotGroupSize() }

func decorate(inner sched.Scheduler, p *profiler) sched.Scheduler {
	t := &timedScheduler{inner: inner, p: p}
	if g, ok := inner.(hotGrouper); ok {
		return timedGrouper{t, g}
	}
	return t
}

// manager is the scheduling surface both load managers implement.
type manager interface {
	Reconcile(time.Duration) error
	Evacuate(*cluster.Server) (moved, lost int, err error)
}

// setupTimes is the replica's construction cost by layer (wall time).
type setupTimes struct {
	clusterNew, schedNew, faultNew, source time.Duration
}

// replica is one traced run.
type replica struct {
	p       *profiler
	obs     *observers
	cl      *cluster.Cluster
	grouper hotGrouper
	mgr     manager
	stream  *sched.StreamManager
	inj     *fault.Injector
	guard   *sched.Guard
	ticks   int
	setup   setupTimes
}

// newReplica builds the layers the way vmt.OpenCtx does, for a Config
// that leaves every optional field at its default.
func newReplica(cfg vmt.Config, obs *observers, p *profiler) (*replica, error) {
	const step = time.Minute
	mix := wl.PaperMix()
	r := &replica{p: p, obs: obs}
	var reg *telemetry.Registry
	if obs != nil {
		reg = obs.reg
	}

	t0 := time.Now()
	cl, err := cluster.New(cluster.Config{
		NumServers:     cfg.Servers,
		Server:         thermal.PaperServer(),
		Material:       pcm.CommercialParaffin(),
		InletTempC:     22,
		InletStdevC:    cfg.InletStdevC,
		Seed:           cfg.Seed,
		PhysicsWorkers: cfg.PhysicsWorkers,
	})
	if err != nil {
		return nil, err
	}
	r.cl = cl
	t1 := time.Now()
	r.setup.clusterNew = t1.Sub(t0)

	coreCfg := core.Config{GV: cfg.GV, WaxThreshold: core.DefaultWaxThreshold, Metrics: reg}
	var policy sched.Scheduler
	switch cfg.Policy {
	case vmt.PolicyRoundRobin:
		policy = sched.NewRoundRobin(cl)
	case vmt.PolicyVMTTA:
		policy, err = core.NewThermalAware(cl, coreCfg)
	case vmt.PolicyVMTWA:
		policy, err = core.NewWaxAware(cl, coreCfg)
	default:
		err = fmt.Errorf("replica: unsupported policy %q", cfg.Policy)
	}
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	src, err := trace.Cached(cfg.Trace, step)
	if err != nil {
		return nil, err
	}
	t3 := time.Now()
	r.setup.source = t3.Sub(t2)
	r.ticks = int(src.Horizon() / step)

	decorated := decorate(policy, p)
	r.grouper, _ = decorated.(hotGrouper)
	override, err := sched.NewOverride(cl, decorated)
	if err != nil {
		return nil, err
	}
	if cfg.JobStream {
		sm, err := sched.NewStreamManager(cl, mix, src, override, sched.DefaultTaskDurations(), cfg.Seed)
		if err != nil {
			return nil, err
		}
		if reg != nil {
			sm.SetMetrics(reg)
		}
		r.mgr, r.stream = sm, sm
	} else {
		lm, err := sched.NewLoadManager(cl, mix, src, override)
		if err != nil {
			return nil, err
		}
		if reg != nil {
			lm.SetMetrics(reg)
		}
		r.mgr = lm
	}
	t4 := time.Now()
	r.setup.schedNew = t2.Sub(t1) + t4.Sub(t3)

	if cfg.Faults != nil && !cfg.Faults.Empty() {
		if err := cfg.Faults.ValidateFor(cfg.Servers); err != nil {
			return nil, err
		}
		r.inj = fault.NewInjector(cfg.Faults, cl, r.mgr, reg)
		r.guard = sched.NewGuard(cl, mix, step, reg)
		r.setup.faultNew = time.Since(t4)
	}
	return r, nil
}

// tickStats are the per-tick figures the profiler's totals cannot give.
type tickStats struct {
	stepDur    []float64 // cluster.Step wall time per tick, ns
	settled    int64     // server-ticks replaying the memoized transition
	opsMax     int64     // most placements+evictions in one tick
	serverTick int64
}

// run executes the replica's tick loop and returns its outcome.
func (r *replica) run(ts *tickStats) (outcome, error) {
	const step = time.Minute
	p := r.p
	var out outcome
	var (
		reg    *telemetry.Registry
		stream *telemetry.Stream
		fleet  *telemetry.FleetPublisher
	)
	if r.obs != nil {
		reg, stream, fleet = r.obs.reg, r.obs.stream, r.obs.fleet
	}
	var (
		stCooling = stream.Series("cooling_load_w")
		stPower   = stream.Series("total_power_w")
		stAirTemp = stream.Series("mean_air_temp_c")
		stMelt    = stream.Series("mean_melt_frac")
		stMaxCPU  = stream.Series("max_cpu_temp_c")
		stHotSize *telemetry.TimeSeries
	)
	if r.grouper != nil {
		stHotSize = stream.Series("hot_group_size")
	}
	var (
		meltHist = reg.Histogram("pcm_melt_frac", telemetry.LinearBounds(0, 1, 10)...)
		abovePMT = reg.Counter("thermal_above_pmt_server_s")
		runTicks = reg.Counter("run_ticks")
		settledG = reg.Gauge("cluster_settled_servers")
		pmtC     = pcm.CommercialParaffin().MeltTempC
		stepSecs = uint64(step.Seconds())
	)
	observe := func(s *telemetry.TimeSeries, tick int64, v float64) {
		p.begin(lSeriesObserve)
		s.Observe(tick, v)
		p.end()
	}

	for k := 1; k <= r.ticks; k++ {
		now := time.Duration(k) * step
		p.now = now
		ops0 := p.calls[lPlace] + p.calls[lEvict] + p.calls[lEvacPlace]
		p.begin(lTick)
		if k == 1 {
			p.now = 0
			p.begin(lReconcile)
			err := r.mgr.Reconcile(0)
			p.end()
			p.now = now
			if err != nil {
				return out, err
			}
		}

		p.begin(lClusterStep)
		s0 := time.Now()
		smp, err := r.cl.Step(step)
		ts.stepDur = append(ts.stepDur, float64(time.Since(s0)))
		p.end()
		if err != nil {
			return out, err
		}
		if r.inj != nil {
			p.begin(lFaultTick)
			err := r.inj.Tick(now, step)
			p.end()
			if err != nil {
				return out, err
			}
			p.begin(lGuardTick)
			r.guard.Tick(now)
			p.end()
		}
		p.begin(lReconcile)
		err = r.mgr.Reconcile(now)
		p.end()
		if err != nil {
			return out, err
		}

		p.begin(lSample)
		if reg != nil {
			runTicks.Inc()
			settledG.Set(float64(smp.SettledServers))
			for i, f := range smp.MeltFrac {
				meltHist.Observe(f)
				if smp.AirTempC[i] >= pmtC {
					abovePMT.Add(stepSecs)
				}
			}
		}
		out.cooling = append(out.cooling, smp.CoolingLoadW)
		out.power = append(out.power, smp.TotalPowerW)
		out.air = append(out.air, smp.MeanAirTempC)
		out.melt = append(out.melt, smp.MeanMeltFrac)
		out.maxCPU = append(out.maxCPU, smp.MaxCPUTempC)
		if smp.ThrottlingServers > 0 {
			out.throttle++
		}
		out.wax = append(out.wax, smp.WaxEnergyJ)
		hot := 0
		if r.grouper != nil {
			hot = r.grouper.HotGroupSize()
			out.hotSize = append(out.hotSize, float64(hot))
			var sum float64
			for i := 0; i < hot; i++ {
				sum += smp.AirTempC[i]
			}
			if hot > 0 {
				out.hotTemp = append(out.hotTemp, sum/float64(hot))
			} else {
				out.hotTemp = append(out.hotTemp, smp.MeanAirTempC)
			}
		}
		tick := int64(k)
		if stream != nil || fleet != nil {
			observe(stCooling, tick, smp.CoolingLoadW)
			observe(stPower, tick, smp.TotalPowerW)
			observe(stAirTemp, tick, smp.MeanAirTempC)
			observe(stMelt, tick, smp.MeanMeltFrac)
			observe(stMaxCPU, tick, smp.MaxCPUTempC)
			if r.grouper != nil {
				observe(stHotSize, tick, float64(hot))
			}
			if fleet != nil {
				snap := &telemetry.FleetSnapshot{
					Tick:         tick,
					SimNS:        int64(now),
					CoolingLoadW: smp.CoolingLoadW,
					TotalPowerW:  smp.TotalPowerW,
					Servers:      make([]telemetry.ServerState, len(smp.AirTempC)),
				}
				for i := range snap.Servers {
					st := telemetry.ServerState{
						ID:       i,
						AirTempC: smp.AirTempC[i],
						MeltFrac: smp.MeltFrac[i],
						Crashed:  r.cl.Server(i).Failed(),
					}
					if r.grouper != nil {
						if i < hot {
							st.Group = "hot"
						} else {
							st.Group = "cold"
						}
					}
					snap.Servers[i] = st
				}
				p.begin(lFleetPublish)
				fleet.Publish(snap)
				p.end()
			}
		}
		p.end()

		// Session.Step seals completed windows after every step; the
		// call is a no-op without a stream.
		p.begin(lSeal)
		stream.SealThrough(tick)
		p.end()
		p.end() // lTick

		ts.settled += int64(smp.SettledServers)
		ts.serverTick += int64(len(smp.AirTempC))
		if ops := p.calls[lPlace] + p.calls[lEvict] + p.calls[lEvacPlace] - ops0; ops > ts.opsMax {
			ts.opsMax = ops
		}
	}

	stream.Flush()
	if r.stream != nil {
		out.arrivals, out.drops = r.stream.Arrived(), r.stream.Dropped()
	}
	if r.inj != nil {
		out.crashes, out.repairs = r.inj.Crashes(), r.inj.Repairs()
		out.evacuated, out.lost = r.inj.Evacuated(), r.inj.Lost()
		out.trips = r.inj.DomainTrips()
	}
	if r.guard != nil {
		out.quarantined = r.guard.Quarantined()
	}
	r.obs.stamp(&out)
	return out, nil
}
