package main

import (
	"vmt"
	"vmt/internal/fault"
	"vmt/internal/topology"
	"vmt/internal/trace"
)

// Every workload is a closed loop driven from one goroutine: the
// benchmark opens a vmt.Session, issues Step(1) (plus Observe on the
// live workload) and issues the next tick only when the previous call
// has returned, then closes the session. One operation is one such run
// (three for paper-100). The workload seed is the only input: it feeds
// Config.Seed (the per-server inlet draw, with inletSpreadC of spread,
// and the job-stream arrivals), the trace noise seed and the fault-plan
// seed.

const (
	// inletSpreadC makes Config.Seed change the inputs: with a uniform
	// room every seed would draw the same inlet temperatures.
	inletSpreadC = 0.5
	// physicsWorkers is pinned rather than read from the host so the
	// workload definition is the same everywhere. Two workers select
	// the blocked StepRangeVec kernel path on the large workloads; with
	// GOMAXPROCS=1 (see main.go) they run one after the other, so the
	// benchmark measures work, not parallel speed-up.
	physicsWorkers = 2
	// defaultSeed selects the paper's own trace (noise seed 1802).
	defaultSeed = 0
	// ticksPerRun is the paper's two-day trace at one-minute steps.
	ticksPerRun = 2880
)

// policyRun is one session of an operation.
type policyRun struct {
	Policy vmt.Policy `json:"policy"`
	GV     float64    `json:"gv,omitempty"`
}

// workload is one named benchmark input. The JSON form, with the
// resolved Config at a given seed, is what -describe prints.
type workload struct {
	Name           string      `json:"name"`
	Why            string      `json:"why"`
	Servers        int         `json:"servers"`
	PhysicsWorkers int         `json:"physics_workers"`
	Runs           []policyRun `json:"runs_per_operation"`
	// Live selects the -serve controller loop: query-level JobStream
	// load under livePlan, Session.Observe after every Step, and the
	// metrics registry, window stream and fleet log attached to
	// byte-counting discard writers.
	Live bool `json:"live"`
	// Heavy and Light name the layers the workload loads most and
	// least; Judges names the work this workload decides.
	Heavy  []string `json:"loads_heavily"`
	Light  []string `json:"loads_lightly"`
	Judges string   `json:"judges"`
}

var workloads = []workload{
	{
		Name: "paper-100",
		Why: "RR, VMT-TA and VMT-WA at 100 servers, the paper's sweep scale: physics and scheduling each do a large " +
			"share, so a gain in either shows; it also carries the peak-reduction result.",
		Servers:        100,
		PhysicsWorkers: 1,
		Runs: []policyRun{
			{Policy: vmt.PolicyRoundRobin},
			{Policy: vmt.PolicyVMTTA, GV: 22},
			{Policy: vmt.PolicyVMTWA, GV: 22},
		},
		Heavy:  []string{"internal/cluster (serial StepRange path)", "internal/sched + internal/core"},
		Light:  []string{"internal/fault", "internal/telemetry"},
		Judges: "any physics or scheduling change at the scale the paper's results are produced",
	},
	{
		Name: "scale-2k",
		Why: "VMT-TA at 2,000 servers: placement and eviction scans do most of the work and physics little, " +
			"so a sublinear placement index must show here.",
		Servers:        2000,
		PhysicsWorkers: physicsWorkers,
		Runs:           []policyRun{{Policy: vmt.PolicyVMTTA, GV: 22}},
		Heavy:          []string{"internal/core placement/eviction scans (groups.leastBusy, groups.mostBusyWith)"},
		Light:          []string{"internal/cluster", "internal/fault", "internal/telemetry"},
		Judges:         "the placement-index item",
	},
	{
		Name: "rr-10k",
		Why: "Round robin at 10,000 servers: physics does most of the work through the blocked StepRangeVec path " +
			"and RR's scans are nearly free, so the kernel item is decided here.",
		Servers:        10000,
		PhysicsWorkers: physicsWorkers,
		Runs:           []policyRun{{Policy: vmt.PolicyRoundRobin}},
		Heavy:          []string{"internal/cluster over internal/thermal and internal/pcm (StepRangeVec, estimators)"},
		Light:          []string{"internal/sched (RR scans)", "internal/fault", "internal/telemetry"},
		Judges:         "the single-thermal-kernel item; the placement index should not move it",
	},
	{
		Name: "live-faults-100",
		Why: "The -serve controller loop: VMT-WA with JobStream under correlated and Byzantine faults, Observe every " +
			"tick, all observers on. The only workload that runs the fault, guard and telemetry layers.",
		Servers:        100,
		PhysicsWorkers: 1,
		Runs:           []policyRun{{Policy: vmt.PolicyVMTWA, GV: 22}},
		Live:           true,
		Heavy: []string{"internal/sched StreamManager (per-task arrival/departure)", "internal/fault + sched.Guard",
			"internal/telemetry (stream windows, fleet log)", "vmt.Session.Observe"},
		Light:  []string{"internal/cluster at 100 servers"},
		Judges: "the observability items (peak attribution, reason codes) and checkpoint/restore cost",
	},
}

func lookupWorkload(name string) (*workload, bool) {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

// config is the exact Config of run r at the given seed, before the
// live workload's observers are attached.
func (w *workload) config(r policyRun, seed uint64) vmt.Config {
	tr := trace.PaperTwoDay()
	tr.Seed += seed
	cfg := vmt.Config{
		Servers:        w.Servers,
		Policy:         r.Policy,
		GV:             r.GV,
		InletStdevC:    inletSpreadC,
		Seed:           seed,
		Trace:          tr,
		PhysicsWorkers: w.PhysicsWorkers,
	}
	if w.Live {
		cfg.JobStream = true
		cfg.Faults = livePlan(seed)
	}
	return cfg
}

// livePlan is live-faults-100's fault plan: two PDU (rack) trips, a
// row cooling derate, background stochastic crashes, and two lying
// reporters in rack 0 — three domain trips and one quarantine per run.
func livePlan(seed uint64) *fault.Plan {
	return &fault.Plan{
		Seed:     seed,
		Topology: &topology.Spec{ServersPerRack: 10, RacksPerRow: 5, RowsPerZone: 2},
		Domains: []fault.DomainFault{
			{Kind: topology.DomainRack, Index: 1, AtMin: 360, RepairAfterMin: 180},
			{Kind: topology.DomainRack, Index: 7, AtMin: 780, RepairAfterMin: 180},
			{Kind: topology.DomainRow, Index: 1, Mode: fault.ModeDerate, AtMin: 1500, RepairAfterMin: 240, DerateInletDeltaC: 6},
		},
		Stochastic: &fault.Stochastic{RatePerHour: 0.002, RepairAfterMin: 120},
		Byzantine: []fault.ByzantineFault{
			{Server: 2, Kind: fault.ByzMelt, StartMin: 120, Bias: 0.6, Jitter: 0.05},
			{Server: 0, Kind: fault.ByzUtil, StartMin: 120, Bias: -0.4, Jitter: 0.02},
		},
	}
}

// layerMetric maps a per-layer metric to the end-to-end metric it
// should move and the workloads on which it should (and should not)
// move it. It is recorded by -describe so later changes can cite it.
type layerMetric struct {
	Metrics  []string `json:"per_layer"`
	Moves    []string `json:"moves"`
	On       []string `json:"on"`
	NotOn    []string `json:"not_on,omitempty"`
	Rational string   `json:"why"`
}

var layerMap = []layerMetric{
	{
		Metrics: []string{"cluster.step_s", "cluster.step_ns_per_server_tick", "cluster.step_p99_us", "cluster.settled_frac", "cluster.step_frac"},
		Moves:   []string{"run_s", "server_ticks_per_s"},
		On:      []string{"rr-10k", "paper-100"},
		NotOn:   []string{"scale-2k"},
		Rational: "internal/cluster over internal/thermal and internal/pcm: physics is most of rr-10k, " +
			"about half of paper-100 and little of scale-2k",
	},
	{
		Metrics: []string{"sched.reconcile_s", "sched.reconcile_self_s", "sched.policy_tick_s", "sched.place_calls", "sched.place_s",
			"sched.place_ns_per_call", "sched.place_p99_ns", "sched.evict_calls", "sched.evict_s", "sched.evict_ns_per_call",
			"sched.evict_p99_ns", "sched.ops_per_tick_max", "sched.place_evict_frac"},
		Moves:    []string{"run_s", "tick_p99_us"},
		On:       []string{"scale-2k", "live-faults-100"},
		NotOn:    []string{"rr-10k"},
		Rational: "internal/sched + internal/core through the timing decorator: placement and eviction scans",
	},
	{
		Metrics:  []string{"fault.tick_s", "fault.evac_place_calls", "fault.evac_place_s", "guard.tick_s", "guard.quarantined"},
		Moves:    []string{"run_s"},
		On:       []string{"live-faults-100"},
		NotOn:    []string{"paper-100", "scale-2k", "rr-10k"},
		Rational: "internal/fault and sched.Guard run only under a fault plan",
	},
	{
		Metrics: []string{"session.observe_s", "session.sample_s", "telemetry.series_observe_s", "telemetry.fleet_publish_s",
			"telemetry.seal_s", "telemetry.sink_write_s", "telemetry.sink_bytes"},
		Moves: []string{"tick_p50_us", "run_s"},
		On:    []string{"live-faults-100"},
		NotOn: []string{"paper-100", "scale-2k", "rr-10k"},
		Rational: "internal/telemetry and vmt.Session observers: zero on the three bare workloads, except the sample " +
			"band and the no-op SealThrough that every Session step pays",
	},
	{
		Metrics:  []string{"setup.cluster_new_s", "setup.sched_new_s", "setup.fault_new_s", "setup.source_s"},
		Moves:    []string{"setup_s"},
		On:       []string{"rr-10k", "scale-2k"},
		Rational: "construction cost grows with the server count",
	},
	{
		Metrics:  []string{"trace.overhead_frac", "trace.coverage_frac"},
		Moves:    []string{},
		On:       []string{"paper-100", "scale-2k", "rr-10k", "live-faults-100"},
		Rational: "tracing itself: internal/sim dispatch (~30 ns per event) is deliberately left to the remainder",
	},
}
