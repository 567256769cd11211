package vmt

import (
	"sync"

	"vmt/internal/telemetry"
)

// Observers are a run's telemetry sinks. Config embeds them, and
// SetDefaultObservers installs process-wide fallbacks for the sinks a
// Config leaves unset. They are strictly observational: a Result is
// bit-identical with or without any of them.
type Observers struct {
	// Metrics, when non-nil, receives run instrumentation: the tick
	// count, scheduler placements and hot-group resizes, the fleet
	// melt-fraction histogram, and time-above-PMT (and, with
	// ProfileBands, each tick stage's wall time). Safe to share one
	// registry across RunMany workers; counters aggregate.
	Metrics *telemetry.Registry
	// Tracer, when non-nil, receives one span event per tick stage
	// (physics, then fault and guard when Faults is set, then schedule
	// and sample; schedule alone at t=0) with wall-clock timings and
	// key gauges; export via telemetry.Recorder as JSONL or Chrome
	// trace_event JSON. Nil disables tracing at (near) zero cost.
	Tracer telemetry.Tracer
	// Stream, when non-nil, receives windowed time-series telemetry:
	// each sample tick feeds cooling_load_w, total_power_w,
	// mean_air_temp_c, mean_melt_frac, max_cpu_temp_c (and
	// hot_group_size for grouping policies) into bounded-memory
	// samplers that aggregate fixed windows of ticks into
	// min/max/mean/p99 and hand each sealed window to the stream's sink
	// the moment it closes — telemetry that is on disk while the run is
	// still going, with O(windows) memory regardless of run length.
	Stream *telemetry.Stream
	// Fleet, when non-nil, receives one immutable FleetSnapshot per
	// sample tick: per-server air temperature, melt fraction, placement
	// group, and crash state. The publisher's atomic live view backs
	// the cliobs /fleet endpoint (scrape-safe mid-run); its optional
	// sink writes the NDJSON fleet log vmtdiff replays to find the
	// first divergent tick between two runs.
	Fleet *telemetry.FleetPublisher
	// ProfileBands, when true and Metrics is set, profiles each tick
	// stage (physics, fault, guard, schedule, sample): wall time and
	// heap allocation deltas land on band_wall_ns_*/band_alloc_bytes_*/
	// band_spans_* counters, with the profiler's own cost separated
	// into profiler_self_ns, and allocation deltas attach to trace
	// spans (Chrome trace counter tracks).
	ProfileBands bool
}

// The process-wide fallback sinks let the command-line tools observe
// every run of a process — including runs the sweep helpers construct
// internally — without threading a registry through each experiment
// signature.
var (
	obsMu      sync.RWMutex
	defaultObs Observers
)

// SetDefaultObservers installs process-wide fallback telemetry sinks:
// any subsequent Run whose Config leaves the corresponding field nil
// (or false, for ProfileBands) uses these instead. Pass the zero
// Observers to clear. Every sink must be safe for concurrent use,
// since RunMany shares them across workers; *telemetry.Registry,
// *telemetry.Recorder, *telemetry.Stream, and *telemetry.FleetPublisher
// all are. RunMany tags the shared Tracer and Stream with each run's
// index in the batch (telemetry.WithRun, Stream.ForRun) so exported
// traces and window records keep runs apart; the Fleet live view shows
// whichever run published last.
//
// This is intended for process-scoped wiring (the cliobs CLI flags);
// library callers should prefer the per-Config fields.
func SetDefaultObservers(o Observers) {
	obsMu.Lock()
	defer obsMu.Unlock()
	defaultObs = o
}

// defaultObservers returns the current process-wide fallbacks.
func defaultObservers() Observers {
	obsMu.RLock()
	defer obsMu.RUnlock()
	return defaultObs
}

// or resolves o's unset sinks against d: each nil sink takes d's, and
// band profiling is on when either asks for it.
func (o Observers) or(d Observers) Observers {
	if o.Metrics == nil {
		o.Metrics = d.Metrics
	}
	if o.Tracer == nil {
		o.Tracer = d.Tracer
	}
	if o.Stream == nil {
		o.Stream = d.Stream
	}
	if o.Fleet == nil {
		o.Fleet = d.Fleet
	}
	o.ProfileBands = o.ProfileBands || d.ProfileBands
	return o
}
