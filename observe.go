package vmt

import (
	"sync"

	"vmt/internal/telemetry"
)

// The default observability sinks let the command-line tools observe
// every run of a process — including runs the sweep helpers construct
// internally — without threading a registry through each experiment
// signature. Run and RunMany fall back to these only for
// configurations whose own telemetry fields are nil.
var (
	obsMu          sync.RWMutex
	defaultMetrics *telemetry.Registry
	defaultTracer  telemetry.Tracer
	defaultStream  *telemetry.Stream
	defaultFleet   *telemetry.FleetPublisher
	defaultProfile bool
)

// Observers bundles the process-wide fallback telemetry sinks.
type Observers struct {
	// Metrics receives counters/gauges/histograms (nil disables).
	Metrics *telemetry.Registry
	// Tracer receives one span event per tick stage.
	Tracer telemetry.Tracer
	// Stream receives windowed time-series telemetry (see
	// Config.Stream).
	Stream *telemetry.Stream
	// Fleet receives per-tick fleet snapshots (see Config.Fleet).
	Fleet *telemetry.FleetPublisher
	// ProfileBands enables per-band wall/alloc profiling for runs that
	// do not set Config.ProfileBands themselves.
	ProfileBands bool
}

// SetDefaultObservers installs process-wide fallback telemetry sinks:
// any subsequent Run whose Config leaves the corresponding field nil
// (or false, for ProfileBands) uses these instead. Pass the zero
// Observers to clear. Every sink must be safe for concurrent use,
// since RunMany shares them across workers; *telemetry.Registry,
// *telemetry.Recorder, *telemetry.Stream, and *telemetry.FleetPublisher
// all are.
//
// This is intended for process-scoped wiring (the cliobs CLI flags);
// library callers should prefer the per-Config fields.
func SetDefaultObservers(o Observers) {
	obsMu.Lock()
	defer obsMu.Unlock()
	defaultMetrics = o.Metrics
	defaultTracer = o.Tracer
	defaultStream = o.Stream
	defaultFleet = o.Fleet
	defaultProfile = o.ProfileBands
}

// defaultObservers returns the current process-wide fallbacks.
func defaultObservers() Observers {
	obsMu.RLock()
	defer obsMu.RUnlock()
	return Observers{
		Metrics:      defaultMetrics,
		Tracer:       defaultTracer,
		Stream:       defaultStream,
		Fleet:        defaultFleet,
		ProfileBands: defaultProfile,
	}
}

// withDefaultObservability resolves cfg's nil telemetry fields against
// the process defaults.
func (c Config) withDefaultObservability() Config {
	if c.Metrics != nil && c.Tracer != nil && c.Stream != nil && c.Fleet != nil && c.ProfileBands {
		return c
	}
	d := defaultObservers()
	if c.Metrics == nil {
		c.Metrics = d.Metrics
	}
	if c.Tracer == nil && d.Tracer != nil {
		c.Tracer = d.Tracer
	}
	if c.Stream == nil {
		c.Stream = d.Stream
	}
	if c.Fleet == nil {
		c.Fleet = d.Fleet
	}
	if !c.ProfileBands {
		c.ProfileBands = d.ProfileBands
	}
	return c
}
