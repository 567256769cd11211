package telemetry

import (
	"runtime/metrics"
	"time"
)

// Per-band span profiling: wall time and allocation deltas for each
// band, one per session tick stage (physics, fault, guard, schedule,
// sample), with the profiler's own cost accounted separately so the
// band numbers stay honest. The profiler reads the runtime's
// cumulative heap-allocation counter (/gc/heap/allocs:bytes via
// runtime/metrics — no stop-the-world) around each span; the delta is
// that band's allocation bill.
//
// Attribution caveat: the allocation counter is process-global, so
// alloc deltas are exact for a solo run and an over-count when
// concurrent runs (RunMany) or background goroutines allocate during
// the span. Wall time has the same property; both are still the right
// signal for "which band got expensive".

// allocMetric is the cumulative bytes allocated by the process.
const allocMetric = "/gc/heap/allocs:bytes"

// BandProfiler hands out per-band instruments backed by a Registry:
// band_wall_ns_<band>, band_alloc_bytes_<band>, band_spans_<band>,
// plus the shared profiler_self_ns self-overhead counter. A nil
// profiler hands out nil bands, which record nothing.
type BandProfiler struct {
	reg  *Registry
	self *Counter
}

// NewBandProfiler returns a profiler registering its instruments in r.
// A nil registry yields a nil profiler (profiling disabled).
func NewBandProfiler(r *Registry) *BandProfiler {
	if r == nil {
		return nil
	}
	return &BandProfiler{reg: r, self: r.Counter("profiler_self_ns")}
}

// Band is one profiled tick stage. Bracket the band's work with
// Begin/End.
type Band struct {
	self    *Counter
	wall    *Counter
	alloc   *Counter
	spans   *Counter
	sample  [1]metrics.Sample
	started bool
	t0      time.Time
	a0      uint64
}

// Band returns the named band's instruments, creating the counters on
// first use. Each Band value is owned by one goroutine (the session's);
// the counters it updates are shared and atomic.
func (p *BandProfiler) Band(name string) *Band {
	if p == nil {
		return nil
	}
	b := &Band{
		self:  p.self,
		wall:  p.reg.Counter("band_wall_ns_" + name),
		alloc: p.reg.Counter("band_alloc_bytes_" + name),
		spans: p.reg.Counter("band_spans_" + name),
	}
	b.sample[0].Name = allocMetric
	return b
}

// Begin starts a span: it records the profiler's own entry cost into
// profiler_self_ns and arms the wall/alloc cursors. Nil-safe.
func (b *Band) Begin() {
	if b == nil {
		return
	}
	entry := time.Now()
	metrics.Read(b.sample[:])
	b.a0 = b.sample[0].Value.Uint64()
	b.started = true
	// The wall cursor is armed last so the band is not billed for the
	// profiler's own metric read; the gap is self-overhead.
	b.t0 = time.Now()
	b.self.Add(uint64(b.t0.Sub(entry)))
}

// End closes the span, adds the wall/alloc deltas to the band's
// counters, and returns them so a tracer can attach the allocation
// delta to its span event. Nil-safe; End without Begin records
// nothing.
func (b *Band) End() (wallNS, allocBytes uint64) {
	if b == nil || !b.started {
		return 0, 0
	}
	b.started = false
	// Wall delta first — everything after this line is self-overhead.
	wallNS = uint64(time.Since(b.t0))
	selfStart := time.Now()
	metrics.Read(b.sample[:])
	if a1 := b.sample[0].Value.Uint64(); a1 > b.a0 {
		allocBytes = a1 - b.a0
	}
	b.wall.Add(wallNS)
	b.alloc.Add(allocBytes)
	b.spans.Inc()
	b.self.Add(uint64(time.Since(selfStart)))
	return wallNS, allocBytes
}
