package main

import (
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"vmt"
	"vmt/internal/telemetry"
)

// Host-speed normalisation. The reference host (a two-vCPU x86-64 VM)
// shares its cores and caches with other tenants. On it, the same
// operation ran up to 1.6× slower while a neighbour was busy, in
// episodes lasting from seconds to minutes; process CPU time slowed as
// much as wall time. A pure arithmetic loop slowed by 10–15%, while a
// loop streaming over a 256 KB array slowed nearly as much as the
// simulator (~1.45× against ~1.55×). So the benchmark runs that loop, the probe, every probeEvery
// between ticks (outside the timed calls) and scales an operation's
// host times by probeRef over the median probe time seen during the
// operation: host times are reported in seconds of the reference
// host's quiet state.
const (
	probeEvery = 5 * time.Millisecond
	// probeRef is about the probe's median time on the reference host
	// while no neighbour contended for it (115–135 µs, depending on the
	// workload running between probes).
	probeRef = 130 * time.Microsecond
)

var probeData = make([]float64, 32<<10) // 256 KB
var probeSink float64

// probe times two read-modify-write passes over probeData.
func probe() time.Duration {
	t := time.Now()
	s := 0.0
	for pass := 0; pass < 2; pass++ {
		for i, v := range probeData {
			v = v*0.999 + float64(i&7)*0.01
			if v > 1 {
				v = math.Sqrt(v)
			}
			probeData[i] = v
			s += v
		}
	}
	probeSink += s
	return time.Since(t)
}

// speedometer samples the probe during an operation.
type speedometer struct {
	last    time.Time
	samples []float64
}

// sample runs the probe now.
func (s *speedometer) sample() {
	s.samples = append(s.samples, float64(probe()))
	s.last = time.Now()
}

// tick runs the probe when probeEvery has passed since the last one.
func (s *speedometer) tick() {
	if time.Since(s.last) >= probeEvery {
		s.sample()
	}
}

// scale is the factor that converts host time measured while s was
// sampling to seconds of the reference host.
func (s *speedometer) scale() float64 {
	return float64(probeRef) / median(s.samples)
}

// memStats reads the live heap as of the last collection and the
// cumulative allocation counter without stopping the world.
type memStats struct{ samples [2]metrics.Sample }

func newMemStats() *memStats {
	m := &memStats{}
	m.samples[0].Name = "/gc/heap/live:bytes"
	m.samples[1].Name = "/gc/heap/allocs:bytes"
	return m
}

func (m *memStats) read() (live, allocs uint64) {
	metrics.Read(m.samples[:])
	return m.samples[0].Value.Uint64(), m.samples[1].Value.Uint64()
}

// quantile returns the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// tickMedians returns, for each tick index, the median of that tick's
// time across operations.
func tickMedians(ops [][]float64) []float64 {
	if len(ops) == 0 {
		return nil
	}
	out := make([]float64, len(ops[0]))
	col := make([]float64, len(ops))
	for t := range out {
		for k, op := range ops {
			col[k] = op[t]
		}
		out[t] = median(col)
	}
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// logHist is a log-linear latency histogram (eight sub-buckets per
// power of two, ≤12.5% relative error) so the ~750k placement calls of
// scale-2k cost a counter update each instead of a recorded span.
type logHist struct {
	counts [64 * 8]uint64
	n      uint64
}

func (h *logHist) add(d time.Duration) {
	v := uint64(d)
	if v < 8 {
		v = 8
	}
	e := bits.Len64(v) - 1
	h.counts[e*8+int(v>>(e-3))&7]++
	h.n++
}

// quantile returns the lower edge of the bucket holding the q-quantile.
func (h *logHist) quantile(q float64) time.Duration {
	if h.n == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(h.n)))
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= target {
			e, m := i/8, i%8
			return time.Duration(uint64(8+m) << (e - 3))
		}
	}
	return 0
}

// sinkWriter is a byte-counting discard writer for the live workload's
// NDJSON sinks. It keeps a CRC-32C of everything written so the Session
// run and the replica can be shown to emit identical telemetry.
type sinkWriter struct {
	prof *profiler // nil when untraced
	n    int64
	crc  uint32
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func (w *sinkWriter) Write(b []byte) (int, error) {
	w.prof.begin(lSinkWrite)
	w.n += int64(len(b))
	w.crc = crc32.Update(w.crc, castagnoli, b)
	w.prof.end()
	return len(b), nil
}

// observers are the live workload's telemetry: a metrics registry, a
// window stream and a fleet log, each sink writing to a sinkWriter.
type observers struct {
	reg             *telemetry.Registry
	stream          *telemetry.Stream
	fleet           *telemetry.FleetPublisher
	streamW, fleetW sinkWriter
}

func newObservers(p *profiler) *observers {
	o := &observers{reg: telemetry.NewRegistry()}
	o.streamW.prof, o.fleetW.prof = p, p
	o.stream = telemetry.NewStream(telemetry.StreamOptions{Sink: telemetry.NewNDJSONSink(&o.streamW)})
	o.fleet = telemetry.NewFleetPublisher(telemetry.NewNDJSONFleetLog(&o.fleetW))
	return o
}

func (o *observers) attach(cfg *vmt.Config) {
	if o == nil {
		return
	}
	cfg.Metrics, cfg.Stream, cfg.Fleet = o.reg, o.stream, o.fleet
}

func (o *observers) stamp(out *outcome) {
	if o == nil {
		return
	}
	out.streamBytes, out.streamCRC = o.streamW.n, o.streamW.crc
	out.fleetBytes, out.fleetCRC = o.fleetW.n, o.fleetW.crc
}

// sessionOp is one untraced operation through the public vmt.Session
// API, timed in wall time around each call. The durations are as
// measured; scale converts them to seconds of the reference host.
type sessionOp struct {
	setup, run, observe time.Duration
	scale               float64
	serverTicks         float64
	allocBytes          uint64
	heapLive            uint64
	ticks               []float64 // wall time of each tick, ns
	outcomes            []outcome
}

// runSessionOp runs one operation. A tick is one Step(1), plus Observe
// on the live workload. After the last tick of each run, outside the
// timed calls, a forced collection measures the open session's live
// heap against the heap live before the operation began.
func runSessionOp(w *workload, seed uint64, mem *memStats) (sessionOp, error) {
	op := sessionOp{
		ticks:    make([]float64, 0, len(w.Runs)*ticksPerRun),
		outcomes: make([]outcome, 0, len(w.Runs)),
	}
	speed := speedometer{samples: make([]float64, 0, 1024)}
	runtime.GC()
	live0, alloc0 := mem.read()
	speed.sample()
	for _, r := range w.Runs {
		cfg := w.config(r, seed)
		var obs *observers
		if w.Live {
			obs = newObservers(nil)
			obs.attach(&cfg)
		}
		t0 := time.Now()
		s, err := vmt.Open(cfg)
		op.setup += time.Since(t0)
		if err != nil {
			return op, fmt.Errorf("open %s: %w", r.Policy, err)
		}
		n := 0
		for !s.Done() {
			t0 := time.Now()
			if err := s.Step(1); err != nil {
				return op, fmt.Errorf("%s tick %d: %w", r.Policy, n+1, err)
			}
			t1 := time.Now()
			t2 := t1
			if w.Live {
				if got := s.Observe(); got.Tick != int64(n+1) || len(got.Servers) != w.Servers {
					return op, fmt.Errorf("%s tick %d: Observe returned tick %d with %d servers", r.Policy, n+1, got.Tick, len(got.Servers))
				}
				t2 = time.Now()
			}
			op.observe += t2.Sub(t1)
			op.run += t2.Sub(t0)
			op.ticks = append(op.ticks, float64(t2.Sub(t0)))
			n++
			speed.tick()
		}
		runtime.GC()
		if live, _ := mem.read(); live > live0 && live-live0 > op.heapLive {
			op.heapLive = live - live0
		}
		t0 = time.Now()
		res, err := s.Close()
		op.run += time.Since(t0)
		if err != nil {
			return op, fmt.Errorf("close %s: %w", r.Policy, err)
		}
		op.serverTicks += float64(w.Servers * n)
		op.outcomes = append(op.outcomes, resultOutcome(res, obs))
	}
	_, alloc1 := mem.read()
	op.allocBytes = alloc1 - alloc0
	speed.sample()
	op.scale = speed.scale()
	return op, nil
}

// setupOnce opens and closes one operation's sessions without stepping
// them and returns the wall time spent in vmt.Open.
func setupOnce(w *workload, seed uint64) (time.Duration, error) {
	var total time.Duration
	for _, r := range w.Runs {
		cfg := w.config(r, seed)
		if w.Live {
			newObservers(nil).attach(&cfg)
		}
		t0 := time.Now()
		s, err := vmt.Open(cfg)
		total += time.Since(t0)
		if err != nil {
			return 0, fmt.Errorf("open %s: %w", r.Policy, err)
		}
		if _, err := s.Close(); err != nil {
			return 0, fmt.Errorf("close %s: %w", r.Policy, err)
		}
	}
	return total, nil
}
