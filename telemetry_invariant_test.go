package vmt

// The telemetry contract: instrumentation observes, it never perturbs.
// These tests prove it by running the same configuration with and
// without full telemetry (recording tracer + metrics registry) and
// requiring the exported results to be byte-identical.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"testing"
	"time"

	"vmt/internal/pcm"
	"vmt/internal/telemetry"
)

// exportBytes serializes a result through the stable export format.
func exportBytes(t *testing.T, res *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestInstrumentedRunIsBitIdentical(t *testing.T) {
	for _, policy := range []Policy{PolicyRoundRobin, PolicyVMTTA, PolicyVMTWA} {
		policy := policy
		t.Run(string(policy), func(t *testing.T) {
			t.Parallel()
			gv := 0.0
			if policy != PolicyRoundRobin {
				gv = 22
			}
			cfg := Scenario(10, policy, gv)
			cfg.Trace = smallTrace()

			plain, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}

			instrumented := cfg
			rec := telemetry.NewRecorder()
			reg := telemetry.NewRegistry()
			instrumented.Tracer = rec
			instrumented.Metrics = reg
			traced, err := Run(instrumented)
			if err != nil {
				t.Fatal(err)
			}

			if got, want := exportBytes(t, traced), exportBytes(t, plain); !bytes.Equal(got, want) {
				t.Fatalf("instrumented run diverged from uninstrumented run\ninstrumented: %s\nplain: %s",
					got, want)
			}

			// The instrumentation actually observed something.
			if rec.Len() == 0 {
				t.Fatal("tracer recorded no events")
			}
			snap := reg.Snapshot()
			counters := map[string]uint64{}
			for _, c := range snap.Counters {
				counters[c.Name] = c.Value
			}
			for _, name := range []string{"sched_placements", "run_ticks"} {
				if counters[name] == 0 {
					t.Fatalf("counter %s stayed zero: %+v", name, snap.Counters)
				}
			}
			if len(snap.Histograms) == 0 || snap.Histograms[0].Count == 0 {
				t.Fatal("melt-fraction histogram recorded nothing")
			}
		})
	}
}

// The sample stage publishes the fleet's melt-fraction histogram and
// above-PMT time once per tick, and the registry ends the run exactly
// where one Observe and one counter add per server per tick would
// leave it: every bucket, the count, the sum's bits and the counter.
// The reference replays each tick's per-server state from Observe.
func TestFleetInstrumentsMatchPerServerUpdates(t *testing.T) {
	cfg := Scenario(30, PolicyVMTWA, 22)
	cfg.Trace = smallTrace()
	cfg.InletTempC = Some(26.0)
	cfg.InletStdevC = 1.5
	cfg.Step = time.Minute
	reg := telemetry.NewRegistry()
	cfg.Metrics = reg
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := telemetry.NewRegistry()
	refHist := ref.Histogram("pcm_melt_frac", telemetry.LinearBounds(0, 1, 10)...)
	refAbove := ref.Counter("thermal_above_pmt_server_s")
	pmtC := pcm.CommercialParaffin().MeltTempC
	for !s.Done() {
		if err := s.Step(1); err != nil {
			t.Fatal(err)
		}
		for _, srv := range s.Observe().Servers {
			refHist.Observe(srv.MeltFrac)
			if srv.AirTempC >= pmtC {
				refAbove.Add(uint64(cfg.Step.Seconds()))
			}
		}
	}
	if _, err := s.Close(); err != nil {
		t.Fatal(err)
	}
	find := func(snap telemetry.Snapshot) (telemetry.HistogramPoint, uint64) {
		var h telemetry.HistogramPoint
		for _, x := range snap.Histograms {
			if x.Name == "pcm_melt_frac" {
				h = x
			}
		}
		var above uint64
		for _, c := range snap.Counters {
			if c.Name == "thermal_above_pmt_server_s" {
				above = c.Value
			}
		}
		return h, above
	}
	got, gotAbove := find(reg.Snapshot())
	want, wantAbove := find(ref.Snapshot())
	if want.Count == 0 || wantAbove == 0 {
		t.Fatalf("reference saw %d melt observations and %d server-seconds above the PMT; want both nonzero", want.Count, wantAbove)
	}
	if gotAbove != wantAbove {
		t.Errorf("thermal_above_pmt_server_s = %d, per-server adds give %d", gotAbove, wantAbove)
	}
	if got.Count != want.Count || math.Float64bits(got.Sum) != math.Float64bits(want.Sum) || len(got.Buckets) != len(want.Buckets) {
		t.Fatalf("pcm_melt_frac count %d sum %v (%#x), per-server Observe gives count %d sum %v (%#x)",
			got.Count, got.Sum, math.Float64bits(got.Sum), want.Count, want.Sum, math.Float64bits(want.Sum))
	}
	for i := range want.Buckets {
		if got.Buckets[i].Count != want.Buckets[i].Count {
			t.Errorf("pcm_melt_frac bucket %d holds %d, per-server Observe gives %d", i, got.Buckets[i].Count, want.Buckets[i].Count)
		}
	}
}

// TestInstrumentedStreamedRunIsBitIdentical extends the contract to
// the full streaming layer: a run carrying every instrument at once —
// metrics registry, span tracer, windowed stream with an NDJSON sink,
// fleet publisher with an NDJSON log, and band profiling — must export
// byte-identically to a bare run, at every physics worker count the
// determinism invariant covers.
func TestInstrumentedStreamedRunIsBitIdentical(t *testing.T) {
	base := Scenario(10, PolicyVMTTA, 22)
	base.Trace = smallTrace()

	plainCfg := base
	plainCfg.PhysicsWorkers = 1
	plain, err := Run(plainCfg)
	if err != nil {
		t.Fatal(err)
	}
	want := exportBytes(t, plain)

	for _, workers := range []int{1, 2, 8} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			t.Parallel()
			var winBuf, fleetBuf bytes.Buffer
			cfg := base
			cfg.PhysicsWorkers = workers
			cfg.Metrics = telemetry.NewRegistry()
			cfg.Tracer = telemetry.NewRecorder()
			cfg.Stream = telemetry.NewStream(telemetry.StreamOptions{
				WindowTicks: 32,
				Sink:        telemetry.NewNDJSONSink(&winBuf),
			})
			cfg.Fleet = telemetry.NewFleetPublisher(telemetry.NewNDJSONFleetLog(&fleetBuf))
			cfg.ProfileBands = true

			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := exportBytes(t, res); !bytes.Equal(got, want) {
				t.Fatalf("fully instrumented streamed run (workers=%d) diverged from bare run", workers)
			}
			// Every instrument actually observed the run.
			if winBuf.Len() == 0 || fleetBuf.Len() == 0 {
				t.Fatalf("streams are empty: windows=%dB fleet=%dB", winBuf.Len(), fleetBuf.Len())
			}
			if cfg.Metrics.Counter("band_spans_physics").Value() == 0 {
				t.Fatal("band profiler recorded no physics spans")
			}
		})
	}
}

// TestStreamMemoryIsBoundedOverLongRun pins the bounded-memory claim:
// a full-day run seals an order of magnitude more windows than the
// ring retains, every one reaches the sink, and the in-memory snapshot
// never exceeds the ring size.
func TestStreamMemoryIsBoundedOverLongRun(t *testing.T) {
	const windowTicks, ringWindows = 4, 8
	var buf bytes.Buffer
	cfg := BaselineScenario(5)
	cfg.Trace = smallTrace() // one paper day: 1440 one-minute ticks
	sink := telemetry.NewNDJSONSink(&buf)
	cfg.Stream = telemetry.NewStream(telemetry.StreamOptions{
		WindowTicks: windowTicks,
		RingWindows: ringWindows,
		Sink:        sink,
	})
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
	recs, err := telemetry.ReadWindows(&buf)
	if err != nil {
		t.Fatal(err)
	}
	perSeries := map[string]int{}
	for _, rec := range recs {
		perSeries[rec.Series]++
	}
	sealed := perSeries["cooling_load_w"]
	if sealed < 10*ringWindows {
		t.Fatalf("run sealed only %d windows; need ≥ %d to demonstrate bounded memory", sealed, 10*ringWindows)
	}
	inMem := map[string]int{}
	for _, rec := range cfg.Stream.Snapshot() {
		inMem[rec.Series]++
	}
	for series, n := range inMem {
		if n > ringWindows {
			t.Errorf("series %s retains %d windows in memory, ring bound is %d", series, n, ringWindows)
		}
	}
	if inMem["cooling_load_w"] == 0 {
		t.Fatal("snapshot is empty — bound proven vacuously")
	}
}

// TestRerunWithSameRecorderIsDeterministic re-runs one instrumented
// configuration and checks the *simulation-visible* span fields
// (phase, sim time, order) repeat exactly; only wall timings may
// differ between runs.
func TestTraceSpanStructureIsDeterministic(t *testing.T) {
	cfg := Scenario(8, PolicyVMTWA, 22)
	cfg.Trace = smallTrace()
	runOnce := func() []telemetry.SpanEvent {
		rec := telemetry.NewRecorder()
		c := cfg
		c.Tracer = rec
		if _, err := Run(c); err != nil {
			t.Fatal(err)
		}
		return rec.Events()
	}
	a, b := runOnce(), runOnce()
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("span counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].At != b[i].At {
			t.Fatalf("span %d differs: %+v vs %+v", i, a[i], b[i])
		}
		for k, v := range a[i].Args {
			if b[i].Args[k] != v {
				t.Fatalf("span %d arg %s differs: %v vs %v", i, k, v, b[i].Args[k])
			}
		}
	}
}

// TestTracedRunExportsValidChromeTrace drives the full path the
// `vmtsim -trace out.json` flag uses and validates the artifact is
// well-formed Chrome trace_event JSON (the format Perfetto loads).
func TestTracedRunExportsValidChromeTrace(t *testing.T) {
	cfg := Scenario(6, PolicyVMTTA, 22)
	cfg.Trace = smallTrace()
	rec := telemetry.NewRecorder()
	cfg.Tracer = rec
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Pid  int     `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("not valid chrome trace JSON: %v", err)
	}
	phases := map[string]bool{}
	for _, ev := range decoded.TraceEvents {
		if ev.Ph == "X" {
			phases[ev.Name] = true
		}
	}
	for _, want := range []string{"physics", "schedule", "sample"} {
		if !phases[want] {
			t.Fatalf("missing %q spans; phases seen: %v", want, phases)
		}
	}
}

// TestDefaultObservabilityAppliesToRuns exercises the process-wide
// fallback the CLI flags use, including cleanup.
func TestDefaultObservabilityAppliesToRuns(t *testing.T) {
	reg := telemetry.NewRegistry()
	rec := telemetry.NewRecorder()
	SetDefaultObservers(Observers{Metrics: reg, Tracer: rec})
	defer SetDefaultObservers(Observers{})

	cfg := BaselineScenario(5)
	cfg.Trace = smallTrace()
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if reg.Counter("run_ticks").Value() == 0 {
		t.Fatal("default registry saw no ticks")
	}
	if rec.Len() == 0 {
		t.Fatal("default tracer saw no spans")
	}

	// A per-Config registry takes precedence over the default.
	own := telemetry.NewRegistry()
	cfg.Metrics = own
	before := reg.Counter("run_ticks").Value()
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if own.Counter("run_ticks").Value() == 0 {
		t.Fatal("per-config registry ignored")
	}
	if reg.Counter("run_ticks").Value() != before {
		t.Fatal("default registry should not see a run with its own registry")
	}
}
