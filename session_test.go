package vmt

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"vmt/internal/telemetry"
	"vmt/internal/trace"
	"vmt/internal/workload"
)

func sessionConfig() Config {
	cfg := Scenario(6, PolicyVMTTA, 22)
	cfg.Trace = smallTrace()
	cfg.Step = 2 * time.Minute
	return cfg
}

func TestSessionStepToCompletionMatchesRun(t *testing.T) {
	cfg := sessionConfig()
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	for !s.Done() {
		if err := s.Step(1); err != nil {
			t.Fatal(err)
		}
		steps++
		if steps > 10000 {
			t.Fatal("session never finished")
		}
	}
	got, err := s.Close()
	if err != nil {
		t.Fatal(err)
	}
	if d := identicalOutcome(want, got); d != "" {
		t.Fatalf("stepped session diverged from Run: %s", d)
	}
	if got.CoolingLoadW.Len() != want.CoolingLoadW.Len() {
		t.Fatalf("sample counts: session %d, run %d", got.CoolingLoadW.Len(), want.CoolingLoadW.Len())
	}
}

func TestSessionObserve(t *testing.T) {
	s, err := Open(sessionConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	obs := s.Observe()
	if obs.Tick != 0 || obs.Done || len(obs.Servers) != 0 {
		t.Fatalf("pre-step observation: %+v", obs)
	}
	if err := s.Step(3); err != nil {
		t.Fatal(err)
	}
	obs = s.Observe()
	if obs.Tick != 3 || obs.SimTime != 6*time.Minute {
		t.Fatalf("after Step(3): tick=%d sim=%v", obs.Tick, obs.SimTime)
	}
	if len(obs.Servers) != 6 {
		t.Fatalf("want 6 server observations, got %d", len(obs.Servers))
	}
	if obs.TotalPowerW <= 0 || obs.MeanAirTempC <= 0 {
		t.Fatalf("aggregates not populated: %+v", obs)
	}
	if obs.BusyCores == 0 {
		t.Fatal("no jobs placed after three ticks")
	}
	if obs.HotGroupSize <= 0 {
		t.Fatalf("VMT-TA session reports hot group %d", obs.HotGroupSize)
	}
	hot := 0
	for i, so := range obs.Servers {
		if so.ID != i {
			t.Fatalf("server %d has ID %d", i, so.ID)
		}
		if so.Group == "hot" {
			hot++
		}
	}
	if hot != obs.HotGroupSize {
		t.Fatalf("hot-labeled servers %d != HotGroupSize %d", hot, obs.HotGroupSize)
	}
	if obs.Utilization < 0 || obs.Utilization > 1 {
		t.Fatalf("utilization %v out of range", obs.Utilization)
	}
}

func TestSessionPlaceDirective(t *testing.T) {
	s, err := Open(sessionConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Place("nope", 0); err == nil || !strings.Contains(err.Error(), "unknown workload") {
		t.Fatalf("unknown workload: %v", err)
	}
	if err := s.Place(workload.WebSearch.Name, 99); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("out-of-range server: %v", err)
	}
	if err := s.Place(workload.WebSearch.Name, 5); err != nil {
		t.Fatal(err)
	}
	if err := s.Step(1); err != nil {
		t.Fatal(err)
	}
	obs := s.Observe()
	if obs.PlacementsOverridden != 1 {
		t.Fatalf("Overridden = %d, want 1", obs.PlacementsOverridden)
	}
	if obs.Servers[5].BusyCores == 0 {
		t.Fatal("directed server received no job")
	}
}

func TestSessionOpenEndedSource(t *testing.T) {
	cfg := sessionConfig()
	cfg.Trace = smallTrace() // ignored once Source is set
	cfg.Source = &workload.SourceSpec{Kind: "poisson", Level: 0.5, Events: 30}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.Done() {
		t.Fatal("open-ended session reports done")
	}
	if err := s.StepAll(); err == nil || !strings.Contains(err.Error(), "open-ended") {
		t.Fatalf("StepAll on open-ended session: %v", err)
	}
	// Run(cfg) must refuse too: it would never return.
	if _, err := Run(cfg); err == nil {
		t.Fatal("Run accepted an open-ended config")
	}
	// But stepping works indefinitely, past any trace length.
	if err := s.Step(10); err != nil {
		t.Fatal(err)
	}
	obs := s.Observe()
	if obs.Tick != 10 || obs.Done {
		t.Fatalf("after 10 steps: %+v", obs)
	}
	res, err := s.Close()
	if err != nil {
		t.Fatal(err)
	}
	if res.CoolingLoadW.Len() != 10 {
		t.Fatalf("partial result has %d samples, want 10", res.CoolingLoadW.Len())
	}
}

func TestSessionHorizonBoundsSource(t *testing.T) {
	cfg := sessionConfig()
	cfg.Source = &workload.SourceSpec{Kind: "bursty", Level: 0.3,
		BurstUtil: 0.8, BurstProb: 0.2, EpochMin: 10}
	cfg.Horizon = 40 * time.Minute // 20 ticks at the 2-minute step
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.CoolingLoadW.Len() != 20 {
		t.Fatalf("horizon run has %d samples, want 20", res.CoolingLoadW.Len())
	}
	// Step past the horizon: the clamp stops exactly at it.
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Step(1000); err != nil {
		t.Fatal(err)
	}
	if !s.Done() || s.Tick() != 20 {
		t.Fatalf("after clamped step: done=%v tick=%d", s.Done(), s.Tick())
	}
	got, err := s.Close()
	if err != nil {
		t.Fatal(err)
	}
	if d := identicalOutcome(res, got); d != "" {
		t.Fatalf("horizon-clamped session diverged: %s", d)
	}
}

// TestSessionHorizonNotMultipleOfStep: a horizon that ends between
// ticks runs every whole tick before it and leaves the clock on the
// horizon itself, including a horizon shorter than one step, where
// only the t=0 placement runs.
func TestSessionHorizonNotMultipleOfStep(t *testing.T) {
	cfg := sessionConfig() // 2-minute step
	cfg.Source = &workload.SourceSpec{Kind: "bursty", Level: 0.3,
		BurstUtil: 0.8, BurstProb: 0.2, EpochMin: 10}

	cfg.Horizon = 41 * time.Minute
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := want.CoolingLoadW.Len(); n != 20 {
		t.Fatalf("41-minute run has %d samples, want 20", n)
	}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Step(1000); err != nil {
		t.Fatal(err)
	}
	if obs := s.Observe(); !s.Done() || s.Tick() != 20 || s.Now() != cfg.Horizon || obs.SimTime != cfg.Horizon {
		t.Fatalf("after Step(1000): done=%v tick=%d now=%v observed=%v, want done at tick 20, %v",
			s.Done(), s.Tick(), s.Now(), obs.SimTime, cfg.Horizon)
	}
	got, err := s.Close()
	if err != nil {
		t.Fatal(err)
	}
	if d := identicalOutcome(want, got); d != "" {
		t.Fatalf("stepped session diverged from Run: %s", d)
	}

	cfg.Horizon = time.Minute
	want, err = Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := want.CoolingLoadW.Len(); n != 0 {
		t.Fatalf("1-minute run has %d samples, want 0", n)
	}
	s, err = Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.StepAll(); err != nil {
		t.Fatal(err)
	}
	if obs := s.Observe(); obs.BusyCores == 0 || s.Now() != time.Minute || !s.Done() {
		t.Fatalf("after StepAll: busy=%d now=%v done=%v, want the t=0 placement and the clock at 1m",
			obs.BusyCores, s.Now(), s.Done())
	}
}

// TestSessionStepOverflow: a step count whose n·step overflows a
// time.Duration runs a finite session to its horizon, and an
// open-ended session refuses it without latching the error.
func TestSessionStepOverflow(t *testing.T) {
	t.Run("finite", func(t *testing.T) {
		cfg := sessionConfig()
		want, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Step(math.MaxInt); err != nil {
			t.Fatalf("Step(MaxInt): %v", err)
		}
		if !s.Done() {
			t.Fatalf("Step(MaxInt) stopped at tick %d before the horizon", s.Tick())
		}
		got, err := s.Close()
		if err != nil {
			t.Fatal(err)
		}
		if d := identicalOutcome(want, got); d != "" {
			t.Fatalf("Step(MaxInt) diverged from Run: %s", d)
		}
	})
	t.Run("open-ended", func(t *testing.T) {
		cfg := sessionConfig()
		cfg.Source = &workload.SourceSpec{Kind: "poisson", Level: 0.5, Events: 30}
		s, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if err := s.Step(math.MaxInt); err == nil {
			t.Fatalf("Step(MaxInt) on an open-ended session succeeded at tick %d", s.Tick())
		}
		if err := s.Step(1); err != nil || s.Tick() != 1 {
			t.Fatalf("Step(1) after the refused step: %v at tick %d, want tick 1", err, s.Tick())
		}
	})
}

// TestSessionStageOrder pins the tick pipeline: the schedule stage
// alone at t=0, then each tick physics, fault and guard when a plan
// is set, schedule, and sample.
func TestSessionStageOrder(t *testing.T) {
	order := func(cfg Config) string {
		t.Helper()
		var got []string
		cfg.Tracer = telemetry.TracerFunc(func(ev telemetry.SpanEvent) {
			got = append(got, fmt.Sprintf("%s@%d", ev.Name, ev.At/cfg.Step))
		})
		s, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if err := s.Step(2); err != nil {
			t.Fatal(err)
		}
		return strings.Join(got, " ")
	}
	cfg := sessionConfig()
	if got, want := order(cfg),
		"schedule@0 physics@1 schedule@1 sample@1 physics@2 schedule@2 sample@2"; got != want {
		t.Errorf("fault-free stages:\n got %s\nwant %s", got, want)
	}
	cfg = faultScenario(PolicyVMTWA)
	cfg.Step = 2 * time.Minute
	if got, want := order(cfg),
		"schedule@0 physics@1 fault@1 guard@1 schedule@1 sample@1 physics@2 fault@2 guard@2 schedule@2 sample@2"; got != want {
		t.Errorf("faulted stages:\n got %s\nwant %s", got, want)
	}
}

func TestSessionSourceAndCustomTraceExclusive(t *testing.T) {
	cfg := sessionConfig()
	cfg.Source = &workload.SourceSpec{Kind: "poisson", Level: 0.5, Events: 30}
	tr, err := trace.Generate(cfg.Trace, cfg.Step)
	if err != nil {
		t.Fatal(err)
	}
	cfg.CustomTrace = tr
	if _, err := Open(cfg); err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Fatalf("Source+CustomTrace: %v", err)
	}
}

func TestSessionCancellationPartialResult(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	s, err := OpenCtx(ctx, sessionConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Step(2); err != nil {
		t.Fatal(err)
	}
	cancel()
	err = s.Step(5)
	if err != context.Canceled {
		t.Fatalf("step after cancel: %v", err)
	}
	res, err := s.Close()
	if err != context.Canceled {
		t.Fatalf("close after cancel: %v", err)
	}
	// The partial prefix is clean: the two pre-cancel ticks sampled.
	if res == nil || res.CoolingLoadW.Len() != 2 {
		t.Fatalf("partial result: %+v", res)
	}
	// A closed session refuses further work, idempotently.
	if err := s.Step(1); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("step after close: %v", err)
	}
	if _, err := s.Close(); err != context.Canceled {
		t.Fatalf("second close: %v", err)
	}
}

// TestSessionCancelStopsDispatching: a run cancelled before tick k
// runs exactly one more stage, tick k's physics, which latches the
// cancellation. Nothing after it runs, however far the horizon lies,
// so a deadline bounds a run's wall time.
func TestSessionCancelStopsDispatching(t *testing.T) {
	const k = 4
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := sessionConfig()
	var spans []telemetry.SpanEvent
	cfg.Tracer = telemetry.TracerFunc(func(ev telemetry.SpanEvent) { spans = append(spans, ev) })
	s, err := OpenCtx(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Step(k - 1); err != nil {
		t.Fatal(err)
	}
	spansBefore := len(spans)
	cancel()
	if err := s.StepAll(); err != context.Canceled {
		t.Fatalf("StepAll after cancel: %v", err)
	}
	last := spans[len(spans)-1]
	if len(spans) != spansBefore+1 || last.Name != "physics" || last.At != k*cfg.Step {
		t.Fatalf("spans after the cancel: %+v, want one physics span at tick %d", spans[spansBefore:], k)
	}
	if s.Tick() != k {
		t.Fatalf("clock stopped at tick %d, want the failing tick %d", s.Tick(), k)
	}
	res, err := s.Close()
	if err != context.Canceled || res.CoolingLoadW.Len() != k-1 {
		t.Fatalf("close: %v with %d samples, want context.Canceled with %d", err, res.CoolingLoadW.Len(), k-1)
	}
}

func TestSessionStreamSealsOnStepBoundaries(t *testing.T) {
	var recs []telemetry.WindowRecord
	sink := sinkFunc(func(rec telemetry.WindowRecord) { recs = append(recs, rec) })
	cfg := sessionConfig()
	cfg.Stream = telemetry.NewStream(telemetry.StreamOptions{WindowTicks: 4, Sink: sink})
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Window 0 covers ticks [0,3]; sample ticks are 1-based, so after
	// Step(3) it has seen every tick it ever will (1..3) and the step
	// boundary seals it without waiting for the run to end.
	if err := s.Step(3); err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("no windows sealed on the step boundary")
	}
	sealed := len(recs)
	// Two more ticks open (but do not complete) window 1; Close's
	// flush seals the trailing partial.
	if err := s.Step(2); err != nil {
		t.Fatal(err)
	}
	if len(recs) != sealed {
		t.Fatalf("incomplete window sealed early: %d -> %d records", sealed, len(recs))
	}
	if _, err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if len(recs) <= sealed {
		t.Fatal("close sealed no trailing windows")
	}
}

type sinkFunc func(telemetry.WindowRecord)

func (f sinkFunc) EmitWindow(rec telemetry.WindowRecord) { f(rec) }
