package vmt

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"vmt/internal/telemetry"
)

func TestRunManyMatchesSequential(t *testing.T) {
	cfgs := []Config{
		func() Config { c := BaselineScenario(5); c.Trace = smallTrace(); return c }(),
		func() Config { c := Scenario(5, PolicyVMTTA, 22); c.Trace = smallTrace(); return c }(),
		func() Config { c := Scenario(5, PolicyVMTWA, 22); c.Trace = smallTrace(); return c }(),
	}
	parallel, err := RunMany(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		seq, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if parallel[i].PeakCoolingW() != seq.PeakCoolingW() {
			t.Fatalf("cfg %d: parallel %v != sequential %v",
				i, parallel[i].PeakCoolingW(), seq.PeakCoolingW())
		}
		for j := range seq.CoolingLoadW.Values {
			if parallel[i].CoolingLoadW.Values[j] != seq.CoolingLoadW.Values[j] {
				t.Fatalf("cfg %d diverged at sample %d", i, j)
			}
		}
	}
}

func TestRunManyPropagatesErrors(t *testing.T) {
	cfgs := []Config{
		func() Config { c := BaselineScenario(3); c.Trace = smallTrace(); return c }(),
		BaselineScenario(0), // invalid
	}
	if _, err := RunMany(cfgs); err == nil {
		t.Fatal("invalid config should fail the batch")
	}
}

func TestRunManyNWorkerBounds(t *testing.T) {
	if _, err := RunManyN(nil, 0); err == nil {
		t.Fatal("zero workers should fail")
	}
	cfg := BaselineScenario(3)
	cfg.Trace = smallTrace()
	res, err := RunManyN([]Config{cfg}, 16) // workers > jobs
	if err != nil || len(res) != 1 {
		t.Fatalf("res=%v err=%v", res, err)
	}
}

// TestRunManyPartialResults is the error-path contract: the returned
// error names the failing configuration's index, every other run still
// completes, and its result is populated.
func TestRunManyPartialResults(t *testing.T) {
	mk := func(servers int) Config {
		c := BaselineScenario(servers)
		c.Trace = smallTrace()
		return c
	}
	cfgs := []Config{mk(3), BaselineScenario(0) /* invalid */, mk(4)}
	results, err := RunManyN(cfgs, 2)
	if err == nil {
		t.Fatal("invalid config should fail the batch")
	}
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("error %v does not carry a *RunError", err)
	}
	if re.Index != 1 {
		t.Fatalf("failing index = %d, want 1", re.Index)
	}
	if len(results) != 3 {
		t.Fatalf("results length = %d, want 3", len(results))
	}
	if results[0] == nil || results[2] == nil {
		t.Fatalf("successful runs not populated: %v", results)
	}
	if results[1] != nil {
		t.Fatal("failed run should have a nil result")
	}
	// The completed runs match a sequential Run of the same config.
	seq, err := Run(mk(4))
	if err != nil {
		t.Fatal(err)
	}
	if results[2].PeakCoolingW() != seq.PeakCoolingW() {
		t.Fatal("in-flight run did not complete equivalently")
	}
}

func TestRunManyOptsProgressAndThroughput(t *testing.T) {
	cfgs := make([]Config, 3)
	for i := range cfgs {
		cfgs[i] = BaselineScenario(3)
		cfgs[i].Trace = smallTrace()
	}
	var buf bytes.Buffer
	if _, err := RunManyOpts(cfgs, BatchOptions{Workers: 2, Progress: &buf}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(cfgs) {
		t.Fatalf("progress lines = %d, want %d:\n%s", len(lines), len(cfgs), buf.String())
	}
	last := lines[len(lines)-1]
	if !strings.Contains(last, "3/3") || !strings.Contains(last, "runs/s") {
		t.Fatalf("last progress line malformed: %q", last)
	}
	// Every line forecasts the remainder; the final line's remainder
	// is zero.
	for _, line := range lines {
		if !strings.Contains(line, "eta ") {
			t.Fatalf("progress line missing eta: %q", line)
		}
	}
	if !strings.Contains(last, "eta 0s") {
		t.Fatalf("final progress line should have eta 0s: %q", last)
	}
}

// TestRunManyOptsSharedStreamTagsRuns checks the shared default window
// stream forks per run: records from concurrent runs interleave in one
// sink but stay separable by run index.
func TestRunManyOptsSharedStreamTagsRuns(t *testing.T) {
	cfgs := make([]Config, 3)
	for i := range cfgs {
		cfgs[i] = BaselineScenario(3)
		cfgs[i].Trace = smallTrace()
	}
	var buf bytes.Buffer
	sink := telemetry.NewNDJSONSink(&buf) // sink serializes concurrent emits itself
	SetDefaultObservers(Observers{Stream: telemetry.NewStream(telemetry.StreamOptions{WindowTicks: 4, Sink: sink})})
	defer SetDefaultObservers(Observers{})
	if _, err := RunManyOpts(cfgs, BatchOptions{Workers: 3}); err != nil {
		t.Fatal(err)
	}
	recs, err := telemetry.ReadWindows(&buf)
	if err != nil {
		t.Fatal(err)
	}
	perRun := map[int]int{}
	for _, rec := range recs {
		perRun[rec.Run]++
	}
	for i := range cfgs {
		if perRun[i] == 0 {
			t.Fatalf("no window records tagged run %d: %v", i, perRun)
		}
	}
}

// TestRunManyOptsSharedTracerTagsRuns checks the shared default
// recorder separates runs by index, and a shared registry aggregates.
func TestRunManyOptsSharedTracerTagsRuns(t *testing.T) {
	cfgs := make([]Config, 3)
	for i := range cfgs {
		cfgs[i] = BaselineScenario(3)
		cfgs[i].Trace = smallTrace()
	}
	rec := telemetry.NewRecorder()
	reg := telemetry.NewRegistry()
	SetDefaultObservers(Observers{Tracer: rec, Metrics: reg})
	defer SetDefaultObservers(Observers{})
	if _, err := RunManyOpts(cfgs, BatchOptions{}); err != nil {
		t.Fatal(err)
	}
	runs := map[int]int{}
	for _, ev := range rec.Events() {
		runs[ev.Run]++
	}
	if len(runs) != len(cfgs) {
		t.Fatalf("expected spans from %d runs, saw %v", len(cfgs), runs)
	}
	// run_ticks aggregates: 1-day trace at 1-minute step → 1440 ticks
	// per run.
	if got := reg.Counter("run_ticks").Value(); got != uint64(len(cfgs))*1440 {
		t.Fatalf("run_ticks = %d, want %d", got, len(cfgs)*1440)
	}
}
