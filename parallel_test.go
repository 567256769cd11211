package vmt

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"vmt/internal/telemetry"
)

func TestRunManyMatchesSequential(t *testing.T) {
	noRunCache(t)
	cfgs := []Config{
		func() Config { c := BaselineScenario(5); c.Trace = smallTrace(); return c }(),
		func() Config { c := Scenario(5, PolicyVMTTA, 22); c.Trace = smallTrace(); return c }(),
		func() Config { c := Scenario(5, PolicyVMTWA, 22); c.Trace = smallTrace(); return c }(),
	}
	parallel, err := RunMany(cfgs, BatchOptions{})
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
	if _, err := RunMany(cfgs, BatchOptions{}); err == nil {
		t.Fatal("invalid config should fail the batch")
	}
}

func TestRunManyWorkerBounds(t *testing.T) {
	if res, err := RunMany(nil, BatchOptions{}); err != nil || len(res) != 0 {
		t.Fatalf("empty batch: res=%v err=%v", res, err)
	}
	noRunCache(t)
	cfg := BaselineScenario(3)
	cfg.Trace = smallTrace()
	res, err := RunMany([]Config{cfg}, BatchOptions{Workers: 16}) // workers > jobs
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
	noRunCache(t)
	cfgs := []Config{mk(3), BaselineScenario(0) /* invalid */, mk(4)}
	results, err := RunMany(cfgs, BatchOptions{Workers: 2})
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

func TestRunManyProgressAndThroughput(t *testing.T) {
	noRunCache(t)
	cfgs := make([]Config, 3)
	for i := range cfgs {
		cfgs[i] = BaselineScenario(3)
		cfgs[i].Trace = smallTrace()
	}
	var buf bytes.Buffer
	if _, err := RunMany(cfgs, BatchOptions{Workers: 2, Progress: &buf}); err != nil {
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

// TestRunManySharedStreamTagsRuns checks the shared default window
// stream forks per run: records from concurrent runs interleave in one
// sink but stay separable by run index.
func TestRunManySharedStreamTagsRuns(t *testing.T) {
	noRunCache(t)
	cfgs := make([]Config, 3)
	for i := range cfgs {
		cfgs[i] = BaselineScenario(3)
		cfgs[i].Trace = smallTrace()
	}
	var buf bytes.Buffer
	sink := telemetry.NewNDJSONSink(&buf) // sink serializes concurrent emits itself
	SetDefaultObservers(Observers{Stream: telemetry.NewStream(telemetry.StreamOptions{WindowTicks: 4, Sink: sink})})
	defer SetDefaultObservers(Observers{})
	if _, err := RunMany(cfgs, BatchOptions{Workers: 3}); err != nil {
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

// TestRunManySharedTracerTagsRuns checks the shared default
// recorder separates runs by index, and a shared registry aggregates.
func TestRunManySharedTracerTagsRuns(t *testing.T) {
	noRunCache(t)
	cfgs := make([]Config, 3)
	for i := range cfgs {
		cfgs[i] = BaselineScenario(3)
		cfgs[i].Trace = smallTrace()
	}
	rec := telemetry.NewRecorder()
	reg := telemetry.NewRegistry()
	SetDefaultObservers(Observers{Tracer: rec, Metrics: reg})
	defer SetDefaultObservers(Observers{})
	if _, err := RunMany(cfgs, BatchOptions{}); err != nil {
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

// TestRunManyTagsRunsByInputIndex: a configuration the cache answers
// does not run, and the shared tracer and stream tag each run that
// does with its index in the batch, not its position among the runs.
func TestRunManyTagsRunsByInputIndex(t *testing.T) {
	cached := BaselineScenario(3)
	cached.Trace = smallTrace()
	cached.Seed = 781
	fresh := Scenario(3, PolicyVMTTA, 22)
	fresh.Trace = smallTrace()
	fresh.Seed = 781
	RunCache().Reset()
	if _, err := RunMany([]Config{cached}, BatchOptions{}); err != nil {
		t.Fatal(err)
	}

	rec := telemetry.NewRecorder()
	var buf bytes.Buffer
	stream := telemetry.NewStream(telemetry.StreamOptions{WindowTicks: 4, Sink: telemetry.NewNDJSONSink(&buf)})
	SetDefaultObservers(Observers{Tracer: rec, Stream: stream})
	defer SetDefaultObservers(Observers{})
	if _, err := RunMany([]Config{cached, fresh}, BatchOptions{}); err != nil {
		t.Fatal(err)
	}
	spans := map[int]int{}
	for _, ev := range rec.Events() {
		spans[ev.Run]++
	}
	if len(spans) != 1 || spans[1] == 0 {
		t.Fatalf("spans per run = %v, want every span tagged run 1", spans)
	}
	recs, err := telemetry.ReadWindows(&buf)
	if err != nil {
		t.Fatal(err)
	}
	windows := map[int]int{}
	for _, r := range recs {
		windows[r.Run]++
	}
	if len(windows) != 1 || windows[1] == 0 {
		t.Fatalf("window records per run = %v, want every record tagged run 1", windows)
	}
}

// TestRunManyOwnObserversAlwaysRun: a configuration with its own sinks
// is neither answered from the cache nor folded into a duplicate, so
// its sinks see every run of it.
func TestRunManyOwnObserversAlwaysRun(t *testing.T) {
	cfg := BaselineScenario(3)
	cfg.Trace = smallTrace()
	cfg.Seed = 782
	if _, err := RunMany([]Config{cfg}, BatchOptions{}); err != nil {
		t.Fatal(err)
	}
	a, b := cfg, cfg
	a.Metrics = telemetry.NewRegistry()
	b.Metrics = telemetry.NewRegistry()
	if _, err := RunMany([]Config{cfg, a, b, a}, BatchOptions{}); err != nil {
		t.Fatal(err)
	}
	// 1-day trace at 1-minute step: 1440 ticks per run; a runs twice.
	if got := a.Metrics.Counter("run_ticks").Value(); got != 2*1440 {
		t.Errorf("a's registry counted %d ticks, want 2880", got)
	}
	if got := b.Metrics.Counter("run_ticks").Value(); got != 1440 {
		t.Errorf("b's registry counted %d ticks, want 1440", got)
	}
}
