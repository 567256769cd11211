package vmt

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"vmt/internal/experiment"
	"vmt/internal/fault"
	"vmt/internal/pcm"
	"vmt/internal/stats"
	"vmt/internal/telemetry"
	"vmt/internal/thermal"
	"vmt/internal/trace"
	"vmt/internal/workload"
)

// withSmallTrace pins a spec to the fast single-day test trace.
func withSmallTrace(spec experiment.Spec) experiment.Spec {
	if spec.Base == nil {
		spec.Base = experiment.Settings{}
	}
	spec.Base["trace"] = settingValue(smallTrace())
	return spec
}

func TestConfigKeyCanonical(t *testing.T) {
	base := Scenario(5, PolicyVMTTA, 22)
	k1, err := configKey(base)
	if err != nil {
		t.Fatal(err)
	}
	// Observational knobs and the physics worker count are not part of
	// the run's identity.
	same := base
	same.PhysicsWorkers = 8
	same.Metrics = telemetry.NewRegistry()
	k2, err := configKey(same)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Error("observational fields changed the config key")
	}
	// Explicit defaults hash like resolved zeros.
	explicit := base
	explicit.InletTempC = Some(22.0)
	explicit.Step = time.Minute
	k3, err := configKey(explicit)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k3 {
		t.Error("explicit paper defaults hash differently from zero values")
	}
	// Simulation-relevant fields are.
	diff := base
	diff.GV = 24
	k4, err := configKey(diff)
	if err != nil {
		t.Fatal(err)
	}
	if k1 == k4 {
		t.Error("distinct GVs collided")
	}
	// A custom trace overrides the spec trace entirely.
	tr, err := trace.FromSamples(make([]float64, 60), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	c1 := base
	c1.CustomTrace = tr
	c2 := base
	c2.CustomTrace = tr
	c2.Trace = smallTrace() // ignored when CustomTrace is set
	k5, _ := configKey(c1)
	k6, _ := configKey(c2)
	if k5 != k6 {
		t.Error("ignored Trace field changed a custom-trace key")
	}
	if k5 == k1 {
		t.Error("custom trace collided with the spec trace")
	}
}

func TestRunManyCachedDedup(t *testing.T) {
	defer runCache.SetEnabled(true)
	runCache.SetEnabled(true)

	reg := telemetry.NewRegistry()
	SetDefaultObservers(Observers{Metrics: reg})
	defer SetDefaultObservers(Observers{})
	cfg := BaselineScenario(3)
	cfg.Trace = smallTrace()
	vmtCfg := Scenario(3, PolicyVMTTA, 22)
	vmtCfg.Trace = smallTrace()

	// Unique per-test configs (seed) so earlier tests' cache entries
	// cannot interfere with the counters.
	cfg.Seed = 777
	vmtCfg.Seed = 777

	runs, err := RunManyCached([]Config{cfg, vmtCfg, cfg}, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if runs[0] != runs[2] {
		t.Error("duplicate configs should share one result")
	}
	if hits := reg.Counter("experiment_cache_hits").Value(); hits != 1 {
		t.Errorf("first batch hits = %d, want 1 (intra-batch dup)", hits)
	}
	if misses := reg.Counter("experiment_cache_misses").Value(); misses != 2 {
		t.Errorf("first batch misses = %d, want 2", misses)
	}

	// Second batch: everything is cached, and cached results are the
	// same pointers.
	runs2, err := RunManyCached([]Config{cfg, vmtCfg}, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if runs2[0] != runs[0] || runs2[1] != runs[1] {
		t.Error("second batch should be served from the cache")
	}
	if hits := reg.Counter("experiment_cache_hits").Value(); hits != 3 {
		t.Errorf("cumulative hits = %d, want 3", hits)
	}
}

// Cache-on and cache-off executions are bit-identical: the cache only
// skips simulating configurations whose result is already known.
func TestRunManyCachedBitIdenticalDisabled(t *testing.T) {
	defer runCache.SetEnabled(true)

	cfg := Scenario(4, PolicyVMTWA, 20)
	cfg.Trace = smallTrace()
	cfg.Seed = 778

	runCache.SetEnabled(true)
	on, err := RunManyCached([]Config{cfg, cfg}, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	runCache.SetEnabled(false)
	off, err := RunManyCached([]Config{cfg, cfg}, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if off[0] == off[1] {
		t.Error("disabled cache should not dedup")
	}
	for _, res := range [3]*Result{on[0], off[0], off[1]} {
		if res.CoolingLoadW.Len() != on[1].CoolingLoadW.Len() {
			t.Fatal("series lengths diverged")
		}
		for i, v := range on[1].CoolingLoadW.Values {
			if res.CoolingLoadW.Values[i] != v {
				t.Fatalf("cooling sample %d diverged cache-on vs cache-off", i)
			}
		}
	}
}

func TestRunManyCachedPartialFailure(t *testing.T) {
	good := BaselineScenario(3)
	good.Trace = smallTrace()
	good.Seed = 779
	bad := Scenario(0, PolicyRoundRobin, 0) // zero servers: fails validation
	_, err := RunManyCached([]Config{good, bad}, BatchOptions{})
	re, ok := err.(*RunError)
	if !ok {
		t.Fatalf("want *RunError, got %v", err)
	}
	if re.Index != 1 {
		t.Fatalf("failure index = %d, want 1 (remapped through the plan)", re.Index)
	}
	// The failed config must not poison the cache.
	if _, err := RunManyCached([]Config{good}, BatchOptions{}); err != nil {
		t.Fatal(err)
	}
}

// The spec path and the pre-engine direct path produce bit-identical
// sweeps.
func TestRunSpecMatchesDirect(t *testing.T) {
	gvs := []float64{20, 24}
	spec := withSmallTrace(GVSweepSpec(4, PolicyVMTTA, gvs))
	sr, err := RunSpecResults(spec, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	baseCfg := BaselineScenario(4)
	baseCfg.Trace = smallTrace()
	baseline, err := Run(baseCfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, gv := range gvs {
		cfg := Scenario(4, PolicyVMTTA, gv)
		cfg.Trace = smallTrace()
		direct, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := sr.Results[i]
		if got.CoolingLoadW.Len() != direct.CoolingLoadW.Len() {
			t.Fatalf("gv %g: series length diverged", gv)
		}
		for j, v := range direct.CoolingLoadW.Values {
			if got.CoolingLoadW.Values[j] != v {
				t.Fatalf("gv %g sample %d: spec path diverged from direct Run", gv, j)
			}
		}
	}
	for j, v := range baseline.CoolingLoadW.Values {
		if sr.Baselines[0].CoolingLoadW.Values[j] != v {
			t.Fatalf("baseline sample %d diverged", j)
		}
	}
}

// Encode → decode → execute: the full spec-file path check.sh
// exercises. The decoded spec must expand to the same grid and reduce
// to the same rows as the in-memory one.
func TestSpecRoundTripExecute(t *testing.T) {
	spec := withSmallTrace(GVSweepSpec(3, PolicyVMTTA, []float64{20, 24}))
	var buf bytes.Buffer
	if err := spec.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	decoded, err := experiment.DecodeSpec(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunSpec(spec, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunSpec(decoded, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("row count changed: %d vs %d", len(got.Rows), len(want.Rows))
	}
	for i := range want.Rows {
		if got.Rows[i].Values["reduction_pct"] != want.Rows[i].Values["reduction_pct"] {
			t.Errorf("row %d: decoded spec produced %v, in-memory %v",
				i, got.Rows[i].Values["reduction_pct"], want.Rows[i].Values["reduction_pct"])
		}
		if got.Rows[i].Labels["gv"] != want.Rows[i].Labels["gv"] {
			t.Errorf("row %d labels diverged", i)
		}
	}
}

func TestRunSpecMeanAndBestReducers(t *testing.T) {
	// Mean over seeds.
	mean := withSmallTrace(InletVariationSpec(3, PolicyVMTTA, []float64{22}, []float64{1}, 2))
	rep, err := RunSpec(mean, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 1 {
		t.Fatalf("mean reducer rows = %d, want 1", len(rep.Rows))
	}
	if _, ok := rep.Rows[0].Labels["seed"]; ok {
		t.Error("mean reducer leaked the averaged axis label")
	}
	// Best over the GV grid.
	best := withSmallTrace(PMTSweepSpec(3, []float64{35.7}, []float64{20, 24}))
	rep, err = RunSpec(best, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 1 {
		t.Fatalf("best reducer rows = %d, want 1", len(rep.Rows))
	}
	bestGV, ok := rep.Rows[0].Values["best_gv"]
	if !ok || (bestGV != 20 && bestGV != 24) {
		t.Errorf("best reducer gv = %v, want a grid value", rep.Rows[0].Values)
	}
}

func TestConfigFromSettingsErrors(t *testing.T) {
	samples := func(stepS any) map[string]any {
		return map[string]any{"step_s": stepS, "samples": []any{0.2, 0.8}}
	}
	cases := []struct {
		name string
		s    experiment.Settings
		want string
	}{
		{"unknown key", experiment.Settings{"wat": 1.0}, `unknown field "wat"`},
		{"bad policy", experiment.Settings{"policy": "nope"}, "unknown policy"},
		{"bad policy type", experiment.Settings{"policy": 3.0}, "cannot unmarshal number"},
		{"bad servers", experiment.Settings{"servers": 1.5}, "cannot unmarshal number 1.5"},
		{"NaN gv", experiment.Settings{"gv": math.NaN()}, "unsupported value: NaN"},
		{"servers overflow", experiment.Settings{"servers": 1e19}, "cannot unmarshal number 10000000000000000000"},
		{"bad material", experiment.Settings{"material": "gold"}, "unknown material"},
		{"bad bool", experiment.Settings{"oracle_wax_state": 1.0}, "cannot unmarshal number"},
		{"bad trace", experiment.Settings{"trace": map[string]any{"dayz": 2.0}}, `unknown field "dayz"`},
		{"negative seed", experiment.Settings{"seed": -1.0}, "cannot unmarshal number -1"},
		{"negative trace seed", experiment.Settings{"trace": map[string]any{"seed": -1.0}}, "cannot unmarshal number -1"},
		{"bad pmt", experiment.Settings{"pmt_c": "hot"}, "cannot unmarshal string"},
		{"unknown server key", experiment.Settings{"server": map[string]any{"CPUz": 4.0}}, `unknown field "CPUz"`},
		{"horizon overflow", experiment.Settings{"horizon_min": 1e300}, "horizon_min: 1e+300 is not finite or overflows"},
		{"non-positive horizon", experiment.Settings{"horizon_min": -5.0}, "want positive minutes"},
		{"custom step overflow", experiment.Settings{"custom_trace": samples(1e300)}, "step_s: 1e+300 is not finite or overflows"},
		{"custom step below 1ns", experiment.Settings{"custom_trace": samples(1.5e-9)}, "not a whole number of nanoseconds"},
		{"unknown custom key", experiment.Settings{"custom_trace": map[string]any{"step_z": 60.0}}, `unknown field "step_z"`},
		{"bad source", experiment.Settings{"source": map[string]any{"kind": "nope"}}, "unknown source kind"},
		{"source and custom trace", experiment.Settings{
			"source":       map[string]any{"kind": "poisson", "level": 0.5, "events": 30.0},
			"custom_trace": samples(60.0),
		}, "mutually exclusive"},
		{"fault out of range", experiment.Settings{
			"faults": map[string]any{"crashes": []any{map[string]any{"server": 9.0, "at_min": 1.0}}},
		}, "out of range"},
		{"unknown fault key", experiment.Settings{"faults": map[string]any{"crashez": []any{}}}, `unknown field "crashez"`},
		{"bad mix share", experiment.Settings{"mix": []any{map[string]any{
			"Workload": map[string]any{"Name": "x", "CPUPowerW": 1.0}, "Share": -1.0,
		}}}, "must be positive"},
	}
	for _, tc := range cases {
		// Each case overlays a valid base, so errors that Validate
		// reports are reached rather than masked by a missing policy.
		s := experiment.Settings{"servers": 4, "policy": "rr"}
		for k, v := range tc.s {
			s[k] = v
		}
		_, err := configFromSettings(s)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want error containing %q", tc.name, err, tc.want)
		}
	}

	// The full vocabulary parses. Source and custom_trace exclude each
	// other, so it takes two settings maps.
	mix, err := workload.NewMix(workload.MixEntry{Workload: workload.WebSearch, Share: 1})
	if err != nil {
		t.Fatal(err)
	}
	server := thermal.PaperServer()
	server.CPUs = 2
	vocab := []experiment.Settings{{
		"servers": 8, "policy": "vmt-wa", "gv": 22.0, "wax_threshold": 0.9,
		"oracle_wax_state": true, "migration_budget_frac": 0.1,
		"inlet_c": 24.0, "inlet_stdev_c": 1.0, "seed": 3.0,
		"material": "inert", "pmt_c": 37.0, "volume_l": 5.0, "power_scale": 1.1,
		"trace":        settingValue(smallTrace()),
		"custom_trace": samples(60.0),
		"horizon_min":  90.0, "record_grids": true, "job_stream": true,
		"faults": map[string]any{"crashes": []any{
			map[string]any{"server": 1.0, "at_min": 30.0, "repair_after_min": 60.0},
		}},
		"gv_schedule":       []any{map[string]any{"at_ns": 3.6e12, "gv": 20.0}},
		"task_durations_ns": map[string]any{"VideoEncoding": 6e10},
		"mix":               settingValue(mix),
		"step_ns":           1.2e11,
	}, {
		"servers": 4, "policy": "vmt-preserve", "gv": 20.0,
		"preserve_until_ns": 3.6e12, "sacrifice_frac": 0.3,
		"server": settingValue(server),
		"pcm":    settingValue(pcm.CommercialParaffin().WithMeltTemp(36)),
		"source": map[string]any{"kind": "poisson", "level": 0.5, "events": 30.0},
		// horizon_ns is the resolved form of horizon_min.
		"horizon_ns": 3.6e12,
	}}
	// Every key a settings map can carry is covered above, so a new
	// Config field cannot go untested here.
	covered := map[string]bool{}
	for _, s := range vocab {
		for k := range s {
			covered[k] = true
		}
	}
	var keys func(reflect.Type)
	keys = func(rt reflect.Type) {
		for i := 0; i < rt.NumField(); i++ {
			f := rt.Field(i)
			name := strings.Split(f.Tag.Get("json"), ",")[0]
			switch {
			case name == "-":
			case f.Anonymous:
				keys(f.Type)
			case !covered[name]:
				t.Errorf("setting %q (field %s) is not in the full-vocabulary case", name, f.Name)
			}
		}
	}
	keys(reflect.TypeOf(pointSettings{}))

	a, err := configFromSettings(vocab[0])
	if err != nil {
		t.Fatal(err)
	}
	if a.Servers != 8 || a.Policy != PolicyVMTWA || a.GV != 22 || a.WaxThreshold.Value() != 0.9 ||
		!a.OracleWaxState || a.MigrationBudgetFrac != 0.1 || a.InletTempC.Value() != 24 ||
		a.InletStdevC != 1 || a.Seed != 3 || !a.RecordGrids || !a.JobStream {
		t.Fatalf("scalar settings lost: %+v", a)
	}
	if m := a.Material.Value(); m.Name != pcm.Inert().Name || m.MeltTempC != 37 ||
		a.Server.Value().WaxVolumeL != 5 || a.Server.Value().PowerScale != 1.1 {
		t.Fatalf("derived settings lost: %+v %+v", a.Material, a.Server)
	}
	if a.Trace.Days != 1 || a.CustomTrace.Step() != time.Minute || a.CustomTrace.Len() != 2 ||
		a.Horizon != 90*time.Minute || a.Step != 2*time.Minute {
		t.Fatalf("load settings lost: %+v", a)
	}
	if a.Faults.Crashes[0].Server != 1 || a.GVSchedule[0] != (GVChange{At: time.Hour, GV: 20}) ||
		a.TaskDurations["VideoEncoding"] != time.Minute || a.Mix.Share("WebSearch") != 1 {
		t.Fatalf("object settings lost: %+v", a)
	}
	b, err := configFromSettings(vocab[1])
	if err != nil {
		t.Fatal(err)
	}
	if b.Policy != PolicyVMTPreserve || b.PreserveUntil != time.Hour || b.SacrificeFrac.Value() != 0.3 ||
		b.Server.Value().CPUs != 2 || b.Material.Value().MeltTempC != 36 ||
		b.Source.Kind != "poisson" || b.Horizon != time.Hour {
		t.Fatalf("settings lost: %+v", b)
	}
	if cf, err := configFromSettings(experiment.Settings{"servers": 4, "policy": "cf"}); err != nil ||
		cf.Policy != PolicyCoolestFirst {
		t.Fatalf("cf shorthand: %v, %v", cf.Policy, err)
	}
}

// RunManyCached is safe under concurrent study execution; check.sh
// runs this under -race (the TestRunMany pattern matches it).
func TestRunManyCachedConcurrentStudies(t *testing.T) {
	defer runCache.SetEnabled(true)
	runCache.SetEnabled(true)
	cfg := BaselineScenario(3)
	cfg.Trace = smallTrace()
	cfg.Seed = 780
	vmtCfg := Scenario(3, PolicyVMTTA, 22)
	vmtCfg.Trace = smallTrace()
	vmtCfg.Seed = 780

	errc := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func() {
			_, err := RunManyCached([]Config{cfg, vmtCfg}, BatchOptions{})
			errc <- err
		}()
	}
	for g := 0; g < 4; g++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}

// TestConfigKeySensitivity walks Config's fields by reflection. Every
// variant of a keyed field must hash differently from the base and
// from the field's other variants; variants of a `json:"-"` field must
// hash like the base. A field without a case fails, so a new field
// cannot reach the cache key untested. The Optional, Mix and
// CustomTrace cases hold two set values each: types with only
// unexported fields encode as {} without a MarshalJSON, which would
// hash every value alike.
func TestConfigKeySensitivity(t *testing.T) {
	traceOf := func(step time.Duration, samples ...float64) *trace.Trace {
		tr, err := trace.FromSamples(samples, step)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	mixOf := func(webShare float64) *workload.Mix {
		m, err := workload.NewMix(
			workload.MixEntry{Workload: workload.WebSearch, Share: webShare},
			workload.MixEntry{Workload: workload.VirusScan, Share: 1 - webShare})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	server := func(vol float64) thermal.ServerSpec {
		s := thermal.PaperServer()
		s.WaxVolumeL = vol
		return s
	}
	type variants []func(*Config)
	cases := map[string]variants{
		"Servers":             {func(c *Config) { c.Servers = 6 }},
		"Policy":              {func(c *Config) { c.Policy = PolicyVMTWA }},
		"GV":                  {func(c *Config) { c.GV = 24 }},
		"WaxThreshold":        {func(c *Config) { c.WaxThreshold = Some(0.9) }, func(c *Config) { c.WaxThreshold = Some(0.95) }},
		"OracleWaxState":      {func(c *Config) { c.OracleWaxState = true }},
		"MigrationBudgetFrac": {func(c *Config) { c.MigrationBudgetFrac = 0.1 }},
		"GVSchedule": {
			func(c *Config) { c.GVSchedule = []GVChange{{At: time.Hour, GV: 20}} },
			func(c *Config) { c.GVSchedule = []GVChange{{At: 2 * time.Hour, GV: 20}} },
		},
		"PreserveUntil": {func(c *Config) { c.PreserveUntil = time.Hour }},
		"SacrificeFrac": {func(c *Config) { c.SacrificeFrac = Some(0.3) }, func(c *Config) { c.SacrificeFrac = Some(0.5) }},
		"Server":        {func(c *Config) { c.Server = Some(server(3)) }, func(c *Config) { c.Server = Some(server(5)) }},
		"Material": {
			func(c *Config) { c.Material = Some(pcm.Inert()) },
			func(c *Config) { c.Material = Some(pcm.CommercialParaffin().WithMeltTemp(37)) },
		},
		"InletTempC":  {func(c *Config) { c.InletTempC = Some(20.0) }, func(c *Config) { c.InletTempC = Some(24.0) }},
		"InletStdevC": {func(c *Config) { c.InletStdevC = 1 }},
		"Seed":        {func(c *Config) { c.Seed = 3 }},
		"Trace":       {func(c *Config) { c.Trace = smallTrace() }},
		"CustomTrace": {
			func(c *Config) { c.CustomTrace = traceOf(time.Minute, 0.2, 0.8) },
			func(c *Config) { c.CustomTrace = traceOf(time.Minute, 0.2, 0.7) },
			func(c *Config) { c.CustomTrace = traceOf(2*time.Minute, 0.2, 0.8) },
		},
		"Source": {
			func(c *Config) { c.Source = &workload.SourceSpec{Kind: "poisson", Level: 0.5, Events: 30} },
			func(c *Config) { c.Source = &workload.SourceSpec{Kind: "poisson", Level: 0.5, Events: 30, Seed: 1} },
		},
		"Horizon":       {func(c *Config) { c.Horizon = time.Hour }},
		"Mix":           {func(c *Config) { c.Mix = mixOf(0.5) }, func(c *Config) { c.Mix = mixOf(0.7) }},
		"Step":          {func(c *Config) { c.Step = 2 * time.Minute }},
		"RecordGrids":   {func(c *Config) { c.RecordGrids = true }},
		"JobStream":     {func(c *Config) { c.JobStream = true }},
		"TaskDurations": {func(c *Config) { c.TaskDurations = map[string]time.Duration{"VideoEncoding": time.Minute} }},
		"Faults": {
			func(c *Config) { c.Faults = &fault.Plan{Seed: 1} },
			func(c *Config) { c.Faults = &fault.Plan{Seed: 2} },
		},
		"PhysicsWorkers": {func(c *Config) { c.PhysicsWorkers = 8 }},
		"Observers": {
			func(c *Config) { c.Metrics = telemetry.NewRegistry() },
			func(c *Config) { c.Tracer = telemetry.NewRecorder() },
			func(c *Config) { c.Stream = telemetry.NewStream(telemetry.StreamOptions{}) },
			func(c *Config) { c.Fleet = telemetry.NewFleetPublisher(nil) },
			func(c *Config) { c.ProfileBands = true },
		},
	}
	key := func(c Config) string {
		k, err := configKey(c)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	base := Scenario(5, PolicyVMTTA, 22)
	baseKey := key(base)
	ct := reflect.TypeOf(Config{})
	for i := 0; i < ct.NumField(); i++ {
		f := ct.Field(i)
		vs, ok := cases[f.Name]
		if !ok {
			t.Errorf("Config.%s has no case in TestConfigKeySensitivity", f.Name)
			continue
		}
		seen := map[string]int{baseKey: -1}
		for j, mutate := range vs {
			cfg := base
			mutate(&cfg)
			k := key(cfg)
			if f.Tag.Get("json") == "-" {
				if k != baseKey {
					t.Errorf("Config.%s is tagged json:\"-\" but variant %d changed the key", f.Name, j)
				}
				continue
			}
			if prev, dup := seen[k]; dup {
				t.Errorf("Config.%s variant %d hashes like variant %d (-1 is the base)", f.Name, j, prev)
			}
			seen[k] = j
		}
	}
}

// TestResultFingerprintSensitivity: every Result field but the Config
// echo moves resultFingerprint, so a scribble on any part of a cached
// outcome is caught. A new Result field fails here until it has a case
// and the fold covers it.
func TestResultFingerprintSensitivity(t *testing.T) {
	series := func() *stats.Series {
		return &stats.Series{Start: time.Minute, Step: time.Minute, Values: []float64{1, 2, 3}}
	}
	base := func() *Result {
		return &Result{
			Config:        Scenario(2, PolicyVMTTA, 22),
			CoolingLoadW:  series(),
			TotalPowerW:   series(),
			MeanAirTempC:  series(),
			HotGroupTempC: series(),
			HotGroupSize:  series(),
			MeanMeltFrac:  series(),
			WaxEnergyJ:    series(),
			MaxCPUTempC:   series(),
			AirTempGrid:   [][]float64{{1, 2}, {3, 4}},
			MeltFracGrid:  [][]float64{{0.1, 0.2}, {0.3, 0.4}},
		}
	}
	cases := map[string]func(*Result){
		"Config":             nil,
		"CoolingLoadW":       func(r *Result) { r.CoolingLoadW.Values[1] = 5 },
		"TotalPowerW":        func(r *Result) { r.TotalPowerW.Values[1] = 5 },
		"MeanAirTempC":       func(r *Result) { r.MeanAirTempC.Values[1] = 5 },
		"HotGroupTempC":      func(r *Result) { r.HotGroupTempC.Values[1] = 5 },
		"HotGroupSize":       func(r *Result) { r.HotGroupSize.Values[1] = 5 },
		"MeanMeltFrac":       func(r *Result) { r.MeanMeltFrac.Values[1] = 5 },
		"WaxEnergyJ":         func(r *Result) { r.WaxEnergyJ.Values[1] = 5 },
		"MaxCPUTempC":        func(r *Result) { r.MaxCPUTempC.Values[1] = 5 },
		"ThrottleMinutes":    func(r *Result) { r.ThrottleMinutes = 1 },
		"TaskArrivals":       func(r *Result) { r.TaskArrivals = 1 },
		"TaskDrops":          func(r *Result) { r.TaskDrops = 1 },
		"FaultCrashes":       func(r *Result) { r.FaultCrashes = 1 },
		"FaultRepairs":       func(r *Result) { r.FaultRepairs = 1 },
		"EvacuatedJobs":      func(r *Result) { r.EvacuatedJobs = 1 },
		"LostJobs":           func(r *Result) { r.LostJobs = 1 },
		"DomainTrips":        func(r *Result) { r.DomainTrips = 1 },
		"ReportsQuarantined": func(r *Result) { r.ReportsQuarantined = 1 },
		"AirTempGrid":        func(r *Result) { r.AirTempGrid[1][0] = 5 },
		"MeltFracGrid":       func(r *Result) { r.MeltFracGrid[1][0] = 0.5 },
	}
	baseFP := resultFingerprint(base())
	rt := reflect.TypeOf(Result{})
	for i := 0; i < rt.NumField(); i++ {
		name := rt.Field(i).Name
		mutate, ok := cases[name]
		if !ok {
			t.Errorf("Result.%s has no case in TestResultFingerprintSensitivity", name)
			continue
		}
		if mutate == nil {
			continue
		}
		r := base()
		mutate(r)
		if resultFingerprint(r) == baseFP {
			t.Errorf("changing Result.%s leaves the fingerprint unchanged", name)
		}
	}
}

// FuzzConfigFromSettings drives the settings decoder with arbitrary
// JSON objects. The contract: no input panics, an accepted Config is
// Validate-clean, and the resolved Config re-encodes to settings that
// decode to the same cache key (the canonical fixpoint). The committed
// corpus holds the base and set objects of results/specs/*.json; the
// seeds below add the keys those specs never set.
func FuzzConfigFromSettings(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"servers":4,"policy":"rr","horizon_min":90,"material":"inert","pmt_c":37}`))
	f.Add([]byte(`{"servers":4,"policy":"cf","volume_l":5,"power_scale":1.1,"inlet_c":0}`))
	f.Add([]byte(`{"servers":4,"policy":"vmt-wa","gv":22,"custom_trace":{"step_s":60,"samples":[0.2,0.8,0.5]}}`))
	f.Add([]byte(`{"servers":4,"policy":"vmt-ta","gv":22,"source":{"kind":"poisson","level":0.5,"events":30},"horizon_min":60}`))
	f.Add([]byte(`{"servers":4,"policy":"vmt-preserve","gv":20,"preserve_until_ns":3600000000000,"sacrifice_frac":0.3}`))
	f.Add([]byte(`{"servers":4,"policy":"rr","mix":[{"Workload":{"Name":"WebSearch","CPUPowerW":37.2,"Class":1},"Share":2},{"Workload":{"Name":"VirusScan","CPUPowerW":3.4},"Share":6}]}`))
	f.Add([]byte(`{"servers":4,"policy":"vmt-ta","gv":22,"gv_schedule":[{"at_ns":3600000000000,"gv":20}],"step_ns":120000000000}`))
	f.Add([]byte(`{"servers":4,"policy":"rr","job_stream":true,"task_durations_ns":{"VideoEncoding":60000000000}}`))
	f.Add([]byte(`{"servers":4,"policy":"rr","trace":{"days":1,"peak_util":[0.9],"trough_util":0.2,"peak_hours":[20],"trough_hour":5,"seed":-1}}`))
	f.Add([]byte(`{"servers":1e19,"policy":"rr","horizon_min":1e300}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var s experiment.Settings
		if err := json.Unmarshal(data, &s); err != nil {
			return
		}
		cfg, err := configFromSettings(s)
		if err != nil {
			return
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("accepted %s but Validate rejects: %v", data, err)
		}
		key, err := configKey(cfg)
		if err != nil {
			t.Fatalf("accepted %s but it has no key: %v", data, err)
		}
		again, err := configFromSettings(settingValue(cfg.withDefaults()).(experiment.Settings))
		if err != nil {
			t.Fatalf("resolved form of %s does not decode: %v", data, err)
		}
		if key2, err := configKey(again); err != nil || key2 != key {
			t.Fatalf("resolved form of %s decodes to key %s (%v), want %s", data, key2, err, key)
		}
	})
}
