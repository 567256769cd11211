package vmt

import (
	"fmt"
	"math"
	"testing"
	"time"

	"vmt/internal/trace"
)

// smallTrace returns a shortened single-day trace so unit tests of the
// harness stay fast; shape experiments use the full two-day trace.
func smallTrace() trace.Spec {
	s := trace.PaperTwoDay()
	s.Days = 1
	s.PeakUtil = []float64{0.95}
	s.PeakHours = []float64{20}
	return s
}

func TestConfigValidate(t *testing.T) {
	good := Scenario(10, PolicyVMTTA, 22)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"unknown policy", func(c *Config) { c.Policy = "nope" }},
		{"vmt without gv", func(c *Config) { c.GV = 0 }},
		{"zero servers", func(c *Config) { c.Servers = 0 }},
		{"negative step", func(c *Config) { c.Step = -time.Second }},
		{"bad trace", func(c *Config) { c.Trace = trace.Spec{Days: 1} }},
	}
	for _, tc := range cases {
		cfg := Scenario(10, PolicyVMTTA, 22)
		tc.mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: expected validation error", tc.name)
		}
	}
	// Baselines do not need a GV.
	if err := BaselineScenario(10).Validate(); err != nil {
		t.Errorf("round robin without GV should be valid: %v", err)
	}
}

func TestRunProducesAlignedSeries(t *testing.T) {
	cfg := BaselineScenario(5)
	cfg.Trace = smallTrace()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := res.CoolingLoadW.Len()
	if n != 24*60 {
		t.Fatalf("samples = %d, want %d", n, 24*60)
	}
	for _, s := range []int{res.TotalPowerW.Len(), res.MeanAirTempC.Len(), res.MeanMeltFrac.Len(), res.WaxEnergyJ.Len()} {
		if s != n {
			t.Fatalf("series misaligned: %d vs %d", s, n)
		}
	}
	if res.HotGroupTempC != nil {
		t.Fatal("baseline run should not report hot-group series")
	}
	if res.AirTempGrid != nil {
		t.Fatal("grids should be off by default")
	}
	if res.PeakCoolingW() <= 0 {
		t.Fatal("peak cooling should be positive")
	}
	if _, err := res.CoolingSummary(); err != nil {
		t.Fatal(err)
	}
}

func TestRunVMTReportsGroups(t *testing.T) {
	cfg := Scenario(10, PolicyVMTWA, 22)
	cfg.Trace = smallTrace()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.HotGroupTempC == nil || res.HotGroupSize == nil {
		t.Fatal("VMT run should report hot-group series")
	}
	if res.HotGroupSize.Values[0] != 6 { // 22/35.7×10 ≈ 6.2 → 6
		t.Fatalf("initial hot group = %v, want 6", res.HotGroupSize.Values[0])
	}
}

func TestRunRecordsGrids(t *testing.T) {
	cfg := BaselineScenario(4)
	cfg.Trace = smallTrace()
	cfg.RecordGrids = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.AirTempGrid) != res.CoolingLoadW.Len() {
		t.Fatalf("grid rows = %d, want %d", len(res.AirTempGrid), res.CoolingLoadW.Len())
	}
	if len(res.AirTempGrid[0]) != 4 || len(res.MeltFracGrid[0]) != 4 {
		t.Fatal("grid columns should match server count")
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := Scenario(8, PolicyVMTTA, 22)
	cfg.Trace = smallTrace()
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.CoolingLoadW.Values {
		if a.CoolingLoadW.Values[i] != b.CoolingLoadW.Values[i] {
			t.Fatalf("runs diverged at sample %d", i)
		}
	}
}

func TestRunRejectsInvalid(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("zero config should fail")
	}
	if _, err := Run(Scenario(10, PolicyVMTTA, 0)); err == nil {
		t.Fatal("VMT without GV should fail")
	}
}

// Energy sanity across the harness: total electrical input over the
// run must equal the ejected heat plus the (small) energy still parked
// in wax and server air at the end.
func TestRunEnergyAccounting(t *testing.T) {
	cfg := Scenario(6, PolicyVMTTA, 22)
	cfg.Trace = smallTrace()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stepS := res.Config.Step.Seconds()
	var inJ, outJ float64
	for i := range res.TotalPowerW.Values {
		inJ += res.TotalPowerW.Values[i] * stepS
		outJ += res.CoolingLoadW.Values[i] * stepS
	}
	residual := inJ - outJ
	// Residual = wax + air energy; bounded by a generous envelope
	// (wax capacity + air heating for the whole cluster).
	bound := 6 * (1.2e6 + 1e6)
	if residual < 0 || residual > bound {
		t.Fatalf("energy residual %v J outside [0, %v]", residual, bound)
	}
}

// ===== Shape anchors from the paper, on the 100-server sweeps =====

func TestShapeBaselinesMeltNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("full two-day cluster run")
	}
	for _, policy := range []Policy{PolicyRoundRobin, PolicyCoolestFirst} {
		res, err := Run(Scenario(100, policy, 0))
		if err != nil {
			t.Fatal(err)
		}
		peakMelt, _, _ := res.MeanMeltFrac.Peak()
		if peakMelt > 0.01 {
			t.Errorf("%s melted %.3f of the wax; the paper's baselines melt none", policy, peakMelt)
		}
		peakTemp, _, _ := res.MeanAirTempC.Peak()
		if peakTemp >= 35.7 {
			t.Errorf("%s mean air peak %.2f should stay below the melting point", policy, peakTemp)
		}
		if peakTemp < 34 {
			t.Errorf("%s mean air peak %.2f should approach the melting point", policy, peakTemp)
		}
	}
}

func TestShapeGV22IsBest(t *testing.T) {
	if testing.Short() {
		t.Skip("full two-day cluster runs")
	}
	pts, err := GVSweep(100, PolicyVMTTA, []float64{20, 22, 24}, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	red := map[float64]float64{}
	for _, p := range pts {
		red[p.GV] = p.ReductionPct
	}
	// Figure 13: GV=22 best (≈12.8%), GV=24 about two thirds (≈8.8%),
	// GV=20 melts out early (≈0).
	if !(red[22] > red[24] && red[24] > red[20]) {
		t.Fatalf("ordering wrong: %v", red)
	}
	if red[22] < 10 || red[22] > 15 {
		t.Fatalf("GV=22 reduction %.2f%% outside the paper's ballpark (12.8%%)", red[22])
	}
	if red[20] > 4 {
		t.Fatalf("GV=20 reduction %.2f%% should be near zero under VMT-TA", red[20])
	}
	ratio := red[24] / red[22]
	if ratio < 0.5 || ratio > 0.95 {
		t.Fatalf("GV=24/GV=22 ratio %.2f outside the paper's ≈0.69 ballpark", ratio)
	}
}

// PeakReductionPct's baseline is the run BaselineScenario makes, so
// with that run and the policy run cached it simulates nothing.
func TestPeakReductionPctReusesBaselineScenario(t *testing.T) {
	defer runCache.SetEnabled(true)
	runCache.SetEnabled(true)
	runCache.Reset()
	cfg := Scenario(10, PolicyVMTTA, 22)
	cfg.Trace = smallTrace()
	base := BaselineScenario(10)
	base.Trace = smallTrace()
	if _, err := RunMany([]Config{base, cfg}, BatchOptions{}); err != nil {
		t.Fatal(err)
	}
	_, before := runCache.Stats()
	if _, err := PeakReductionPct(cfg); err != nil {
		t.Fatal(err)
	}
	if _, after := runCache.Stats(); after != before {
		t.Fatalf("PeakReductionPct simulated %d run(s) the cache already held", after-before)
	}
}

func TestShapeWARecoversLowGV(t *testing.T) {
	if testing.Short() {
		t.Skip("full two-day cluster runs")
	}
	ta, err := PeakReductionPct(Scenario(100, PolicyVMTTA, 20))
	if err != nil {
		t.Fatal(err)
	}
	wa, err := PeakReductionPct(Scenario(100, PolicyVMTWA, 20))
	if err != nil {
		t.Fatal(err)
	}
	// Figure 16: at GV=20 the wax-aware policy retains meaningful
	// benefit where thermal-aware loses it.
	if wa <= ta {
		t.Fatalf("VMT-WA (%.2f%%) should beat VMT-TA (%.2f%%) at GV=20", wa, ta)
	}
	if wa < 2 {
		t.Fatalf("VMT-WA at GV=20 should retain real benefit, got %.2f%%", wa)
	}
}

func TestShapeWaxThresholdPlateau(t *testing.T) {
	if testing.Short() {
		t.Skip("full two-day cluster runs")
	}
	pts, err := WaxThresholdSweep(100, 22, []float64{0.85, 0.95, 0.98}, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Figure 17: thresholds ≥0.95 reach the plateau.
	at := func(th float64) float64 {
		for _, p := range pts {
			if p.WaxThreshold == th {
				return p.ReductionPct
			}
		}
		t.Fatalf("missing threshold %v", th)
		return 0
	}
	if math.Abs(at(0.95)-at(0.98)) > 1.5 {
		t.Fatalf("0.95 (%.2f%%) and 0.98 (%.2f%%) should sit on the same plateau",
			at(0.95), at(0.98))
	}
	if at(0.85) > at(0.98)+0.5 {
		t.Fatalf("a low threshold (%.2f%%) should not beat the plateau (%.2f%%)",
			at(0.85), at(0.98))
	}
}

func TestGVMappingMonotone(t *testing.T) {
	if testing.Short() {
		t.Skip("full two-day cluster runs")
	}
	rows, err := GVMapping(100, []float64{20, 22, 24, 26})
	if err != nil {
		t.Fatal(err)
	}
	prev := -math.MaxFloat64
	for _, r := range rows {
		if !r.Melts {
			continue
		}
		if r.VMTTempC < prev {
			t.Fatalf("mapping not monotone at GV=%v: %v < %v", r.GV, r.VMTTempC, prev)
		}
		prev = r.VMTTempC
		if r.VMTTempC > 35.7 || r.VMTTempC < 25 {
			t.Fatalf("VMT %v out of the physically sensible band", r.VMTTempC)
		}
	}
}

func TestFeasibilityMapPanels(t *testing.T) {
	panels, err := FeasibilityMap(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(panels) != 6 {
		t.Fatalf("panels = %d, want 6", len(panels))
	}
	for _, p := range panels {
		if len(p.Points) != 11 {
			t.Fatalf("%s: points = %d, want 11", p.Name, len(p.Points))
		}
	}
}

func TestColocationStudyRuns(t *testing.T) {
	caching, search, err := ColocationStudy()
	if err != nil {
		t.Fatal(err)
	}
	if len(caching) == 0 || len(search) == 0 {
		t.Fatal("empty colocation curves")
	}
}

func TestReliabilityStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("full two-day cluster run")
	}
	six, three, err := ReliabilityStudy(100, 22)
	if err != nil {
		t.Fatal(err)
	}
	if six.Months != 6 || three.Months != 36 {
		t.Fatalf("horizons wrong: %d, %d", six.Months, three.Months)
	}
	// Figure 7: the delta is small positive.
	if three.DeltaPct <= 0 || three.DeltaPct > 3 {
		t.Fatalf("3-year delta %.2f%% outside the paper's small-positive band", three.DeltaPct)
	}
}

func TestTCOStudyPaperNumbers(t *testing.T) {
	study, err := RunTCOStudy(12.8)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(study.Best.GrossCoolingSavingsUSD-2_688_000) > 1 {
		t.Fatalf("gross savings %v, want $2.688M", study.Best.GrossCoolingSavingsUSD)
	}
	if study.Best.ExtraServers != 7339 {
		t.Fatalf("extra servers %d, want 7339", study.Best.ExtraServers)
	}
	if math.Abs(study.Conservative.GrossCoolingSavingsUSD-1_260_000) > 1 {
		t.Fatalf("conservative savings %v, want $1.26M", study.Conservative.GrossCoolingSavingsUSD)
	}
	if study.NParaffinUSD < 4*study.Best.GrossCoolingSavingsUSD {
		t.Fatalf("n-paraffin (%v) should cost several times the VMT savings", study.NParaffinUSD)
	}
}

func TestCoolingLoadStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("full two-day cluster runs")
	}
	study, err := RunCoolingLoadStudy(100, PolicyVMTTA, []float64{22})
	if err != nil {
		t.Fatal(err)
	}
	if study.Baseline.Len() == 0 || study.Coolest.Len() == 0 {
		t.Fatal("missing baseline series")
	}
	if _, ok := study.ByGV[22]; !ok {
		t.Fatal("missing GV=22 series")
	}
	if study.Reductions["Round Robin"] != 0 {
		t.Fatal("round robin reduction must be zero by definition")
	}
	if math.Abs(study.Reductions["Coolest First"]) > 2 {
		t.Fatalf("coolest first should be ≈0, got %v", study.Reductions["Coolest First"])
	}
	if study.Reductions["GV=22"] < 8 {
		t.Fatalf("GV=22 reduction too small: %v", study.Reductions["GV=22"])
	}
}

func TestHeatmapStudy(t *testing.T) {
	cfg := smallTrace()
	_ = cfg
	study, err := RunHeatmapStudy(10, PolicyVMTTA, 22)
	if err != nil {
		t.Fatal(err)
	}
	if len(study.AirTempGrid) == 0 || len(study.AirTempGrid[0]) != 10 {
		t.Fatal("grid shape wrong")
	}
}

func TestInletVariationStudyRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("many full cluster runs")
	}
	pts, err := InletVariationStudy(50, PolicyVMTTA, []float64{22}, []float64{0, 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d, want 2", len(pts))
	}
	if _, err := InletVariationStudy(10, PolicyVMTTA, nil, nil, 0); err == nil {
		t.Fatal("zero runs should fail")
	}
}

// The CFD constraint behind the 4.0 L wax figure: no server throttles,
// even under VMT's concentrated hot-group placement.
func TestShapeVMTNeverThrottles(t *testing.T) {
	if testing.Short() {
		t.Skip("full two-day cluster runs")
	}
	for _, policy := range []Policy{PolicyVMTTA, PolicyVMTWA} {
		res, err := Run(Scenario(100, policy, 20)) // hottest realistic grouping
		if err != nil {
			t.Fatal(err)
		}
		if res.ThrottleMinutes != 0 {
			t.Errorf("%s: %d throttling minutes", policy, res.ThrottleMinutes)
		}
		peak, _, _ := res.MaxCPUTempC.Peak()
		if peak >= 85 {
			t.Errorf("%s: peak die temp %.1f °C at the limit", policy, peak)
		}
		if peak < 40 {
			t.Errorf("%s: peak die temp %.1f °C implausibly low", policy, peak)
		}
	}
}

// Query-level robustness: under discrete Poisson arrivals with task
// durations (instead of fluid load), VMT still delivers a substantial
// peak reduction, and drops stay negligible and placement-independent.
func TestShapeJobStreamRobustness(t *testing.T) {
	if testing.Short() {
		t.Skip("full two-day cluster runs")
	}
	rr := BaselineScenario(100)
	rr.JobStream = true
	base, err := Run(rr)
	if err != nil {
		t.Fatal(err)
	}
	if base.TaskArrivals == 0 {
		t.Fatal("no task arrivals recorded")
	}
	dropRate := float64(base.TaskDrops) / float64(base.TaskArrivals)
	if dropRate > 0.005 {
		t.Fatalf("drop rate %.4f implausibly high for a provisioned cluster", dropRate)
	}
	cfg := Scenario(100, PolicyVMTTA, 22)
	cfg.JobStream = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	red := (base.PeakCoolingW() - res.PeakCoolingW()) / base.PeakCoolingW() * 100
	if red < 5 {
		t.Fatalf("job-stream reduction %.2f%% too small; burstiness should not erase VMT", red)
	}
	// Same seed, same arrival stream: drops are placement-independent
	// (the cluster-wide occupancy is what fills up).
	if res.TaskDrops != base.TaskDrops {
		t.Fatalf("drops changed with placement: %d vs %d", res.TaskDrops, base.TaskDrops)
	}
}

func TestJobStreamDeterministic(t *testing.T) {
	cfg := Scenario(8, PolicyVMTTA, 22)
	cfg.Trace = smallTrace()
	cfg.JobStream = true
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.TaskArrivals != b.TaskArrivals || a.TaskDrops != b.TaskDrops {
		t.Fatalf("arrival stream diverged: (%d,%d) vs (%d,%d)",
			a.TaskArrivals, a.TaskDrops, b.TaskArrivals, b.TaskDrops)
	}
	for i := range a.CoolingLoadW.Values {
		if a.CoolingLoadW.Values[i] != b.CoolingLoadW.Values[i] {
			t.Fatalf("series diverged at %d", i)
		}
	}
}

func TestJobStreamCustomDurations(t *testing.T) {
	cfg := BaselineScenario(5)
	cfg.Trace = smallTrace()
	cfg.JobStream = true
	cfg.TaskDurations = map[string]time.Duration{"VideoEncoding": 3 * time.Minute}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TaskArrivals == 0 {
		t.Fatal("custom-duration stream produced no arrivals")
	}
}

// The fusion-scaled Table II derivation (the paper's literal
// procedure) corroborates the onset-equivalence mapping: a monotone
// GV ↔ virtual-melting-temperature relationship that saturates once
// TTS either cannot melt (ΔPMT ≥ 0) or melts out far before the peak
// (ΔPMT ≤ −4).
func TestGVMappingFusionMonotone(t *testing.T) {
	if testing.Short() {
		t.Skip("many full cluster runs")
	}
	rows, err := GVMappingFusion(100, []float64{0, -2, -3, -4},
		[]float64{16, 18, 20, 22, 24, 26, 28, 30})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Deltas are descending, so matched GVs must be non-increasing
	// (lower virtual melting temperature ↔ smaller, hotter hot group).
	for i := 1; i < len(rows); i++ {
		if rows[i].GV > rows[i-1].GV {
			t.Fatalf("mapping not monotone: ΔPMT %v → GV %v after ΔPMT %v → GV %v",
				rows[i].DeltaPMTC, rows[i].GV, rows[i-1].DeltaPMTC, rows[i-1].GV)
		}
	}
	// The interior rows must actually match energies (within 20%).
	mid := rows[1] // ΔPMT −2
	if mid.TTSEnergyMJ <= 0 || mid.VMTEnergyMJ <= 0 {
		t.Fatalf("interior row has no stored energy: %+v", mid)
	}
	gap := mid.TTSEnergyMJ / mid.VMTEnergyMJ
	if gap < 0.7 || gap > 1.4 {
		t.Fatalf("interior energies poorly matched: %+v", mid)
	}
}

func TestGVMappingFusionValidation(t *testing.T) {
	if _, err := GVMappingFusion(10, nil, []float64{20}); err == nil {
		t.Fatal("empty deltas should fail")
	}
	if _, err := GVMappingFusion(10, []float64{0}, nil); err == nil {
		t.Fatal("empty grid should fail")
	}
}

// The headline at the paper's scale: 1,000 servers, two-day trace,
// GV=22, both policies within a point of the published 12.8%. The
// three runs are also pinned bit for bit by their resultFingerprint:
// the other golden fixtures run 8 servers, below the cluster size at
// which placement switches from linear scans to the placement index,
// so this is the tier-1 check that the index makes the same decisions.
func TestHeadline1000Servers(t *testing.T) {
	if testing.Short() {
		t.Skip("three 1,000-server two-day runs")
	}
	baseline, err := Run(BaselineScenario(1000))
	if err != nil {
		t.Fatal(err)
	}
	fingerprints := map[Policy]string{PolicyRoundRobin: fmt.Sprintf("%016x", resultFingerprint(baseline))}
	budget := baseline.PeakCoolingW()
	peakMelt, _, _ := baseline.MeanMeltFrac.Peak()
	if peakMelt > 0.01 {
		t.Fatalf("TTS baseline melted %.3f of the wax at scale", peakMelt)
	}
	for _, policy := range []Policy{PolicyVMTTA, PolicyVMTWA} {
		res, err := Run(Scenario(1000, policy, 22))
		if err != nil {
			t.Fatal(err)
		}
		red := (budget - res.PeakCoolingW()) / budget * 100
		if red < 11 || red > 14 {
			t.Errorf("%s at 1,000 servers: %.2f%% outside the 12.8%% ballpark", policy, red)
		}
		if res.ThrottleMinutes != 0 {
			t.Errorf("%s throttled for %d minutes at scale", policy, res.ThrottleMinutes)
		}
		fingerprints[policy] = fmt.Sprintf("%016x", resultFingerprint(res))
	}
	goldenCompare(t, "headline_1000_fingerprints.json", fingerprints, func(got, want map[Policy]string) string {
		if len(got) != len(want) {
			return fmt.Sprintf("policies: %d, want %d", len(got), len(want))
		}
		for _, p := range []Policy{PolicyRoundRobin, PolicyVMTTA, PolicyVMTWA} {
			if got[p] != want[p] {
				return fmt.Sprintf("%s: fingerprint %s, want %s", p, got[p], want[p])
			}
		}
		return ""
	})
}

// The purchasing decision: reduction collapses as the wax melting
// point rises away from the achievable hot-group temperatures —
// why the paper buys the lowest commercial melting point.
func TestPMTSweepCliff(t *testing.T) {
	if testing.Short() {
		t.Skip("many full cluster runs")
	}
	pts, err := PMTSweep(60, []float64{35.7, 38.5, 41}, []float64{18, 20, 22, 24})
	if err != nil {
		t.Fatal(err)
	}
	if !(pts[0].ReductionPct > pts[1].ReductionPct && pts[1].ReductionPct > pts[2].ReductionPct) {
		t.Fatalf("reduction should fall with melting point: %+v", pts)
	}
	if pts[0].ReductionPct < 9 {
		t.Fatalf("paper wax should be strong, got %.1f%%", pts[0].ReductionPct)
	}
	if pts[2].ReductionPct > 2 {
		t.Fatalf("41 °C wax should be stranded, got %.1f%%", pts[2].ReductionPct)
	}
}

// The capacity decision: reduction grows with wax volume while the
// peak window outlasts storage, then saturates — the CFD-limited 4 L
// already captures most of the benefit.
func TestVolumeSweepSaturates(t *testing.T) {
	if testing.Short() {
		t.Skip("many full cluster runs")
	}
	pts, err := VolumeSweep(60, []float64{1, 4, 8}, []float64{18, 20, 22, 24})
	if err != nil {
		t.Fatal(err)
	}
	if !(pts[0].ReductionPct < pts[1].ReductionPct) {
		t.Fatalf("1 L should underperform 4 L: %+v", pts)
	}
	gain := pts[2].ReductionPct - pts[1].ReductionPct
	if gain < 0 {
		t.Fatalf("more wax should not hurt: %+v", pts)
	}
	if gain > pts[1].ReductionPct {
		t.Fatalf("doubling volume should show diminishing returns: %+v", pts)
	}
}

func TestMaterialSweepValidation(t *testing.T) {
	if _, err := PMTSweep(10, nil, []float64{22}); err == nil {
		t.Fatal("empty temps should fail")
	}
	if _, err := VolumeSweep(10, []float64{4}, nil); err == nil {
		t.Fatal("empty grid should fail")
	}
}
