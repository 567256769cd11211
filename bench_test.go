package vmt

// The benchmark harness: one testing.B benchmark per table and figure
// of the paper's evaluation. Each benchmark regenerates its artifact
// from scratch and reports the headline quantity as a custom metric,
// so `go test -bench=. -benchmem` doubles as the full reproduction
// run. Sweep-style figures use trimmed parameter grids here to keep
// the run minutes-scale; cmd/vmtreport regenerates them at full
// resolution.

import (
	"io"
	"testing"
	"time"

	"vmt/internal/energy"
	"vmt/internal/pcm"
	"vmt/internal/telemetry"
	"vmt/internal/thermal"
	"vmt/internal/trace"
)

// benchServers keeps the scale-out benchmarks at the paper's sweep
// size; the 1,000-server headline runs in TestShape* and vmtreport.
const benchServers = 100

// noRunCache disables the session run cache for one test or
// benchmark, so every configuration it batches simulates fresh. Study
// benchmarks keep measuring from-scratch regeneration (their meaning
// in earlier BENCH records) instead of cache-hit time after the first
// iteration, and batch tests never compare a cached result with
// itself. The explicit Cached/Uncached pair below is the one place the
// cache itself is measured.
func noRunCache(tb testing.TB) {
	tb.Helper()
	RunCache().SetEnabled(false)
	tb.Cleanup(func() { RunCache().SetEnabled(true) })
}

func BenchmarkTable01WorkloadCatalog(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := TableIRows()
		if len(rows) != 5 {
			b.Fatal("catalog size")
		}
	}
}

func BenchmarkFig01FeasibilityRegions(b *testing.B) {
	var vmtOnly int
	for i := 0; i < b.N; i++ {
		panels, err := FeasibilityMap(5)
		if err != nil {
			b.Fatal(err)
		}
		vmtOnly = 0
		for _, p := range panels {
			for _, pt := range p.Points {
				if pt.Class.String() == "Needs VMT" {
					vmtOnly++
				}
			}
		}
	}
	b.ReportMetric(float64(vmtOnly), "needs-vmt-points")
}

func BenchmarkFig02TTSFlattening(b *testing.B) {
	var flattened float64
	for i := 0; i < b.N; i++ {
		node, err := thermal.NewNode(thermal.PaperServer(), pcm.CommercialParaffin(), 22)
		if err != nil {
			b.Fatal(err)
		}
		tr, err := trace.Generate(trace.PaperTwoDay(), time.Minute)
		if err != nil {
			b.Fatal(err)
		}
		var peakPower, peakLoad float64
		for m := 0; m <= int(tr.Duration().Minutes()); m++ {
			u := tr.At(time.Duration(m) * time.Minute)
			power := 100 + u*32*9.0
			res, err := node.Step(power, time.Minute)
			if err != nil {
				b.Fatal(err)
			}
			if power > peakPower {
				peakPower = power
			}
			if res.CoolingLoadW > peakLoad {
				peakLoad = res.CoolingLoadW
			}
		}
		flattened = (peakPower - peakLoad) / peakPower * 100
	}
	b.ReportMetric(flattened, "peak-shaved-%")
}

func BenchmarkFig06ColocationQoS(b *testing.B) {
	var p90 float64
	for i := 0; i < b.N; i++ {
		_, search, err := ColocationStudy()
		if err != nil {
			b.Fatal(err)
		}
		p90 = search[len(search)-1].Lat["2C+Caching"].P90S
	}
	b.ReportMetric(p90*1000, "search-p90-ms")
}

func BenchmarkFig07Reliability(b *testing.B) {
	noRunCache(b)
	var delta float64
	for i := 0; i < b.N; i++ {
		_, threeYr, err := ReliabilityStudy(benchServers, 22)
		if err != nil {
			b.Fatal(err)
		}
		delta = threeYr.DeltaPct
	}
	b.ReportMetric(delta, "3yr-delta-pts")
}

func BenchmarkFig08Trace(b *testing.B) {
	var peak float64
	for i := 0; i < b.N; i++ {
		tr, err := trace.Generate(trace.PaperTwoDay(), time.Minute)
		if err != nil {
			b.Fatal(err)
		}
		peak, _ = tr.Peak()
	}
	b.ReportMetric(peak*100, "peak-util-%")
}

// heatmapBench runs the 100-server grid recording for one policy and
// reports the fleet peak melt fraction.
func heatmapBench(b *testing.B, policy Policy, gv float64) {
	b.Helper()
	noRunCache(b)
	var melt float64
	for i := 0; i < b.N; i++ {
		study, err := RunHeatmapStudy(benchServers, policy, gv)
		if err != nil {
			b.Fatal(err)
		}
		melt = 0
		last := study.MeltFracGrid[len(study.MeltFracGrid)-1]
		_ = last
		for _, row := range study.MeltFracGrid {
			var sum float64
			for _, v := range row {
				sum += v
			}
			if m := sum / float64(len(row)); m > melt {
				melt = m
			}
		}
	}
	b.ReportMetric(melt*100, "peak-melt-%")
}

func BenchmarkFig09RoundRobinHeatmap(b *testing.B)   { heatmapBench(b, PolicyRoundRobin, 0) }
func BenchmarkFig10CoolestFirstHeatmap(b *testing.B) { heatmapBench(b, PolicyCoolestFirst, 0) }
func BenchmarkFig11VMTTAHeatmap(b *testing.B)        { heatmapBench(b, PolicyVMTTA, 22) }
func BenchmarkFig14VMTWAHeatmap(b *testing.B)        { heatmapBench(b, PolicyVMTWA, 20) }

func BenchmarkTable02GVMapping(b *testing.B) {
	noRunCache(b)
	var span float64
	for i := 0; i < b.N; i++ {
		rows, err := GVMapping(benchServers, []float64{20, 22, 24, 26})
		if err != nil {
			b.Fatal(err)
		}
		lo, hi := 1e9, -1e9
		for _, r := range rows {
			if !r.Melts {
				continue
			}
			if r.VMTTempC < lo {
				lo = r.VMTTempC
			}
			if r.VMTTempC > hi {
				hi = r.VMTTempC
			}
		}
		span = hi - lo
	}
	b.ReportMetric(span, "vmt-span-C")
}

// hotGroupTempBench reports the peak hot-group temperature at the best
// GV (Figures 12 and 15).
func hotGroupTempBench(b *testing.B, policy Policy) {
	b.Helper()
	var peak float64
	for i := 0; i < b.N; i++ {
		res, err := Run(Scenario(benchServers, policy, 22))
		if err != nil {
			b.Fatal(err)
		}
		peak, _, _ = res.HotGroupTempC.Peak()
	}
	b.ReportMetric(peak, "hot-peak-C")
}

func BenchmarkFig12HotGroupTempTA(b *testing.B) { hotGroupTempBench(b, PolicyVMTTA) }
func BenchmarkFig15HotGroupTempWA(b *testing.B) { hotGroupTempBench(b, PolicyVMTWA) }

// coolingLoadBench reports the GV=22 peak reduction (Figures 13/16).
func coolingLoadBench(b *testing.B, policy Policy) {
	b.Helper()
	noRunCache(b)
	var best float64
	for i := 0; i < b.N; i++ {
		study, err := RunCoolingLoadStudy(benchServers, policy, []float64{20, 22, 24})
		if err != nil {
			b.Fatal(err)
		}
		best = study.Reductions["GV=22"]
	}
	b.ReportMetric(best, "gv22-reduction-%")
}

func BenchmarkFig13CoolingLoadTA(b *testing.B) { coolingLoadBench(b, PolicyVMTTA) }
func BenchmarkFig16CoolingLoadWA(b *testing.B) { coolingLoadBench(b, PolicyVMTWA) }

func BenchmarkFig17WaxThreshold(b *testing.B) {
	noRunCache(b)
	var plateau float64
	for i := 0; i < b.N; i++ {
		pts, err := WaxThresholdSweep(benchServers, 22, []float64{0.85, 0.95, 0.98}, BatchOptions{})
		if err != nil {
			b.Fatal(err)
		}
		plateau = pts[len(pts)-1].ReductionPct
	}
	b.ReportMetric(plateau, "plateau-reduction-%")
}

func BenchmarkFig18GVSweep(b *testing.B) {
	noRunCache(b)
	var best float64
	for i := 0; i < b.N; i++ {
		pts, err := GVSweep(benchServers, PolicyVMTTA, []float64{18, 20, 22, 24, 26}, BatchOptions{})
		if err != nil {
			b.Fatal(err)
		}
		best = 0
		for _, p := range pts {
			if p.ReductionPct > best {
				best = p.ReductionPct
			}
		}
	}
	b.ReportMetric(best, "best-reduction-%")
}

// inletVariationBench uses a trimmed grid (the full Figure 19/20 grids
// run in cmd/vmtreport).
func inletVariationBench(b *testing.B, policy Policy) {
	b.Helper()
	noRunCache(b)
	var worst float64
	for i := 0; i < b.N; i++ {
		pts, err := InletVariationStudy(benchServers, policy, []float64{22}, []float64{0, 2}, 2)
		if err != nil {
			b.Fatal(err)
		}
		worst = pts[len(pts)-1].ReductionPct
	}
	b.ReportMetric(worst, "stdev2-reduction-%")
}

func BenchmarkFig19InletVariationTA(b *testing.B) { inletVariationBench(b, PolicyVMTTA) }
func BenchmarkFig20InletVariationWA(b *testing.B) { inletVariationBench(b, PolicyVMTWA) }

func BenchmarkTCOSavings(b *testing.B) {
	var savings float64
	for i := 0; i < b.N; i++ {
		study, err := RunTCOStudy(12.8)
		if err != nil {
			b.Fatal(err)
		}
		savings = study.Best.GrossCoolingSavingsUSD
	}
	b.ReportMetric(savings/1e6, "savings-M$")
}

// BenchmarkClusterStep measures the simulator's core step cost, the
// throughput limit of every scale-out experiment.
func BenchmarkClusterStep(b *testing.B) {
	cfg := Scenario(benchServers, PolicyVMTTA, 22)
	cfg.Trace = trace.PaperTwoDay()
	res, err := Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	_ = res
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(benchServers*48*60)/b.Elapsed().Seconds()/float64(b.N), "server-minutes/s")
}

// ===== Ablations (design choices called out in DESIGN.md) =====

// BenchmarkAblationWaxFeedback quantifies the wax-state feedback loop:
// VMT-WA vs VMT-TA at a GV where only feedback preserves benefit.
func BenchmarkAblationWaxFeedback(b *testing.B) {
	noRunCache(b)
	var gain float64
	for i := 0; i < b.N; i++ {
		pts, err := AblationStudy(benchServers, 20)
		if err != nil {
			b.Fatal(err)
		}
		red := map[string]float64{}
		for _, p := range pts {
			red[p.Name] = p.ReductionPct
		}
		gain = red["wa"] - red["ta"]
	}
	b.ReportMetric(gain, "wa-over-ta-pts")
}

// BenchmarkAblationOracleWaxState measures what perfect wax sensing
// would add over the per-server lookup-table estimator.
func BenchmarkAblationOracleWaxState(b *testing.B) {
	noRunCache(b)
	var delta float64
	for i := 0; i < b.N; i++ {
		def, err := PeakReductionPct(Scenario(benchServers, PolicyVMTWA, 22))
		if err != nil {
			b.Fatal(err)
		}
		cfg := Scenario(benchServers, PolicyVMTWA, 22)
		cfg.OracleWaxState = true
		oracle, err := PeakReductionPct(cfg)
		if err != nil {
			b.Fatal(err)
		}
		delta = oracle - def
	}
	b.ReportMetric(delta, "oracle-gain-pts")
}

// BenchmarkAblationPreserve exercises the wax-preserving extension on
// the warm-night scenario where it matters.
func BenchmarkAblationPreserve(b *testing.B) {
	noRunCache(b)
	var dayTwoGain float64
	for i := 0; i < b.N; i++ {
		tr := hotSecondDay(0.90)
		tr.TroughUtil = 0.62
		waD, presD := preserveDays(b, benchServers, tr, 38*time.Hour)
		dayTwoGain = presD[1] - waD[1]
	}
	b.ReportMetric(dayTwoGain, "day2-gain-pts")
}

// BenchmarkAblationTraceSharpness measures how the diurnal peak shape
// moves the headline reduction (the pre-peak melt budget).
func BenchmarkAblationTraceSharpness(b *testing.B) {
	noRunCache(b)
	var spread float64
	for i := 0; i < b.N; i++ {
		reds := make([]float64, 0, 2)
		for _, sharp := range []float64{1.0, 2.0} {
			tr := trace.PaperTwoDay()
			tr.PeakSharpness = sharp
			cfg := Scenario(benchServers, PolicyVMTTA, 22)
			cfg.Trace = tr
			red, err := PeakReductionPct(cfg)
			if err != nil {
				b.Fatal(err)
			}
			reds = append(reds, red)
		}
		spread = reds[1] - reds[0]
	}
	b.ReportMetric(spread, "sharp2-vs-1-pts")
}

// BenchmarkOversubscription validates the more-servers-same-cooling
// claim in simulation (Section V-E) with a 25% safety derate.
func BenchmarkOversubscription(b *testing.B) {
	noRunCache(b)
	var headroom float64
	for i := 0; i < b.N; i++ {
		st, err := RunOversubscriptionStudy(benchServers*2, PolicyVMTTA, 22, 0.25)
		if err != nil {
			b.Fatal(err)
		}
		if !st.FitsBudget {
			b.Fatalf("enlarged fleet violated the budget: %+v", st)
		}
		headroom = st.HeadroomPct
	}
	b.ReportMetric(headroom, "headroom-%")
}

// BenchmarkAdaptabilityAmbient quantifies the Section I motivation:
// VMT's advantage over fixed wax at a cool ambient where TTS strands.
func BenchmarkAdaptabilityAmbient(b *testing.B) {
	noRunCache(b)
	var gain float64
	for i := 0; i < b.N; i++ {
		pts, err := AmbientSweep(benchServers, []float64{20}, []float64{18, 20, 22})
		if err != nil {
			b.Fatal(err)
		}
		gain = pts[0].VMTReductionPct - pts[0].TTSReductionPct
	}
	b.ReportMetric(gain, "vmt-over-tts-pts")
}

// BenchmarkAdaptabilityDrift quantifies the lifetime-drift motivation
// at a reduced workload power level.
func BenchmarkAdaptabilityDrift(b *testing.B) {
	noRunCache(b)
	var gain float64
	for i := 0; i < b.N; i++ {
		pts, err := DriftSweep(benchServers, []float64{1.3}, []float64{18, 20, 22})
		if err != nil {
			b.Fatal(err)
		}
		gain = pts[0].VMTReductionPct - pts[0].TTSReductionPct
	}
	b.ReportMetric(gain, "vmt-over-tts-pts")
}

// BenchmarkRunMany measures parallel sweep throughput.
func BenchmarkRunMany(b *testing.B) {
	cfgs := make([]Config, 8)
	for i := range cfgs {
		cfgs[i] = Scenario(25, PolicyVMTTA, 20+float64(i))
	}
	noRunCache(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunMany(cfgs, BatchOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJobStream measures VMT's reduction under the query-level
// load model (Poisson arrivals, sampled durations) — the burstiness
// robustness check.
func BenchmarkJobStream(b *testing.B) {
	var red float64
	for i := 0; i < b.N; i++ {
		rr := BaselineScenario(benchServers)
		rr.JobStream = true
		base, err := Run(rr)
		if err != nil {
			b.Fatal(err)
		}
		cfg := Scenario(benchServers, PolicyVMTTA, 22)
		cfg.JobStream = true
		res, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		red = (base.PeakCoolingW() - res.PeakCoolingW()) / base.PeakCoolingW() * 100
	}
	b.ReportMetric(red, "jobstream-reduction-%")
}

// BenchmarkAdaptiveGV runs the day-ahead closed loop (forecast → tune
// → retune) on a regime-shift week and reports the adaptive-vs-static
// margin.
func BenchmarkAdaptiveGV(b *testing.B) {
	noRunCache(b)
	var margin float64
	for i := 0; i < b.N; i++ {
		st, err := RunAdaptiveGVStudy(benchServers, 50,
			[]float64{0.75, 0.76, 0.74, 0.95, 0.94, 0.95},
			[]float64{16, 18, 20, 22, 24})
		if err != nil {
			b.Fatal(err)
		}
		margin = st.MeanAdaptivePct - st.MeanStaticPct
	}
	b.ReportMetric(margin, "adaptive-margin-pts")
}

// BenchmarkEnergyCost prices the time-of-use cooling bill of VMT
// against round robin (the paper's closing off-peak-energy point).
func BenchmarkEnergyCost(b *testing.B) {
	noRunCache(b)
	var savings float64
	for i := 0; i < b.N; i++ {
		st, err := RunEnergyCostStudy(benchServers, 22, energy.TypicalTOU())
		if err != nil {
			b.Fatal(err)
		}
		savings = st.SavingsPct
	}
	b.ReportMetric(savings, "tou-savings-%")
}

// BenchmarkZonePlacement quantifies the paper's distribute-the-hot-
// group parenthetical: extra CRAC capacity a physically clustered hot
// group would demand.
func BenchmarkZonePlacement(b *testing.B) {
	noRunCache(b)
	var oversize float64
	for i := 0; i < b.N; i++ {
		st, err := RunZonePlacementStudy(benchServers, 5, 22)
		if err != nil {
			b.Fatal(err)
		}
		oversize = st.CRACOversizePct
	}
	b.ReportMetric(oversize, "crac-oversize-%")
}

// BenchmarkPMTSweep quantifies the melting-point purchasing cliff.
func BenchmarkPMTSweep(b *testing.B) {
	noRunCache(b)
	var cliff float64
	for i := 0; i < b.N; i++ {
		pts, err := PMTSweep(60, []float64{35.7, 40}, []float64{20, 22, 24})
		if err != nil {
			b.Fatal(err)
		}
		cliff = pts[0].ReductionPct - pts[1].ReductionPct
	}
	b.ReportMetric(cliff, "pmt-cliff-pts")
}

// BenchmarkVolumeSweep quantifies what doubling the 4 L deployment
// would buy.
func BenchmarkVolumeSweep(b *testing.B) {
	noRunCache(b)
	var gain float64
	for i := 0; i < b.N; i++ {
		pts, err := VolumeSweep(60, []float64{4, 8}, []float64{20, 22, 24})
		if err != nil {
			b.Fatal(err)
		}
		gain = pts[1].ReductionPct - pts[0].ReductionPct
	}
	b.ReportMetric(gain, "8L-over-4L-pts")
}

// BenchmarkRun is the telemetry overhead baseline: one uninstrumented
// run at the paper sweep size. BenchmarkRunTraced must stay within a
// few percent of it.
func BenchmarkRun(b *testing.B) {
	cfg := Scenario(benchServers, PolicyVMTTA, 22)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionStep runs the identical configuration through the
// resumable Session, stepped tick-by-tick — the worst case for the
// step/observe seam, since every tick pays the Step bookkeeping
// (horizon clamp, context check, stream seal scan). The acceptance
// bound against BenchmarkRun is ≤5% overhead.
func BenchmarkSessionStep(b *testing.B) {
	cfg := Scenario(benchServers, PolicyVMTTA, 22)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Open(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for !s.Done() {
			if err := s.Step(1); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := s.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunTraced runs the identical configuration with the full
// telemetry stack attached — recording tracer plus metrics registry —
// to quantify instrumentation overhead against BenchmarkRun.
func BenchmarkRunTraced(b *testing.B) {
	cfg := Scenario(benchServers, PolicyVMTTA, 22)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := cfg
		c.Tracer = telemetry.NewRecorder()
		c.Metrics = telemetry.NewRegistry()
		if _, err := Run(c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunStreamed runs the identical configuration with the
// windowed time-series stream attached, sealed windows flushing to an
// NDJSON sink — the streaming-sink overhead on BenchmarkRun. The
// acceptance bound is ≤5%; measured, the stream disappears into run
// noise (~1%): six Observe calls per tick against a 40 ms run.
func BenchmarkRunStreamed(b *testing.B) {
	cfg := Scenario(benchServers, PolicyVMTTA, 22)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := cfg
		c.Stream = telemetry.NewStream(telemetry.StreamOptions{
			Sink: telemetry.NewNDJSONSink(io.Discard),
		})
		if _, err := Run(c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunFullObservability attaches every instrument at once —
// stream, per-tick fleet NDJSON log, metrics registry, and band
// profiling — the worst-case fully-observed run. The fleet log
// dominates (it writes every server's state every tick: pure
// AppendFloat volume), and band profiling pays two runtime/metrics
// reads per span, billed to profiler_self_ns. Both are opt-in
// diagnostics, priced here so nobody discovers the bill in production.
func BenchmarkRunFullObservability(b *testing.B) {
	cfg := Scenario(benchServers, PolicyVMTTA, 22)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := cfg
		c.Metrics = telemetry.NewRegistry()
		c.Stream = telemetry.NewStream(telemetry.StreamOptions{
			Sink: telemetry.NewNDJSONSink(io.Discard),
		})
		c.Fleet = telemetry.NewFleetPublisher(telemetry.NewNDJSONFleetLog(io.Discard))
		c.ProfileBands = true
		if _, err := Run(c); err != nil {
			b.Fatal(err)
		}
	}
}

// ===== Experiment-engine run cache =====

// BenchmarkAblationStudyUncached regenerates the ablation from scratch
// every iteration (session cache disabled) — the pre-engine cost of
// the study.
func BenchmarkAblationStudyUncached(b *testing.B) {
	noRunCache(b)
	for i := 0; i < b.N; i++ {
		if _, err := AblationStudy(benchServers, 20); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationStudyCached regenerates the ablation with the
// session cache warm — what a repeated artifact pass (vmtreport
// regenerating figures that share configurations) pays per study.
func BenchmarkAblationStudyCached(b *testing.B) {
	c := RunCache()
	c.SetEnabled(true)
	c.Reset()
	b.Cleanup(c.Reset)
	if _, err := AblationStudy(benchServers, 20); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AblationStudy(benchServers, 20); err != nil {
			b.Fatal(err)
		}
	}
}

// adaptiveGVBenchArgs keeps both adaptive cache benchmarks on the same
// downsized closed loop.
func runAdaptiveGVBench(b *testing.B) {
	b.Helper()
	if _, err := RunAdaptiveGVStudy(50, 25,
		[]float64{0.75, 0.95}, []float64{18, 20, 22}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkAdaptiveGVStudyUncached runs the closed loop with the cache
// disabled: every tuning run, the static sweep, and the final
// three-way comparison all simulate.
func BenchmarkAdaptiveGVStudyUncached(b *testing.B) {
	noRunCache(b)
	for i := 0; i < b.N; i++ {
		runAdaptiveGVBench(b)
	}
}

// BenchmarkAdaptiveGVStudyCached resets the cache every iteration, so
// only the study's own internal reuse counts: the final comparison's
// round-robin base and static winner are exact hits from the static
// sweep, leaving one fresh full-trace simulation instead of three.
func BenchmarkAdaptiveGVStudyCached(b *testing.B) {
	c := RunCache()
	c.SetEnabled(true)
	b.Cleanup(c.Reset)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Reset()
		runAdaptiveGVBench(b)
	}
}
