package vmt

import (
	"fmt"
	"math"
	"time"

	"vmt/internal/cooling"
	"vmt/internal/experiment"
	"vmt/internal/feasibility"
	"vmt/internal/pcm"
	"vmt/internal/qos"
	"vmt/internal/reliability"
	"vmt/internal/stats"
	"vmt/internal/tco"
	"vmt/internal/workload"
)

// This file hosts the experiment harness: one entry point per table
// and figure of the paper's evaluation, each returning plain data that
// cmd/vmtreport renders and bench_test.go regenerates.

// PeakReductionPct runs the policy and returns its peak cooling-load
// reduction against a round-robin baseline on an otherwise identical
// configuration. Its GV is 0, as in BaselineScenario, so the run cache
// shares that run (round robin reads no GV).
func PeakReductionPct(cfg Config) (float64, error) {
	base := cfg
	base.Policy, base.GV = PolicyRoundRobin, 0
	runs, err := RunMany([]Config{base, cfg}, BatchOptions{})
	if err != nil {
		return 0, err
	}
	return cooling.PeakReductionPct(runs[0].CoolingLoadW, runs[1].CoolingLoadW)
}

// GVSweepPoint is one sample of the Figure 18 sweep.
type GVSweepPoint struct {
	GV           float64
	ReductionPct float64
}

// GVSweep reproduces the Figure 18 axis: peak cooling load reduction
// versus GV for one policy, against a shared round-robin baseline. The
// baseline and the points run as one RunMany batch, tagged by batch
// index: the baseline is run 0 and point i is run i+1. A configuration
// the run cache answers does not run, so a batch tracer sees no run
// with its index.
func GVSweep(servers int, policy Policy, gvs []float64, opts BatchOptions) ([]GVSweepPoint, error) {
	sr, err := RunSpecResults(GVSweepSpec(servers, policy, gvs), opts)
	if err != nil {
		return nil, err
	}
	out := make([]GVSweepPoint, 0, len(gvs))
	for i, gv := range gvs {
		red, err := sr.pointReduction(i)
		if err != nil {
			return nil, err
		}
		out = append(out, GVSweepPoint{GV: gv, ReductionPct: red})
	}
	return out, nil
}

// ThresholdSweepPoint is one sample of the Figure 17 sweep.
type ThresholdSweepPoint struct {
	WaxThreshold float64
	ReductionPct float64
}

// WaxThresholdSweep reproduces Figure 17: VMT-WA peak reduction as the
// wax threshold varies (paper: 100 servers, GV=22, thresholds 0.85–1).
func WaxThresholdSweep(servers int, gv float64, thresholds []float64, opts BatchOptions) ([]ThresholdSweepPoint, error) {
	sr, err := RunSpecResults(WaxThresholdSweepSpec(servers, gv, thresholds), opts)
	if err != nil {
		return nil, err
	}
	out := make([]ThresholdSweepPoint, 0, len(thresholds))
	for i, th := range thresholds {
		red, err := sr.pointReduction(i)
		if err != nil {
			return nil, err
		}
		out = append(out, ThresholdSweepPoint{WaxThreshold: th, ReductionPct: red})
	}
	return out, nil
}

// InletVariationPoint is one sample of the Figure 19/20 sweeps.
type InletVariationPoint struct {
	GV           float64
	StdevC       float64
	ReductionPct float64 // mean over the runs
}

// InletVariationStudy reproduces Figures 19 and 20: peak reduction
// versus GV under normally distributed inlet temperature variation,
// averaged over runs seeded differently (the paper averages 5 runs of
// 100 servers).
func InletVariationStudy(servers int, policy Policy, gvs, stdevs []float64, runs int) ([]InletVariationPoint, error) {
	if runs <= 0 {
		return nil, fmt.Errorf("vmt: need at least one run")
	}
	if len(stdevs) == 0 || len(gvs) == 0 {
		return nil, nil
	}
	// The grid expands stdev-outer, gv, seed-fastest, and the baseline
	// varies with (stdev, seed) only — one baseline per inlet draw,
	// shared across the GV axis. The seed-order accumulation below
	// reproduces the original sequential sums exactly.
	sr, err := RunSpecResults(InletVariationSpec(servers, policy, gvs, stdevs, runs), BatchOptions{})
	if err != nil {
		return nil, err
	}
	var out []InletVariationPoint
	for si, sd := range stdevs {
		for gi, gv := range gvs {
			var sum float64
			for r := 0; r < runs; r++ {
				i := (si*len(gvs)+gi)*runs + r
				red, err := sr.pointReduction(i)
				if err != nil {
					return nil, err
				}
				sum += red
			}
			out = append(out, InletVariationPoint{GV: gv, StdevC: sd, ReductionPct: sum / float64(runs)})
		}
	}
	return out, nil
}

// GVMappingRow is one row of the Table II reproduction.
type GVMappingRow struct {
	GV float64
	// VMTTempC is the virtual melting temperature: the physical
	// melting point a passive TTS deployment would have needed for
	// its wax to begin melting at the same time VMT-TA(GV) begins
	// melting (onset equivalence).
	VMTTempC float64
	// DeltaPMTC is VMTTempC − the physical 35.7 °C.
	DeltaPMTC float64
	// Melts reports whether this GV melted any wax at all within the
	// trace; rows with Melts=false have no finite VMT.
	Melts bool
}

// GVMapping experimentally derives the GV → virtual-melting-temperature
// mapping (Table II) for the test datacenter. For each GV it runs
// VMT-TA, finds the first instant wax melts, and reads the virtual
// melting temperature off the round-robin cluster's mean air
// temperature at that instant — the PMT a passive deployment would
// have needed to start storing heat at the same time.
//
// Note on direction: with Equation 1 as printed (hot group grows with
// GV), larger GVs give cooler hot groups, later onsets, and therefore
// *higher* virtual melting temperatures; the printed Table II runs the
// opposite way, which is only consistent if its GV column sizes the
// cold group. See EXPERIMENTS.md for the full discussion.
func GVMapping(servers int, gvs []float64) ([]GVMappingRow, error) {
	// One batch: the baseline plus every GV point. Each run is
	// deterministic, so the concurrent batch returns exactly what the
	// sequential loop produced (and shares the decoded trace and
	// material tables across points).
	cfgs := make([]Config, 0, len(gvs)+1)
	cfgs = append(cfgs, BaselineScenario(servers))
	for _, gv := range gvs {
		cfgs = append(cfgs, Scenario(servers, PolicyVMTTA, gv))
	}
	runs, err := RunMany(cfgs, BatchOptions{})
	if err != nil {
		return nil, err
	}
	baseline := runs[0]
	rows := make([]GVMappingRow, 0, len(gvs))
	for k, gv := range gvs {
		res := runs[k+1]
		row := GVMappingRow{GV: gv}
		for i, frac := range res.MeanMeltFrac.Values {
			if frac > 1e-4 {
				row.Melts = true
				row.VMTTempC = baseline.MeanAirTempC.Values[i]
				row.DeltaPMTC = row.VMTTempC - res.Config.Material.Value().MeltTempC
				break
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FeasibilityPanel is one Figure 1 panel.
type FeasibilityPanel struct {
	Name   string
	Points []feasibility.Point
}

// FeasibilityMap reproduces Figure 1: the six pairwise-mix panels
// classified into VMT/TTS, Needs VMT, and Neither bands.
func FeasibilityMap(stepPct float64) ([]FeasibilityPanel, error) {
	params := feasibility.PaperParams()
	var out []FeasibilityPanel
	for _, pair := range feasibility.PaperPairs() {
		pts, err := params.Sweep(pair.A, pair.B, stepPct)
		if err != nil {
			return nil, err
		}
		out = append(out, FeasibilityPanel{Name: pair.Name, Points: pts})
	}
	return out, nil
}

// ColocationStudy reproduces Figure 6: the caching and search latency
// curves under colocation.
func ColocationStudy() ([]qos.CachingPoint, []qos.SearchPoint, error) {
	f := qos.PaperFixture()
	caching, err := f.CachingCurves(nil)
	if err != nil {
		return nil, nil, err
	}
	search, err := f.SearchCurves(nil)
	if err != nil {
		return nil, nil, err
	}
	return caching, search, nil
}

// ReliabilityStudy reproduces Figure 7. It runs a short VMT-WA
// simulation to extract representative hot-group, cold-group, and
// fleet-mean temperatures, then evaluates the MTBF model over 6- and
// 36-month horizons under the paper's 20%/month rotation.
func ReliabilityStudy(servers int, gv float64) (sixMo, threeYr reliability.Comparison, err error) {
	runs, err := RunMany([]Config{Scenario(servers, PolicyVMTWA, gv)}, BatchOptions{})
	if err != nil {
		return
	}
	res := runs[0]
	hot := res.HotGroupTempC.Mean()
	mean := res.MeanAirTempC.Mean()
	// Cold-group mean follows from the fleet decomposition:
	// mean = f·hot + (1−f)·cold with f the average hot-group share.
	f := res.HotGroupSize.Mean() / float64(servers)
	cold := (mean - f*hot) / (1 - f)
	model := reliability.PaperModel()
	rot := reliability.PaperRotation(hot, cold)
	if sixMo, err = reliability.Compare(model, mean, rot, 6); err != nil {
		return
	}
	threeYr, err = reliability.Compare(model, mean, rot, 36)
	return
}

// TCOStudy reproduces the Section V-E analysis for a measured peak
// cooling reduction: the full-reduction and conservative outcomes plus
// the n-paraffin counterfactual.
type TCOStudy struct {
	Params          tco.Params
	Best            tco.Outcome
	Conservative    tco.Outcome
	NParaffinUSD    float64
	CommercialUSD   float64
	ConservativePct float64
}

// RunTCOStudy evaluates the cooling-oversubscription economics at the
// given measured reduction, with the paper's conservative 6% variant.
func RunTCOStudy(reductionPct float64) (TCOStudy, error) {
	p := tco.PaperParams()
	best, err := tco.Evaluate(p, reductionPct)
	if err != nil {
		return TCOStudy{}, err
	}
	const conservative = 6.0
	cons, err := tco.Evaluate(p, conservative)
	if err != nil {
		return TCOStudy{}, err
	}
	nCost, err := tco.NParaffinAlternativeCostUSD(p, 30)
	if err != nil {
		return TCOStudy{}, err
	}
	return TCOStudy{
		Params:          p,
		Best:            best,
		Conservative:    cons,
		NParaffinUSD:    nCost,
		CommercialUSD:   p.WaxDeploymentCostUSD(),
		ConservativePct: conservative,
	}, nil
}

// TableIRows returns the workload catalog in the paper's format.
func TableIRows() []workload.Workload { return workload.TableI() }

// CoolingLoadStudy bundles the Figure 13/16 content: the baseline and
// per-GV cooling-load series plus the peak-reduction bar values.
type CoolingLoadStudy struct {
	Servers  int
	Policy   Policy
	Baseline *stats.Series // round robin
	Coolest  *stats.Series // coolest first
	// ByGV is keyed by the caller's GV sweep values, copied verbatim.
	ByGV       map[float64]*stats.Series //vmtlint:allow floatkey keys are verbatim copies of the gvs slice, never computed
	Reductions map[string]float64        // bar chart: name → percent
}

// RunCoolingLoadStudy regenerates Figure 13 (policy=VMTTA) or Figure 16
// (policy=VMTWA): cooling-load series for round robin, coolest first,
// and the policy at each GV, plus peak reductions relative to round
// robin.
func RunCoolingLoadStudy(servers int, policy Policy, gvs []float64) (*CoolingLoadStudy, error) {
	sr, err := RunSpecResults(CoolingLoadSpec(servers, policy, gvs), BatchOptions{})
	if err != nil {
		return nil, err
	}
	rr := sr.Baselines[0]
	cf := sr.Results[0] // case "cf" leads the variant axis
	study := &CoolingLoadStudy{
		Servers:    servers,
		Policy:     policy,
		Baseline:   rr.CoolingLoadW,
		Coolest:    cf.CoolingLoadW,
		ByGV:       make(map[float64]*stats.Series), //vmtlint:allow floatkey keys are verbatim copies of the gvs slice, never computed
		Reductions: make(map[string]float64),
	}
	redCF, err := cooling.PeakReductionPct(rr.CoolingLoadW, cf.CoolingLoadW)
	if err != nil {
		return nil, err
	}
	study.Reductions["Round Robin"] = 0
	study.Reductions["Coolest First"] = redCF
	for i, gv := range gvs {
		res := sr.Results[i+1]
		study.ByGV[gv] = res.CoolingLoadW
		red, err := cooling.PeakReductionPct(rr.CoolingLoadW, res.CoolingLoadW)
		if err != nil {
			return nil, err
		}
		study.Reductions[fmt.Sprintf("GV=%g", gv)] = red
	}
	return study, nil
}

// HeatmapStudy bundles one of the Figures 9–11/14 heat-map pairs.
type HeatmapStudy struct {
	Policy Policy
	GV     float64
	// AirTempGrid and MeltFracGrid are [sample][server].
	AirTempGrid, MeltFracGrid [][]float64
	Step                      time.Duration
}

// RunHeatmapStudy records the per-server air temperature and wax state
// grids for one policy on the paper's 100-server sub-cluster.
func RunHeatmapStudy(servers int, policy Policy, gv float64) (*HeatmapStudy, error) {
	cfg := Scenario(servers, policy, gv)
	cfg.RecordGrids = true
	runs, err := RunMany([]Config{cfg}, BatchOptions{})
	if err != nil {
		return nil, err
	}
	res := runs[0]
	return &HeatmapStudy{
		Policy:       policy,
		GV:           gv,
		AirTempGrid:  res.AirTempGrid,
		MeltFracGrid: res.MeltFracGrid,
		Step:         res.Config.Step,
	}, nil
}

// FusionMappingRow is one row of the fusion-scaled Table II
// derivation.
type FusionMappingRow struct {
	// DeltaPMTC and PMTC describe the swept physical melting point.
	DeltaPMTC, PMTC float64
	// GV is the grouping value whose VMT-TA run best matches the
	// swept-PMT TTS run on peak stored wax energy; TTSEnergyMJ and
	// VMTEnergyMJ are the two matched peaks.
	GV                       float64
	TTSEnergyMJ, VMTEnergyMJ float64
}

// GVMappingFusion derives the Table II mapping by the paper's literal
// procedure: sweep the physical melting temperature above and below
// 35.7 °C with the heat of fusion scaled to the hot group's storage
// (fusion × GV/PMT, the hot-group fraction), run passive TTS with that
// hypothetical wax, and find the GV whose VMT-TA deployment of the
// *real* wax stores the closest peak wax energy — the thermal battery
// the two systems must match for equivalent behavior.
func GVMappingFusion(servers int, deltas, gvGrid []float64) ([]FusionMappingRow, error) {
	if len(deltas) == 0 || len(gvGrid) == 0 {
		return nil, fmt.Errorf("vmt: need PMT deltas and a GV grid")
	}
	peakEnergyMJ := func(res *Result) float64 {
		e, _, err := res.WaxEnergyJ.Peak()
		if err != nil {
			return 0
		}
		return e / 1e6
	}
	// One batch: VMT-TA at every grid GV, then per delta a passive TTS
	// run per grid GV, its wax's fusion scaled to the hot group's share.
	mat := pcm.CommercialParaffin()
	cfgs := make([]Config, 0, len(gvGrid)*(1+len(deltas)))
	for _, gv := range gvGrid {
		cfgs = append(cfgs, Scenario(servers, PolicyVMTTA, gv))
	}
	for _, delta := range deltas {
		for _, gv := range gvGrid {
			frac := gv / mat.MeltTempC
			if frac > 1 {
				frac = 1
			}
			cfg := BaselineScenario(servers)
			cfg.Material = Some(mat.WithMeltTemp(mat.MeltTempC + delta).
				WithLatentHeat(mat.LatentHeatJPerKg * frac))
			cfgs = append(cfgs, cfg)
		}
	}
	runs, err := RunMany(cfgs, BatchOptions{})
	if err != nil {
		return nil, err
	}
	rows := make([]FusionMappingRow, 0, len(deltas))
	for di, delta := range deltas {
		bestRow := FusionMappingRow{DeltaPMTC: delta, PMTC: mat.MeltTempC + delta}
		bestGap := math.Inf(1)
		for i, gv := range gvGrid {
			vmtE := peakEnergyMJ(runs[i])
			ttsE := peakEnergyMJ(runs[(1+di)*len(gvGrid)+i])
			if gap := math.Abs(ttsE - vmtE); gap < bestGap {
				bestGap = gap
				bestRow.GV = gv
				bestRow.TTSEnergyMJ = ttsE
				bestRow.VMTEnergyMJ = vmtE
			}
		}
		rows = append(rows, bestRow)
	}
	return rows, nil
}

// FaultStudyRow is one (failure rate, policy) sample of the fault
// study.
type FaultStudyRow struct {
	RatePerHour float64
	Policy      Policy
	// ReductionPct is the peak cooling reduction against a round-robin
	// baseline experiencing the same injected fault plan.
	ReductionPct float64
	// DropPct is Result.TaskDrops per 100 task arrivals — the QoS
	// degradation the paper warns undersized groups cause, here
	// aggravated by evacuations racing a shrunken fleet.
	DropPct       float64
	Crashes       uint64
	EvacuatedJobs uint64
	LostJobs      uint64
}

// RunFaultStudy measures how gracefully each VMT policy degrades under
// injected stochastic server crashes: peak cooling reduction against a
// round-robin baseline suffering the same fault plan, plus the
// query-level QoS cost (dropped arrivals) and the injected-fault
// totals. rates are failures per server-hour; rate 0 is the fault-free
// reference row.
func RunFaultStudy(servers int, rates []float64, gv float64, seed uint64) ([]FaultStudyRow, error) {
	if len(rates) == 0 {
		return nil, fmt.Errorf("vmt: need failure rates")
	}
	sr, err := RunSpecResults(FaultStudySpec(servers, rates, gv, seed), BatchOptions{})
	if err != nil {
		return nil, err
	}
	policies := []Policy{PolicyVMTTA, PolicyVMTWA}
	rows := make([]FaultStudyRow, 0, len(rates)*len(policies))
	for ri, rate := range rates {
		for pi, pol := range policies {
			i := ri*len(policies) + pi
			res := sr.Results[i]
			red, err := sr.pointReduction(i)
			if err != nil {
				return nil, err
			}
			row := FaultStudyRow{
				RatePerHour:   rate,
				Policy:        pol,
				ReductionPct:  red,
				Crashes:       res.FaultCrashes,
				EvacuatedJobs: res.EvacuatedJobs,
				LostJobs:      res.LostJobs,
			}
			if res.TaskArrivals > 0 {
				row.DropPct = float64(res.TaskDrops) / float64(res.TaskArrivals) * 100
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// CorrelatedFaultRow is one (correlation degree, policy) sample of
// the correlated fault study.
type CorrelatedFaultRow struct {
	// Correlation names the fault shape: none, independent, rack,
	// zone-derate, stochastic-rack, byzantine, rack-byzantine.
	Correlation string
	Policy      Policy
	// ReductionPct is the peak cooling reduction against a round-robin
	// baseline suffering the identical fault plan.
	ReductionPct float64
	// DropPct is Result.TaskDrops per 100 task arrivals.
	DropPct            float64
	Crashes            uint64
	DomainTrips        uint64
	LostJobs           uint64
	ReportsQuarantined uint64
}

// RunCorrelatedFaultStudy measures where the paper's peak reduction
// holds or collapses when failures are correlated (rack-atomic PDU
// trips, cooling-zone derates) or the schedulers are fed Byzantine
// utilization/melt reports — the robustness counterpart of
// RunFaultStudy's independent-crash model. Every policy at a given
// correlation degree faces the identical injected history, and the
// round-robin baseline suffers it too.
func RunCorrelatedFaultStudy(servers int, gv float64, seed uint64) ([]CorrelatedFaultRow, error) {
	spec := CorrelatedFaultStudySpec(servers, gv, seed)
	sr, err := RunSpecResults(spec, BatchOptions{})
	if err != nil {
		return nil, err
	}
	cases := spec.Axes[0].Cases
	policies := []Policy{PolicyVMTTA, PolicyVMTWA}
	rows := make([]CorrelatedFaultRow, 0, len(cases)*len(policies))
	for ci, cs := range cases {
		for pi, pol := range policies {
			i := ci*len(policies) + pi
			res := sr.Results[i]
			red, err := sr.pointReduction(i)
			if err != nil {
				return nil, err
			}
			row := CorrelatedFaultRow{
				Correlation:        cs.Name,
				Policy:             pol,
				ReductionPct:       red,
				Crashes:            res.FaultCrashes,
				DomainTrips:        res.DomainTrips,
				LostJobs:           res.LostJobs,
				ReportsQuarantined: res.ReportsQuarantined,
			}
			if res.TaskArrivals > 0 {
				row.DropPct = float64(res.TaskDrops) / float64(res.TaskArrivals) * 100
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// MaterialSweepPoint is one sample of a wax design-space sweep.
type MaterialSweepPoint struct {
	// Value is the swept quantity: melting temperature (°C) or volume
	// (liters).
	Value float64
	// ReductionPct is the best VMT-TA peak reduction over the GV grid
	// at this material choice.
	ReductionPct float64
	// BestGV is the grouping value that achieved it.
	BestGV float64
}

// PMTSweep sweeps the wax's physical melting temperature — the
// purchasing decision. Commercial paraffin comes in roughly 35.7–60 °C;
// the paper buys the lowest because every degree above the achievable
// hot-group temperature strands the wax. The sweep quantifies that
// cliff: VMT retunes the GV per candidate wax, and the reduction still
// collapses once even a fully concentrated group cannot reach the
// melting point.
func PMTSweep(servers int, meltTempsC, gvGrid []float64) ([]MaterialSweepPoint, error) {
	if len(meltTempsC) == 0 || len(gvGrid) == 0 {
		return nil, fmt.Errorf("vmt: need melting temperatures and a GV grid")
	}
	return materialSweep(PMTSweepSpec(servers, meltTempsC, gvGrid), meltTempsC, gvGrid)
}

// VolumeSweep sweeps the deployed wax volume per server. The paper's
// CFD found 4.0 L fits the chassis without violating CPU limits; the
// sweep shows what more or less capacity buys — linear gains while the
// peak-window heat exceeds storage, then saturation once the wax
// outlasts the peak.
func VolumeSweep(servers int, volumesL, gvGrid []float64) ([]MaterialSweepPoint, error) {
	if len(volumesL) == 0 || len(gvGrid) == 0 {
		return nil, fmt.Errorf("vmt: need volumes and a GV grid")
	}
	return materialSweep(VolumeSweepSpec(servers, volumesL, gvGrid), volumesL, gvGrid)
}

// materialSweep executes a two-axis (value × GV) design-space spec and
// reduces it with the sweeps' shared argmax: the best reduction over
// the GV grid per swept value, computed against the one baseline's
// peak cooling budget exactly as the pre-engine loops did.
func materialSweep(spec experiment.Spec, values, gvGrid []float64) ([]MaterialSweepPoint, error) {
	sr, err := RunSpecResults(spec, BatchOptions{})
	if err != nil {
		return nil, err
	}
	out := make([]MaterialSweepPoint, 0, len(values))
	for vi, val := range values {
		pt := MaterialSweepPoint{Value: val, ReductionPct: -1e18}
		for gi, gv := range gvGrid {
			red, err := sr.pointReduction(vi*len(gvGrid) + gi)
			if err != nil {
				return nil, err
			}
			if red > pt.ReductionPct {
				pt.ReductionPct = red
				pt.BestGV = gv
			}
		}
		out = append(out, pt)
	}
	return out, nil
}
