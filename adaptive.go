package vmt

import (
	"fmt"
	"time"

	"vmt/internal/forecast"
	"vmt/internal/trace"
)

// GVChange schedules a grouping-value retune at a simulation time
// (applies to the VMT policies; see Config.GVSchedule).
type GVChange struct {
	At time.Duration `json:"at_ns"`
	GV float64       `json:"gv"`
}

// AdaptiveGVStudy closes the operational loop the paper sketches in
// Section V-C: each evening, forecast tomorrow's load from history,
// pick tomorrow's GV by simulating the forecast, and retune. The study
// compares that day-ahead adaptive operation against the best single
// static GV over a multi-day trace with day-to-day peak variation.
type AdaptiveGVStudy struct {
	// DayPeaks is the realized per-day peak utilization.
	DayPeaks []float64
	// ChosenGVs is the adaptive controller's per-day choice.
	ChosenGVs []float64
	// StaticGV is the best fixed value found over the whole trace.
	StaticGV float64
	// AdaptiveDaily and StaticDaily are per-day peak cooling
	// reductions vs round robin (percent).
	AdaptiveDaily, StaticDaily []float64
	// MeanAdaptivePct and MeanStaticPct average the daily reductions —
	// the day-to-day benefit (off-peak energy pricing, green windows)
	// the paper's closing discussion points at.
	MeanAdaptivePct, MeanStaticPct float64
	// ForecastMAE is the mean absolute error of the day-ahead
	// forecasts actually used.
	ForecastMAE float64
}

// weekSpec builds a multi-day paper-style trace with the given daily
// peaks.
func weekSpec(dayPeaks []float64) trace.Spec {
	s := trace.PaperTwoDay()
	s.Days = len(dayPeaks)
	s.PeakUtil = append([]float64(nil), dayPeaks...)
	s.PeakHours = []float64{20}
	return s
}

// RunAdaptiveGVStudy runs the closed loop at the given cluster size
// over dayPeaks, choosing GVs from gvGrid. tuneServers sizes the
// cheaper single-day tuning simulations (e.g. 50).
//
// The controller embodies the paper's Section V-C risk guidance: it
// tunes with the wax-aware policy (robust when the GV lands low) and
// inflates the forecast peak by a safety margin before tuning, because
// a day that comes in hotter than forecast punishes an undersized hot
// group far more than a cooler day punishes an oversized one.
func RunAdaptiveGVStudy(servers, tuneServers int, dayPeaks, gvGrid []float64) (AdaptiveGVStudy, error) {
	if len(dayPeaks) < 2 {
		return AdaptiveGVStudy{}, fmt.Errorf("vmt: need at least two days")
	}
	if len(gvGrid) == 0 {
		return AdaptiveGVStudy{}, fmt.Errorf("vmt: need a GV grid")
	}
	spec := weekSpec(dayPeaks)
	realized, err := trace.Generate(spec, time.Minute)
	if err != nil {
		return AdaptiveGVStudy{}, err
	}
	study := AdaptiveGVStudy{DayPeaks: append([]float64(nil), dayPeaks...)}

	// Day-ahead loop: observe day d, choose GV for day d+1.
	fc, err := forecast.New(time.Minute, 0.5)
	if err != nil {
		return AdaptiveGVStudy{}, err
	}
	const minutesPerDay = 24 * 60
	vals := realized.Values()
	chosen := make([]float64, len(dayPeaks))
	chosen[0] = gvGrid[len(gvGrid)/2] // no history yet: mid-grid default
	var maeSum float64
	maeCount := 0
	for d := 1; d < len(dayPeaks); d++ {
		if err := fc.ObserveDay(vals[(d-1)*minutesPerDay : d*minutesPerDay]); err != nil {
			return AdaptiveGVStudy{}, err
		}
		pred, err := fc.PredictDay()
		if err != nil {
			return AdaptiveGVStudy{}, err
		}
		end := (d + 1) * minutesPerDay
		if end > len(vals) {
			end = len(vals)
		}
		mae, err := forecast.MAE(pred[:end-d*minutesPerDay], vals[d*minutesPerDay:end])
		if err != nil {
			return AdaptiveGVStudy{}, err
		}
		maeSum += mae
		maeCount++
		// Risk margin: tune for a day up to 10% hotter than forecast.
		inflated := make([]float64, len(pred))
		for i, v := range pred {
			inflated[i] = v * 1.10
			if inflated[i] > 1 {
				inflated[i] = 1
			}
		}
		gv, err := tuneGVOnTrace(tuneServers, inflated, gvGrid)
		if err != nil {
			return AdaptiveGVStudy{}, err
		}
		chosen[d] = gv
	}
	study.ChosenGVs = chosen
	study.ForecastMAE = maeSum / float64(maeCount)

	// Static reference: the best single GV over the full trace.
	staticGV, err := bestStaticGV(servers, spec, gvGrid)
	if err != nil {
		return AdaptiveGVStudy{}, err
	}
	study.StaticGV = staticGV

	// Full runs: round robin, adaptive schedule, static.
	base := BaselineScenario(servers)
	base.Trace = spec
	adaptive := Scenario(servers, PolicyVMTWA, chosen[0])
	adaptive.Trace = spec
	for d := 1; d < len(chosen); d++ {
		adaptive.GVSchedule = append(adaptive.GVSchedule,
			GVChange{At: time.Duration(d) * 24 * time.Hour, GV: chosen[d]})
	}
	static := Scenario(servers, PolicyVMTWA, staticGV)
	static.Trace = spec
	// Cached batch: the round-robin base and the static winner are
	// exactly the configurations bestStaticGV just ran, so only the
	// adaptive schedule simulates here.
	runs, err := RunMany([]Config{base, adaptive, static}, BatchOptions{})
	if err != nil {
		return AdaptiveGVStudy{}, err
	}
	study.AdaptiveDaily = dailyPeakReductions(runs[0], runs[1], len(dayPeaks))
	study.StaticDaily = dailyPeakReductions(runs[0], runs[2], len(dayPeaks))
	for d := range study.AdaptiveDaily {
		study.MeanAdaptivePct += study.AdaptiveDaily[d]
		study.MeanStaticPct += study.StaticDaily[d]
	}
	study.MeanAdaptivePct /= float64(len(study.AdaptiveDaily))
	study.MeanStaticPct /= float64(len(study.StaticDaily))
	return study, nil
}

// tuneGVOnTrace picks the grid GV with the best peak reduction on a
// one-day forecast, using a smaller tuning cluster for speed.
func tuneGVOnTrace(servers int, dayUtil []float64, gvGrid []float64) (float64, error) {
	if len(gvGrid) == 0 {
		return 0, fmt.Errorf("vmt: need a GV grid")
	}
	day, err := trace.FromSamples(dayUtil, time.Minute)
	if err != nil {
		return 0, err
	}
	sr, err := RunSpecResults(tuneGVSpec(servers, day, gvGrid), BatchOptions{})
	if err != nil {
		return 0, err
	}
	return argmaxGV(sr, gvGrid), nil
}

// bestStaticGV sweeps the grid over the full multi-day trace.
func bestStaticGV(servers int, spec trace.Spec, gvGrid []float64) (float64, error) {
	sr, err := RunSpecResults(staticGVSpec(servers, spec, gvGrid), BatchOptions{})
	if err != nil {
		return 0, err
	}
	return argmaxGV(sr, gvGrid), nil
}

// argmaxGV reduces a single-axis GV spec run with the tuning loops'
// original argmax: the GV whose run shaves the most absolute watts off
// the baseline peak (first on ties, -1e18 floor).
func argmaxGV(sr *SpecRun, gvGrid []float64) float64 {
	budget := sr.Baselines[0].PeakCoolingW()
	bestGV, bestRed := gvGrid[0], -1e18
	for i, gv := range gvGrid {
		red := budget - sr.Results[i].PeakCoolingW()
		if red > bestRed {
			bestGV, bestRed = gv, red
		}
	}
	return bestGV
}

// dailyPeakReductions splits both series into 24-hour windows and
// returns the per-day peak reductions (percent).
func dailyPeakReductions(baseline, variant *Result, days int) []float64 {
	perDay := int((24 * time.Hour) / baseline.Config.Step)
	out := make([]float64, 0, days)
	for d := 0; d < days; d++ {
		lo := d * perDay
		hi := lo + perDay
		if hi > baseline.CoolingLoadW.Len() {
			hi = baseline.CoolingLoadW.Len()
		}
		var bPeak, vPeak float64
		for i := lo; i < hi; i++ {
			if b := baseline.CoolingLoadW.Values[i]; b > bPeak {
				bPeak = b
			}
			if v := variant.CoolingLoadW.Values[i]; v > vPeak {
				vPeak = v
			}
		}
		if bPeak <= 0 {
			out = append(out, 0)
			continue
		}
		out = append(out, (bPeak-vPeak)/bPeak*100)
	}
	return out
}
