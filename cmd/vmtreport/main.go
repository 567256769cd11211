// Command vmtreport regenerates the tables and figures of the VMT
// paper's evaluation from the simulation, printing paper-style rows
// (and ASCII heat maps for the heat-map figures).
//
// Usage:
//
//	vmtreport                 # everything (several minutes of sims)
//	vmtreport -only fig13     # one artifact: table1, table2, fig1,
//	                          # fig2, fig6, fig7, fig8, fig9, fig10,
//	                          # fig11, fig12, fig13, fig14, fig15,
//	                          # fig16, fig17, fig18, fig19, fig20, tco
//	vmtreport -servers 100    # cluster size for the scale-out figures
//	vmtreport -csv dir        # also dump CSV series into dir
//	vmtreport -spec f.json    # execute one declarative spec file
//	vmtreport -emit-specs dir # write the built-in studies as spec files
//
// Beyond the paper's artifacts, the report appends the reproduction's
// extension studies: ext-adapt (ambient/drift adaptability),
// ext-oversub (the more-servers claim validated in simulation),
// ext-ablation (design-choice ablations), and ext-qos (search latency
// under VMT placement).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"vmt"
	"vmt/internal/cooling"
	"vmt/internal/pcm"
	"vmt/internal/report"
	"vmt/internal/stats"
	"vmt/internal/thermal"
	"vmt/internal/trace"
)

func main() {
	only := flag.String("only", "", "single artifact to regenerate (e.g. fig13, table2, tco)")
	servers := flag.Int("servers", 1000, "cluster size for the scale-out figures (sweeps always use 100)")
	sweepServers := flag.Int("sweep-servers", 100, "cluster size for parameter sweeps")
	csvDir := flag.String("csv", "", "directory to write CSV series into (optional)")
	svgDir := flag.String("svg", "", "directory to write SVG figures into (optional)")
	runs := flag.Int("runs", 5, "runs to average for the inlet-variation figures")
	specPath := flag.String("spec", "", "execute one declarative spec file and print its reduced rows")
	emitSpecs := flag.String("emit-specs", "", "write the built-in parameter studies as spec files into this directory")
	flag.Parse()

	if *specPath != "" {
		rep, err := vmt.RunSpecFile(*specPath, vmt.BatchOptions{})
		if err == nil {
			err = rep.Table().Render(os.Stdout)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "vmtreport: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *emitSpecs != "" {
		if err := emitSpecFiles(*emitSpecs, *sweepServers); err != nil {
			fmt.Fprintf(os.Stderr, "vmtreport: %v\n", err)
			os.Exit(1)
		}
		return
	}

	r := &reporter{
		out:          os.Stdout,
		servers:      *servers,
		sweepServers: *sweepServers,
		csvDir:       *csvDir,
		svgDir:       *svgDir,
		runs:         *runs,
	}
	artifacts := []struct {
		name string
		fn   func() error
	}{
		{"table1", r.table1},
		{"fig1", r.fig1},
		{"fig2", r.fig2},
		{"fig6", r.fig6},
		{"fig7", r.fig7},
		{"fig8", r.fig8},
		{"fig9", func() error { return r.heatmapFig("fig9", vmt.PolicyRoundRobin, 0) }},
		{"fig10", func() error { return r.heatmapFig("fig10", vmt.PolicyCoolestFirst, 0) }},
		{"table2", r.table2},
		{"table2b", r.table2Fusion},
		{"fig11", func() error { return r.heatmapFig("fig11", vmt.PolicyVMTTA, 22) }},
		{"fig12", func() error { return r.hotGroupTemps("fig12", vmt.PolicyVMTTA, []float64{21, 22, 23, 24, 25, 26}) }},
		{"fig13", func() error { return r.coolingLoads("fig13", vmt.PolicyVMTTA) }},
		{"fig14", func() error { return r.heatmapFig("fig14", vmt.PolicyVMTWA, 20) }},
		{"fig15", func() error { return r.hotGroupTemps("fig15", vmt.PolicyVMTWA, []float64{20, 21, 22, 24, 26}) }},
		{"fig16", func() error { return r.coolingLoads("fig16", vmt.PolicyVMTWA) }},
		{"fig17", r.fig17},
		{"fig18", r.fig18},
		{"fig19", func() error { return r.inletVariation("fig19", vmt.PolicyVMTTA) }},
		{"fig20", func() error { return r.inletVariation("fig20", vmt.PolicyVMTWA) }},
		{"tco", r.tco},
		{"ext-adapt", r.extAdaptability},
		{"ext-oversub", r.extOversubscription},
		{"ext-ablation", r.extAblation},
		{"ext-qos", r.extQoSImpact},
		{"ext-jobstream", r.extJobStream},
		{"ext-adaptive-gv", r.extAdaptiveGV},
		{"ext-zones", r.extZones},
		{"ext-material", r.extMaterial},
	}
	ran := false
	for _, a := range artifacts {
		if *only != "" && !strings.EqualFold(*only, a.name) {
			continue
		}
		ran = true
		fmt.Fprintf(r.out, "\n===== %s =====\n", strings.ToUpper(a.name))
		start := time.Now()
		if err := a.fn(); err != nil {
			fmt.Fprintf(os.Stderr, "vmtreport: %s: %v\n", a.name, err)
			os.Exit(1)
		}
		fmt.Fprintf(r.out, "(%s in %.1fs)\n", a.name, time.Since(start).Seconds())
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "vmtreport: unknown artifact %q\n", *only)
		os.Exit(2)
	}
}

type reporter struct {
	out          *os.File
	servers      int
	sweepServers int
	csvDir       string
	svgDir       string
	runs         int
}

// writeSVG renders an SVG artifact into the -svg directory.
func (r *reporter) writeSVG(name string, render func(io.Writer) error) error {
	if r.svgDir == "" {
		return nil
	}
	if err := os.MkdirAll(r.svgDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(r.svgDir, name+".svg"))
	if err != nil {
		return err
	}
	defer f.Close()
	return render(f)
}

func (r *reporter) writeCSV(name string, names []string, series []*stats.Series) error {
	if r.csvDir == "" {
		return nil
	}
	if err := os.MkdirAll(r.csvDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(r.csvDir, name+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	return report.SeriesCSV(f, names, series)
}

func (r *reporter) table1() error {
	tb := report.Table{
		Title:   "Table I: workloads considered for the scale-out study",
		Headers: []string{"Workload", "CPU Power (W)", "VMT Class"},
	}
	for _, w := range vmt.TableIRows() {
		tb.AddRow(w.Name, fmt.Sprintf("%.1f", w.CPUPowerW), w.Class.String())
	}
	return tb.Render(r.out)
}

func (r *reporter) fig1() error {
	panels, err := vmt.FeasibilityMap(10)
	if err != nil {
		return err
	}
	for _, p := range panels {
		tb := report.Table{
			Title:   fmt.Sprintf("Figure 1 (%s): exhaust temp and region vs work ratio", p.Name),
			Headers: []string{"Work Ratio (%)", "Exhaust Temp (°C)", "Region"},
		}
		for _, pt := range p.Points {
			tb.AddRow(fmt.Sprintf("%.0f", pt.RatioPct),
				fmt.Sprintf("%.1f", pt.BalancedTempC), pt.Class.String())
		}
		if err := tb.Render(r.out); err != nil {
			return err
		}
	}
	return nil
}

// fig2 demonstrates the TTS concept on a single hot server: the wax
// flattens the cooling load relative to the applied power.
func (r *reporter) fig2() error {
	node, err := thermal.NewNode(thermal.PaperServer(), pcm.CommercialParaffin(), 22)
	if err != nil {
		return err
	}
	tr, err := trace.Generate(trace.PaperTwoDay(), time.Minute)
	if err != nil {
		return err
	}
	tb := report.Table{
		Title:   "Figure 2: thermal time shifting on one hot server (power vs cooling load)",
		Headers: []string{"Hour", "Power (W)", "Cooling Load (W)", "Wax Melted (%)"},
	}
	for m := 0; m <= int(tr.Duration().Minutes()); m++ {
		u := tr.At(time.Duration(m) * time.Minute)
		power := 100 + u*32*9.0 // a hot-group-like server
		res, err := node.Step(power, time.Minute)
		if err != nil {
			return err
		}
		if m%120 == 0 {
			tb.AddRow(m/60, fmt.Sprintf("%.0f", power),
				fmt.Sprintf("%.0f", res.CoolingLoadW), fmt.Sprintf("%.0f", res.MeltFrac*100))
		}
	}
	return tb.Render(r.out)
}

func (r *reporter) fig6() error {
	caching, search, err := vmt.ColocationStudy()
	if err != nil {
		return err
	}
	ct := report.Table{
		Title:   "Figure 6: Data Caching latency with colocated Web Search",
		Headers: []string{"RPS/core", "6C mean(ms)", "6C p90", "2C+Search mean", "2C p90", "4C+Search mean", "4C p90"},
	}
	ms := func(s float64) string { return fmt.Sprintf("%.3f", s*1000) }
	for _, pt := range caching {
		ct.AddRow(fmt.Sprintf("%.0f", pt.RPSPerCore),
			ms(pt.Lat["6C"].MeanS), ms(pt.Lat["6C"].P90S),
			ms(pt.Lat["2C+Search"].MeanS), ms(pt.Lat["2C+Search"].P90S),
			ms(pt.Lat["4C+Search"].MeanS), ms(pt.Lat["4C+Search"].P90S))
	}
	if err := ct.Render(r.out); err != nil {
		return err
	}
	st := report.Table{
		Title:   "Figure 6: Web Search latency with colocated Data Caching",
		Headers: []string{"Clients/core", "6C mean(s)", "6C p90", "2C+Caching mean", "2C p90", "4C+Caching mean", "4C p90"},
	}
	sec := func(s float64) string { return fmt.Sprintf("%.3f", s) }
	for _, pt := range search {
		st.AddRow(fmt.Sprintf("%.1f", pt.ClientsPerCore),
			sec(pt.Lat["6C"].MeanS), sec(pt.Lat["6C"].P90S),
			sec(pt.Lat["2C+Caching"].MeanS), sec(pt.Lat["2C+Caching"].P90S),
			sec(pt.Lat["4C+Caching"].MeanS), sec(pt.Lat["4C+Caching"].P90S))
	}
	return st.Render(r.out)
}

func (r *reporter) fig7() error {
	six, three, err := vmt.ReliabilityStudy(r.sweepServers, 22)
	if err != nil {
		return err
	}
	tb := report.Table{
		Title:   "Figure 7: cumulative failure, round robin vs VMT-WA (20%/month rotation)",
		Headers: []string{"Month", "Round Robin (%)", "VMT (%)"},
	}
	for m := 0; m <= three.Months; m += 3 {
		tb.AddRow(m, fmt.Sprintf("%.2f", three.RR[m]*100), fmt.Sprintf("%.2f", three.VMT[m]*100))
	}
	if err := tb.Render(r.out); err != nil {
		return err
	}
	fmt.Fprintf(r.out, "6-month delta: %+.2f points; 3-year delta: %+.2f points (paper: +0.4..0.6)\n",
		six.DeltaPct, three.DeltaPct)
	return nil
}

func (r *reporter) fig8() error {
	tr, err := trace.Generate(trace.PaperTwoDay(), time.Minute)
	if err != nil {
		return err
	}
	tb := report.Table{
		Title:   "Figure 8: normalized two-day datacenter load",
		Headers: []string{"Hour", "Load (%)"},
	}
	for h := 0; h <= 48; h += 2 {
		tb.AddRow(h, fmt.Sprintf("%.1f", tr.At(time.Duration(h)*time.Hour)*100))
	}
	if err := tb.Render(r.out); err != nil {
		return err
	}
	peak, at := tr.Peak()
	fmt.Fprintf(r.out, "peak %.1f%% at %.1f h (paper: ≈95%% near hour 46)\n", peak*100, at.Hours())
	return nil
}

func (r *reporter) heatmapFig(name string, policy vmt.Policy, gv float64) error {
	study, err := vmt.RunHeatmapStudy(100, policy, gv)
	if err != nil {
		return err
	}
	title := fmt.Sprintf("%s: cluster air temperatures using %s", name, policy)
	if gv > 0 {
		title += fmt.Sprintf(" (GV=%g)", gv)
	}
	air := report.Heatmap{
		Title: title,
		Grid:  report.FlipRows(report.Transpose(study.AirTempGrid)),
		Lo:    10, Hi: 50,
		XLabel: "time (48h)", YLabel: "server id (0 at bottom)",
	}
	if err := air.Render(r.out); err != nil {
		return err
	}
	melt := report.Heatmap{
		Title: fmt.Sprintf("%s: wax melted", name),
		Grid:  report.FlipRows(report.Transpose(study.MeltFracGrid)),
		Lo:    0, Hi: 1,
		XLabel: "time (48h)", YLabel: "server id (0 at bottom)",
	}
	if err := melt.Render(r.out); err != nil {
		return err
	}
	if err := r.writeSVG(name+"-air", report.SVGHeatmap{
		Title: title,
		Grid:  report.FlipRows(report.Transpose(study.AirTempGrid)),
		Lo:    10, Hi: 50,
	}.Render); err != nil {
		return err
	}
	return r.writeSVG(name+"-melt", report.SVGHeatmap{
		Title: fmt.Sprintf("%s: wax melted", name),
		Grid:  report.FlipRows(report.Transpose(study.MeltFracGrid)),
		Lo:    0, Hi: 1,
	}.Render)
}

func (r *reporter) table2() error {
	rows, err := vmt.GVMapping(r.sweepServers, []float64{20, 21, 22, 23, 24, 25, 26, 28, 30})
	if err != nil {
		return err
	}
	tb := report.Table{
		Title:   "Table II: experimentally derived GV → virtual melting temperature mapping",
		Headers: []string{"GV", "VMT (°C)", "ΔPMT (°C)"},
	}
	for _, row := range rows {
		if !row.Melts {
			tb.AddRow(fmt.Sprintf("%.2f", row.GV), "no melt", "—")
			continue
		}
		tb.AddRow(fmt.Sprintf("%.2f", row.GV),
			fmt.Sprintf("%.1f", row.VMTTempC), fmt.Sprintf("%+.1f", row.DeltaPMTC))
	}
	return tb.Render(r.out)
}

func (r *reporter) hotGroupTemps(name string, policy vmt.Policy, gvs []float64) error {
	cfgs := []vmt.Config{vmt.BaselineScenario(r.servers)}
	for _, gv := range gvs {
		cfgs = append(cfgs, vmt.Scenario(r.servers, policy, gv))
	}
	runs, err := vmt.RunMany(cfgs, vmt.BatchOptions{})
	if err != nil {
		return err
	}
	var names []string
	var series []*stats.Series
	for i, gv := range gvs {
		names = append(names, fmt.Sprintf("GV=%g", gv))
		series = append(series, runs[i+1].HotGroupTempC)
	}
	names = append(names, "RoundRobinAvg")
	series = append(series, runs[0].MeanAirTempC)
	tb := report.Table{
		Title:   fmt.Sprintf("%s: average hot group temperature using %s (°C, wax melts at 35.7)", name, policy),
		Headers: append([]string{"Hour"}, names...),
	}
	for h := 0; h <= 48; h += 3 {
		i := h * 60
		if i >= series[0].Len() {
			i = series[0].Len() - 1
		}
		row := []any{h}
		for _, s := range series {
			row = append(row, fmt.Sprintf("%.1f", s.Values[i]))
		}
		tb.AddRow(row...)
	}
	if err := tb.Render(r.out); err != nil {
		return err
	}
	if err := r.writeSVG(name, report.LineChart{
		Title:  fmt.Sprintf("%s: average hot group temperature (%s)", name, policy),
		YLabel: "°C",
		Names:  names,
		Series: series,
		HLines: map[string]float64{"wax melt 35.7 °C": 35.7},
	}.Render); err != nil {
		return err
	}
	return r.writeCSV(name, names, series)
}

func (r *reporter) coolingLoads(name string, policy vmt.Policy) error {
	study, err := vmt.RunCoolingLoadStudy(r.servers, policy, []float64{20, 22, 24})
	if err != nil {
		return err
	}
	tb := report.Table{
		Title:   fmt.Sprintf("%s: cluster cooling load using %s (kW)", name, policy),
		Headers: []string{"Hour", "TTS(RR)", "GV=20", "GV=22", "GV=24"},
	}
	for h := 0; h <= 48; h += 2 {
		i := h * 60
		if i >= study.Baseline.Len() {
			i = study.Baseline.Len() - 1
		}
		tb.AddRow(h,
			fmt.Sprintf("%.1f", study.Baseline.Values[i]/1000),
			fmt.Sprintf("%.1f", study.ByGV[20].Values[i]/1000),
			fmt.Sprintf("%.1f", study.ByGV[22].Values[i]/1000),
			fmt.Sprintf("%.1f", study.ByGV[24].Values[i]/1000))
	}
	if err := tb.Render(r.out); err != nil {
		return err
	}
	bars := report.Table{
		Title:   fmt.Sprintf("%s: peak cooling load reduction (%%)", name),
		Headers: []string{"Configuration", "Reduction (%)"},
	}
	keys := make([]string, 0, len(study.Reductions))
	for k := range study.Reductions { //vmtlint:allow maporder keys are sorted immediately below
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		bars.AddRow(k, fmt.Sprintf("%.1f", study.Reductions[k]))
	}
	if err := bars.Render(r.out); err != nil {
		return err
	}
	if err := r.writeSVG(name, report.LineChart{
		Title:  fmt.Sprintf("%s: cluster cooling load (%s)", name, policy),
		YLabel: "W",
		Names:  []string{"TTS(RR)", "GV=20", "GV=22", "GV=24"},
		Series: []*stats.Series{study.Baseline, study.ByGV[20], study.ByGV[22], study.ByGV[24]},
	}.Render); err != nil {
		return err
	}
	return r.writeCSV(name,
		[]string{"tts_rr", "gv20", "gv22", "gv24"},
		[]*stats.Series{study.Baseline, study.ByGV[20], study.ByGV[22], study.ByGV[24]})
}

func (r *reporter) fig17() error {
	pts, err := vmt.WaxThresholdSweep(r.sweepServers, 22,
		[]float64{0.85, 0.90, 0.95, 0.98, 0.99, 1.00}, vmt.BatchOptions{})
	if err != nil {
		return err
	}
	tb := report.Table{
		Title:   "Figure 17: peak cooling load reduction vs wax threshold (VMT-WA, GV=22)",
		Headers: []string{"Wax Threshold", "Reduction (%)"},
	}
	for _, p := range pts {
		tb.AddRow(fmt.Sprintf("%.2f", p.WaxThreshold), fmt.Sprintf("%.1f", p.ReductionPct))
	}
	return tb.Render(r.out)
}

func (r *reporter) fig18() error {
	gvs := []float64{10, 12, 14, 16, 18, 20, 21, 22, 23, 24, 26, 28, 30}
	ta, err := vmt.GVSweep(r.sweepServers, vmt.PolicyVMTTA, gvs, vmt.BatchOptions{})
	if err != nil {
		return err
	}
	wa, err := vmt.GVSweep(r.sweepServers, vmt.PolicyVMTWA, gvs, vmt.BatchOptions{})
	if err != nil {
		return err
	}
	tb := report.Table{
		Title:   "Figure 18: peak cooling load reduction vs GV (100 servers)",
		Headers: []string{"GV", "VMT-TA (%)", "VMT-WA (%)"},
	}
	for i := range ta {
		tb.AddRow(fmt.Sprintf("%g", ta[i].GV),
			fmt.Sprintf("%.1f", ta[i].ReductionPct), fmt.Sprintf("%.1f", wa[i].ReductionPct))
	}
	return tb.Render(r.out)
}

func (r *reporter) inletVariation(name string, policy vmt.Policy) error {
	gvs := []float64{16, 18, 20, 22, 24, 26, 28}
	pts, err := vmt.InletVariationStudy(r.sweepServers, policy, gvs, []float64{0, 1, 2}, r.runs)
	if err != nil {
		return err
	}
	byStdev := map[float64]map[float64]float64{} //vmtlint:allow floatkey keyed by study points copied verbatim from the stdev/gv lists
	for _, p := range pts {
		if byStdev[p.StdevC] == nil {
			byStdev[p.StdevC] = map[float64]float64{} //vmtlint:allow floatkey keyed by study points copied verbatim from the gv list
		}
		byStdev[p.StdevC][p.GV] = p.ReductionPct
	}
	tb := report.Table{
		Title:   fmt.Sprintf("%s: %s peak reduction with inlet temperature variation (avg of %d runs)", name, policy, r.runs),
		Headers: []string{"GV", "STDEV=0 (%)", "STDEV=1 (%)", "STDEV=2 (%)"},
	}
	for _, gv := range gvs {
		tb.AddRow(fmt.Sprintf("%g", gv),
			fmt.Sprintf("%.1f", byStdev[0][gv]),
			fmt.Sprintf("%.1f", byStdev[1][gv]),
			fmt.Sprintf("%.1f", byStdev[2][gv]))
	}
	return tb.Render(r.out)
}

func (r *reporter) tco() error {
	// Measure the actual best reduction at scale, then price it.
	red, err := vmt.PeakReductionPct(vmt.Scenario(r.servers, vmt.PolicyVMTTA, 22))
	if err != nil {
		return err
	}
	study, err := vmt.RunTCOStudy(red)
	if err != nil {
		return err
	}
	tb := report.Table{
		Title:   fmt.Sprintf("Section V-E: TCO impact of the measured %.1f%% peak reduction (25 MW datacenter)", red),
		Headers: []string{"Quantity", "Measured", "Paper"},
	}
	tb.AddRow("Peak cooling load (MW)", fmt.Sprintf("%.1f", study.Best.CoolingLoadMW), "21.8")
	tb.AddRow("Smaller-cooling savings ($)", fmt.Sprintf("%.0f", study.Best.GrossCoolingSavingsUSD), "2,690,000")
	tb.AddRow("Extra servers (same cooling)", study.Best.ExtraServers, "7,339")
	tb.AddRow("Extra servers per cluster", study.Best.ExtraServersPerCluster, "146")
	tb.AddRow("Conservative 6% savings ($)", fmt.Sprintf("%.0f", study.Conservative.GrossCoolingSavingsUSD), "1,260,000")
	tb.AddRow("Conservative extra servers", study.Conservative.ExtraServers, "3,191")
	tb.AddRow("n-paraffin alternative cost ($)", fmt.Sprintf("%.0f", study.NParaffinUSD), "≈10,000,000")
	tb.AddRow("Commercial wax cost ($)", fmt.Sprintf("%.0f", study.CommercialUSD), "<0.5% of servers")
	return tb.Render(r.out)
}

func (r *reporter) extAdaptability() error {
	grid := vmt.DefaultGVGrid()
	ambient, err := vmt.AmbientSweep(r.sweepServers, []float64{18, 20, 22, 24, 26}, grid)
	if err != nil {
		return err
	}
	at := report.Table{
		Title:   "Extension: ambient adaptability (TTS fixed wax vs VMT retuned)",
		Headers: []string{"Inlet (°C)", "TTS (%)", "VMT (%)", "Best GV"},
	}
	for _, p := range ambient {
		at.AddRow(fmt.Sprintf("%g", p.Condition), fmt.Sprintf("%.1f", p.TTSReductionPct),
			fmt.Sprintf("%.1f", p.VMTReductionPct), fmt.Sprintf("%g", p.BestGV))
	}
	if err := at.Render(r.out); err != nil {
		return err
	}
	drift, err := vmt.DriftSweep(r.sweepServers, []float64{1.2, 1.35, 1.5, 1.65, 1.8}, grid)
	if err != nil {
		return err
	}
	dt := report.Table{
		Title:   "Extension: workload power drift (TTS fixed wax vs VMT retuned)",
		Headers: []string{"Power scale", "TTS (%)", "VMT (%)", "Best GV"},
	}
	for _, p := range drift {
		dt.AddRow(fmt.Sprintf("%g", p.Condition), fmt.Sprintf("%.1f", p.TTSReductionPct),
			fmt.Sprintf("%.1f", p.VMTReductionPct), fmt.Sprintf("%g", p.BestGV))
	}
	return dt.Render(r.out)
}

func (r *reporter) extOversubscription() error {
	tb := report.Table{
		Title:   "Extension: oversubscription validated in simulation (VMT-TA, GV=22)",
		Headers: []string{"Safety derate", "Extra servers", "Fits budget", "Headroom (%)"},
	}
	for _, safety := range []float64{0, 0.1, 0.25} {
		st, err := vmt.RunOversubscriptionStudy(2*r.sweepServers, vmt.PolicyVMTTA, 22, safety)
		if err != nil {
			return err
		}
		tb.AddRow(fmt.Sprintf("%.0f%%", safety*100), st.ExtraServers,
			st.FitsBudget, fmt.Sprintf("%.2f", st.HeadroomPct))
	}
	return tb.Render(r.out)
}

func (r *reporter) extAblation() error {
	pts, err := vmt.AblationStudy(r.sweepServers, 20)
	if err != nil {
		return err
	}
	tb := report.Table{
		Title:   "Extension: design-choice ablations at GV=20 (where wax feedback matters)",
		Headers: []string{"Variant", "Peak reduction (%)"},
	}
	for _, p := range pts {
		tb.AddRow(p.Name, fmt.Sprintf("%.2f", p.ReductionPct))
	}
	return tb.Render(r.out)
}

func (r *reporter) extQoSImpact() error {
	tb := report.Table{
		Title:   "Extension: Web Search latency on a hot-group socket vs balanced placement (peak load)",
		Headers: []string{"GV", "RR mean (ms)", "Hot mean (ms)", "Delta (%)"},
	}
	for _, gv := range []float64{20, 22, 24} {
		li, err := vmt.RunLatencyImpactStudy(gv, 0.95)
		if err != nil {
			return err
		}
		tb.AddRow(fmt.Sprintf("%g", gv), fmt.Sprintf("%.0f", li.RR.MeanS*1000),
			fmt.Sprintf("%.0f", li.Hot.MeanS*1000), fmt.Sprintf("%+.1f", li.MeanDeltaPct))
	}
	return tb.Render(r.out)
}

func (r *reporter) extJobStream() error {
	tb := report.Table{
		Title:   "Extension: query-level load model (Poisson arrivals, sampled durations)",
		Headers: []string{"Policy", "Peak reduction (%)", "Arrivals", "Drops", "Drop rate (%)"},
	}
	cfgs := []vmt.Config{vmt.BaselineScenario(r.sweepServers),
		vmt.Scenario(r.sweepServers, vmt.PolicyVMTTA, 22), vmt.Scenario(r.sweepServers, vmt.PolicyVMTWA, 22)}
	for i := range cfgs {
		cfgs[i].JobStream = true
	}
	runs, err := vmt.RunMany(cfgs, vmt.BatchOptions{})
	if err != nil {
		return err
	}
	base := runs[0]
	tb.AddRow("round-robin", "0.0", base.TaskArrivals, base.TaskDrops,
		fmt.Sprintf("%.4f", float64(base.TaskDrops)/float64(base.TaskArrivals)*100))
	for _, res := range runs[1:] {
		red, err := cooling.PeakReductionPct(base.CoolingLoadW, res.CoolingLoadW)
		if err != nil {
			return err
		}
		tb.AddRow(string(res.Config.Policy), fmt.Sprintf("%.1f", red), res.TaskArrivals, res.TaskDrops,
			fmt.Sprintf("%.4f", float64(res.TaskDrops)/float64(res.TaskArrivals)*100))
	}
	return tb.Render(r.out)
}

func (r *reporter) extAdaptiveGV() error {
	week := []float64{0.75, 0.76, 0.74, 0.95, 0.94, 0.95}
	st, err := vmt.RunAdaptiveGVStudy(r.sweepServers, 50, week, []float64{16, 18, 20, 22, 24})
	if err != nil {
		return err
	}
	tb := report.Table{
		Title: fmt.Sprintf("Extension: day-ahead GV retuning on a regime-shift week (forecast MAE %.3f, static best GV=%g)",
			st.ForecastMAE, st.StaticGV),
		Headers: []string{"Day", "Peak util", "Chosen GV", "Adaptive (%)", "Static (%)"},
	}
	for d := range st.DayPeaks {
		tb.AddRow(d, fmt.Sprintf("%.2f", st.DayPeaks[d]), fmt.Sprintf("%g", st.ChosenGVs[d]),
			fmt.Sprintf("%.1f", st.AdaptiveDaily[d]), fmt.Sprintf("%.1f", st.StaticDaily[d]))
	}
	tb.AddRow("mean", "", "", fmt.Sprintf("%.2f", st.MeanAdaptivePct), fmt.Sprintf("%.2f", st.MeanStaticPct))
	return tb.Render(r.out)
}

func (r *reporter) extZones() error {
	tb := report.Table{
		Title:   "Extension: hot-group physical placement vs per-zone CRAC load (VMT-TA, GV=22)",
		Headers: []string{"Zones", "Striped peak/mean", "Clustered peak/mean", "CRAC oversize (%)"},
	}
	for _, z := range []int{4, 5, 10} {
		st, err := vmt.RunZonePlacementStudy(r.sweepServers, z, 22)
		if err != nil {
			return err
		}
		tb.AddRow(z, fmt.Sprintf("%.3f", st.StripedPeakToMean),
			fmt.Sprintf("%.3f", st.ClusteredPeakToMean), fmt.Sprintf("%.1f", st.CRACOversizePct))
	}
	return tb.Render(r.out)
}

func (r *reporter) table2Fusion() error {
	rows, err := vmt.GVMappingFusion(r.sweepServers,
		[]float64{2, 1, 0, -1, -2, -3, -4, -5, -6, -7},
		[]float64{16, 18, 20, 22, 24, 26, 28, 30})
	if err != nil {
		return err
	}
	tb := report.Table{
		Title:   "Table II (alternate derivation): fusion-scaled PMT sweep matched on peak stored wax energy",
		Headers: []string{"ΔPMT (°C)", "PMT' (°C)", "Matched GV", "TTS energy (MJ)", "VMT energy (MJ)"},
	}
	for _, row := range rows {
		tb.AddRow(fmt.Sprintf("%+.1f", row.DeltaPMTC), fmt.Sprintf("%.1f", row.PMTC),
			fmt.Sprintf("%g", row.GV),
			fmt.Sprintf("%.1f", row.TTSEnergyMJ), fmt.Sprintf("%.1f", row.VMTEnergyMJ))
	}
	return tb.Render(r.out)
}

func (r *reporter) extMaterial() error {
	grid := []float64{18, 20, 22, 24, 26}
	pmt, err := vmt.PMTSweep(r.sweepServers, []float64{34.7, 35.7, 37, 38.5, 40}, grid)
	if err != nil {
		return err
	}
	tb := report.Table{
		Title:   "Extension: wax melting-point purchasing cliff (VMT-TA, GV retuned per point)",
		Headers: []string{"PMT (°C)", "Reduction (%)", "Best GV"},
	}
	for _, p := range pmt {
		tb.AddRow(fmt.Sprintf("%g", p.Value), fmt.Sprintf("%.1f", p.ReductionPct), fmt.Sprintf("%g", p.BestGV))
	}
	if err := tb.Render(r.out); err != nil {
		return err
	}
	vol, err := vmt.VolumeSweep(r.sweepServers, []float64{1, 2, 4, 6, 8}, grid)
	if err != nil {
		return err
	}
	vb := report.Table{
		Title:   "Extension: wax volume per server (paper deploys the CFD-limited 4.0 L)",
		Headers: []string{"Volume (L)", "Reduction (%)", "Best GV"},
	}
	for _, p := range vol {
		vb.AddRow(fmt.Sprintf("%g", p.Value), fmt.Sprintf("%.1f", p.ReductionPct), fmt.Sprintf("%g", p.BestGV))
	}
	return vb.Render(r.out)
}
