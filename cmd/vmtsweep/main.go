// Command vmtsweep runs parameter sweeps over the VMT design space:
// the grouping value (Figure 18), the wax threshold (Figure 17), and
// inlet temperature variation (Figures 19–20).
//
// Usage:
//
//	vmtsweep -kind gv -servers 100 -from 10 -to 30 -step 2
//	vmtsweep -kind threshold -gv 22
//	vmtsweep -kind inlet -policy vmt-wa -runs 5
//	vmtsweep -kind fault -servers 100 -gv 22
//	vmtsweep -kind gv -sweep-workers 2 -progress
//	vmtsweep -spec results/specs/gv_sweep.json
//
// With -spec, the sweep is read from a declarative spec file (see
// internal/experiment and EXPERIMENTS.md): the grid, the baseline, and
// the reducer all come from the file, and the rows it reduces to are
// printed as a table. The -from/-to/-step range is validated before
// any simulation starts.
//
// Observability (see internal/cliobs): the -trace, -metrics,
// -cpuprofile and -debug-addr flags observe every run of the sweep —
// traces are tagged per run so Perfetto shows one track per point.
package main

import (
	"flag"
	"fmt"
	"os"

	"vmt"
	"vmt/internal/cliobs"
	"vmt/internal/report"
)

func main() {
	build := registerSweepFlags(flag.CommandLine)
	obs := cliobs.RegisterFlags(flag.CommandLine)
	flag.Parse()

	args, err := build()
	if err != nil {
		fmt.Fprintf(os.Stderr, "vmtsweep: %v\n", err)
		os.Exit(1)
	}
	if err := obs.Start(); err != nil {
		fmt.Fprintf(os.Stderr, "vmtsweep: %v\n", err)
		os.Exit(1)
	}

	batch := vmt.BatchOptions{Workers: args.Workers}
	if args.Progress {
		batch.Progress = os.Stderr
	}

	switch {
	case args.SpecPath != "":
		var rep *vmt.SpecReport
		if rep, err = vmt.RunSpecFile(args.SpecPath, batch); err == nil {
			err = rep.Table().Render(os.Stdout)
		}
	case args.Kind == "gv":
		err = sweepGV(vmt.Policy(args.Policy), args.Servers, args.Grid, batch)
	case args.Kind == "threshold":
		err = sweepThreshold(args.Servers, args.GV, batch)
	case args.Kind == "inlet":
		err = sweepInlet(vmt.Policy(args.Policy), args.Servers, args.Runs)
	case args.Kind == "fault":
		err = sweepFault(args.Servers, args.GV)
	case args.Kind == "corr":
		err = sweepCorrelated(args.Servers, args.GV)
	default: // pmt, volume — buildSweep rejected everything else
		err = sweepMaterial(args.Servers, args.Kind)
	}
	// Flush trace/metrics/profile artifacts before any exit: os.Exit
	// would skip deferred closes.
	if cerr := obs.Close(); cerr != nil && err == nil {
		err = fmt.Errorf("observability: %w", cerr)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "vmtsweep: %v\n", err)
		os.Exit(1)
	}
}

func sweepGV(policy vmt.Policy, servers int, gvs []float64, batch vmt.BatchOptions) error {
	pts, err := vmt.GVSweep(servers, policy, gvs, batch)
	if err != nil {
		return err
	}
	tb := report.Table{
		Title:   fmt.Sprintf("Peak cooling load reduction vs GV (%s, %d servers)", policy, servers),
		Headers: []string{"GV", "Reduction (%)"},
	}
	for _, p := range pts {
		tb.AddRow(fmt.Sprintf("%g", p.GV), fmt.Sprintf("%.2f", p.ReductionPct))
	}
	return tb.Render(os.Stdout)
}

func sweepThreshold(servers int, gv float64, batch vmt.BatchOptions) error {
	pts, err := vmt.WaxThresholdSweep(servers, gv,
		[]float64{0.85, 0.90, 0.95, 0.98, 0.99, 1.00}, batch)
	if err != nil {
		return err
	}
	tb := report.Table{
		Title:   fmt.Sprintf("Peak cooling load reduction vs wax threshold (VMT-WA, GV=%g, %d servers)", gv, servers),
		Headers: []string{"Threshold", "Reduction (%)"},
	}
	for _, p := range pts {
		tb.AddRow(fmt.Sprintf("%.2f", p.WaxThreshold), fmt.Sprintf("%.2f", p.ReductionPct))
	}
	return tb.Render(os.Stdout)
}

func sweepInlet(policy vmt.Policy, servers, runs int) error {
	gvs := []float64{16, 18, 20, 22, 24, 26, 28}
	pts, err := vmt.InletVariationStudy(servers, policy, gvs, []float64{0, 1, 2}, runs)
	if err != nil {
		return err
	}
	tb := report.Table{
		Title:   fmt.Sprintf("Peak reduction vs GV with inlet variation (%s, avg of %d runs)", policy, runs),
		Headers: []string{"GV", "Stdev (°C)", "Reduction (%)"},
	}
	for _, p := range pts {
		tb.AddRow(fmt.Sprintf("%g", p.GV), fmt.Sprintf("%g", p.StdevC), fmt.Sprintf("%.2f", p.ReductionPct))
	}
	return tb.Render(os.Stdout)
}

func sweepFault(servers int, gv float64) error {
	rates := []float64{0, 0.002, 0.01, 0.05}
	rows, err := vmt.RunFaultStudy(servers, rates, gv, 1)
	if err != nil {
		return err
	}
	tb := report.Table{
		Title: fmt.Sprintf("Graceful degradation under injected crashes (GV=%g, %d servers, 2h repairs)",
			gv, servers),
		Headers: []string{"Failures/h", "Policy", "Reduction (%)", "Drops (%)", "Crashes", "Evacuated", "Lost"},
	}
	for _, r := range rows {
		tb.AddRow(fmt.Sprintf("%g", r.RatePerHour), string(r.Policy),
			fmt.Sprintf("%.2f", r.ReductionPct), fmt.Sprintf("%.3f", r.DropPct),
			fmt.Sprintf("%d", r.Crashes), fmt.Sprintf("%d", r.EvacuatedJobs),
			fmt.Sprintf("%d", r.LostJobs))
	}
	return tb.Render(os.Stdout)
}

func sweepCorrelated(servers int, gv float64) error {
	rows, err := vmt.RunCorrelatedFaultStudy(servers, gv, 1)
	if err != nil {
		return err
	}
	tb := report.Table{
		Title: fmt.Sprintf("Peak reduction under correlated domain failures and Byzantine reports (GV=%g, %d servers)",
			gv, servers),
		Headers: []string{"Correlation", "Policy", "Reduction (%)", "Drops (%)", "Crashes", "Domain trips", "Lost", "Quarantined"},
	}
	for _, r := range rows {
		tb.AddRow(r.Correlation, string(r.Policy),
			fmt.Sprintf("%.2f", r.ReductionPct), fmt.Sprintf("%.3f", r.DropPct),
			fmt.Sprintf("%d", r.Crashes), fmt.Sprintf("%d", r.DomainTrips),
			fmt.Sprintf("%d", r.LostJobs), fmt.Sprintf("%d", r.ReportsQuarantined))
	}
	return tb.Render(os.Stdout)
}

func sweepMaterial(servers int, kind string) error {
	grid := []float64{18, 20, 22, 24, 26}
	var (
		pts   []vmt.MaterialSweepPoint
		err   error
		title string
		unit  string
	)
	if kind == "pmt" {
		pts, err = vmt.PMTSweep(servers, []float64{33.7, 34.7, 35.7, 37, 38.5, 40, 42}, grid)
		title = "Peak reduction vs wax melting temperature (VMT-TA, GV retuned per point)"
		unit = "PMT (°C)"
	} else {
		pts, err = vmt.VolumeSweep(servers, []float64{1, 2, 3, 4, 5, 6, 8}, grid)
		title = "Peak reduction vs wax volume per server (VMT-TA, GV retuned per point)"
		unit = "Volume (L)"
	}
	if err != nil {
		return err
	}
	tb := report.Table{Title: title, Headers: []string{unit, "Reduction (%)", "Best GV"}}
	for _, p := range pts {
		tb.AddRow(fmt.Sprintf("%g", p.Value), fmt.Sprintf("%.1f", p.ReductionPct),
			fmt.Sprintf("%g", p.BestGV))
	}
	return tb.Render(os.Stdout)
}
