// Command vmtsim runs one cluster simulation and prints a summary plus
// an optional cooling-load time series.
//
// Usage:
//
//	vmtsim -policy vmt-ta -gv 22 -servers 1000
//	vmtsim -policy round-robin -servers 100 -series
//	vmtsim -policy vmt-wa -gv 20 -threshold 0.95 -inlet-stdev 2 -seed 3
//	vmtsim -servers 2048 -physics-workers 8
//	vmtsim -source '{"kind":"bursty","level":0.3,"burst_util":0.8,"burst_prob":0.2,"epoch_min":15}' -horizon-min 120
//
// Observability (see internal/cliobs):
//
//	vmtsim -trace out.json          # Chrome trace for Perfetto / chrome://tracing
//	vmtsim -metrics metrics.txt     # dump counters/gauges/histograms on exit
//	vmtsim -cpuprofile cpu.pprof -debug-addr localhost:8080
//	vmtsim -stream windows.ndjson   # windowed min/max/mean/p99 NDJSON stream
//	vmtsim -fleet-log fleet.ndjson  # per-tick fleet ground truth (vmtdiff input)
//	vmtsim -profile-bands -metrics metrics.txt   # per-band wall/alloc profiling
//
// With -debug-addr, /metrics serves Prometheus text exposition and
// /fleet the latest fleet snapshot as JSON, both safe to scrape
// mid-run.
//
// Serve mode hands the simulation clock to an external controller:
//
//	vmtsim -serve -debug-addr localhost:8080 \
//	    -source '{"kind":"poisson","level":0.5,"events":30}'
//
// The process opens a resumable session and blocks; time advances only
// when a client POSTs /step?n=N. GET /observe returns the current fleet
// observation as JSON and POST /place?workload=W&server=I enqueues a
// placement directive — the step/observe seam over HTTP. The session
// ends when a step reaches the horizon (finite configs) or on SIGINT,
// after which the usual summary is printed from whatever prefix ran.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"vmt"
	"vmt/internal/cliobs"
	"vmt/internal/cooling"
	"vmt/internal/report"
	"vmt/internal/stats"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "vmtsim: %v\n", err)
		os.Exit(1)
	}
}

// run executes the command for args (argv without the program name).
func run(args []string) (err error) {
	fs := flag.NewFlagSet("vmtsim", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	obs := cliobs.RegisterFlags(fs)
	cfg, opts, err := buildConfig(fs, args)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		// Reject bad policies/parameters before any simulation (or
		// profiling) starts, with usage for the flag that caused it.
		fmt.Fprintf(os.Stderr, "vmtsim: %v\n\n", err)
		fs.Usage()
		os.Exit(2)
	}
	if opts.Serve && obs.DebugAddr == "" {
		fmt.Fprintf(os.Stderr, "vmtsim: -serve requires -debug-addr\n\n")
		fs.Usage()
		os.Exit(2)
	}

	// The round-robin baseline behind the reduction row runs before the
	// observability window opens, so -trace, -metrics, -stream and
	// -fleet-log describe the policy run alone.
	var baseline *vmt.Result
	if opts.Baseline && !opts.Serve && cfg.Policy != vmt.PolicyRoundRobin {
		base := cfg
		base.Policy = vmt.PolicyRoundRobin
		if baseline, err = vmt.Run(base); err != nil {
			return fmt.Errorf("baseline: %w", err)
		}
	}

	if err := obs.Start(); err != nil {
		return err
	}
	defer func() {
		// A failed trace/metrics/profile flush must fail the command.
		if cerr := obs.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("observability: %w", cerr)
		}
	}()

	var res *vmt.Result
	if opts.Serve {
		res, err = serveSession(cfg, obs)
	} else {
		res, err = vmt.Run(cfg)
	}
	if err != nil {
		return err
	}
	return printSummary(cfg, opts, res, baseline)
}

// serveSession opens a resumable session, exposes it on the cliobs
// debug server, and blocks until a /step completes the horizon or the
// process is interrupted. The partial (or full) result is returned for
// the usual summary.
func serveSession(cfg vmt.Config, obs *cliobs.Observability) (*vmt.Result, error) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	s, err := vmt.OpenCtx(ctx, cfg)
	if err != nil {
		return nil, err
	}
	ss := cliobs.ServeSession(s)
	fmt.Fprintf(os.Stderr, "vmtsim: serving session on %s (POST /step, GET /observe, POST /place)\n", obs.Addr())
	select {
	case <-ss.Done():
		fmt.Fprintln(os.Stderr, "vmtsim: session reached its horizon")
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "vmtsim: interrupted; closing session")
	}
	res, err := s.Close()
	// An interrupt is the expected way to end an open-ended session:
	// keep the partial result and summarize what ran.
	if errors.Is(err, context.Canceled) && res != nil {
		err = nil
	}
	return res, err
}

// printSummary prints the summary, with a reduction row if baseline ran.
func printSummary(cfg vmt.Config, opts simOptions, res, baseline *vmt.Result) error {
	if res.CoolingLoadW.Len() == 0 {
		fmt.Fprintln(os.Stderr, "vmtsim: no ticks completed; nothing to summarize")
		return nil
	}
	sum, err := res.CoolingSummary()
	if err != nil {
		return err
	}

	tb := report.Table{
		Title: fmt.Sprintf("%s on %d servers over %.1f simulated hours", cfg.Policy, cfg.Servers,
			res.CoolingLoadW.TimeAt(res.CoolingLoadW.Len()).Hours()),
		Headers: []string{"Metric", "Value"},
	}
	tb.AddRow("Peak cooling load", fmt.Sprintf("%.1f kW at %.1f h", sum.PeakW/1000, sum.PeakAt.Hours()))
	tb.AddRow("Mean cooling load", fmt.Sprintf("%.1f kW", sum.MeanW/1000))
	tb.AddRow("Trough cooling load", fmt.Sprintf("%.1f kW", sum.TroughW/1000))
	tb.AddRow("Load flatness (trough/peak)", fmt.Sprintf("%.1f%%", sum.FlatnessPct))
	peakMelt, at, _ := res.MeanMeltFrac.Peak()
	tb.AddRow("Peak fleet wax melted", fmt.Sprintf("%.1f%% at %.1f h", peakMelt*100, at.Hours()))
	peakTemp, _, _ := res.MeanAirTempC.Peak()
	tb.AddRow("Peak mean air temperature", fmt.Sprintf("%.2f °C", peakTemp))
	if res.HotGroupSize != nil {
		maxHot, _, _ := res.HotGroupSize.Peak()
		tb.AddRow("Hot group size (initial→max)",
			fmt.Sprintf("%.0f → %.0f", res.HotGroupSize.Values[0], maxHot))
	}
	if res.TaskArrivals > 0 {
		tb.AddRow("Task arrivals / drops",
			fmt.Sprintf("%d / %d", res.TaskArrivals, res.TaskDrops))
	}
	if baseline != nil {
		red, err := cooling.PeakReductionPct(baseline.CoolingLoadW, res.CoolingLoadW)
		if err != nil {
			return fmt.Errorf("baseline: %w", err)
		}
		tb.AddRow("Peak reduction vs round robin", fmt.Sprintf("%.2f%%", red))
	}
	if err := tb.Render(os.Stdout); err != nil {
		return err
	}

	if opts.Series {
		hourly := res.CoolingLoadW.Downsample(60)
		if err := report.SeriesCSV(os.Stdout, []string{"cooling_kw"},
			[]*stats.Series{scaled(hourly, 1e-3)}); err != nil {
			return err
		}
	}
	return nil
}

// scaled returns a copy of s with values multiplied by k.
func scaled(s *stats.Series, k float64) *stats.Series {
	out := &stats.Series{Start: s.Start, Step: s.Step, Values: make([]float64, s.Len())}
	for i, v := range s.Values {
		out.Values[i] = v * k
	}
	return out
}
