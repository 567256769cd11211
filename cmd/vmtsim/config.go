package main

import (
	"flag"
	"fmt"
	"time"

	"vmt"
	"vmt/internal/fault"
	"vmt/internal/stats"
	"vmt/internal/workload"
)

// simOptions carries the presentation knobs that ride alongside the
// simulation configuration on the command line.
type simOptions struct {
	// Series prints the hourly cooling-load series after the summary.
	Series bool
	// Baseline also runs a round-robin baseline for the reduction row.
	Baseline bool
	// Serve opens a Session and drives it over the -debug-addr HTTP
	// server (/observe, /step, /place) instead of running to completion.
	Serve bool
}

// registerConfigFlags declares every simulation flag on fs and returns
// a builder that assembles the validated Config after fs.Parse. Keeping
// declaration and assembly together (and separate from main's
// observability wiring) gives the fuzz harness the exact surface the
// CLI exposes: any argv must either produce a Validate-clean Config or
// return an error — never panic.
func registerConfigFlags(fs *flag.FlagSet) func() (vmt.Config, simOptions, error) {
	policy := fs.String("policy", "vmt-ta", "placement policy: round-robin, coolest-first, vmt-ta, vmt-wa")
	gv := fs.Float64("gv", 22, "grouping value for the VMT policies")
	servers := fs.Int("servers", 100, "cluster size")
	threshold := fs.Float64("threshold", 0.98, "VMT-WA wax threshold")
	inletStdev := fs.Float64("inlet-stdev", 0, "per-server inlet temperature stdev (°C)")
	seed := fs.Uint64("seed", 0, "random seed for inlet variation")
	series := fs.Bool("series", false, "print the hourly cooling-load series")
	jobStream := fs.Bool("jobstream", false, "use the query-level load model (Poisson task arrivals)")
	baseline := fs.Bool("baseline", true, "also run a round-robin baseline and report the peak reduction")
	physicsWorkers := fs.Int("physics-workers", 0,
		"per-tick physics goroutines (0 = auto: serial for small clusters, bounded by GOMAXPROCS otherwise); results are identical for any value")
	source := fs.String("source", "",
		`arrival source spec as JSON (e.g. '{"kind":"poisson","level":0.5,"events":30}'); replaces the two-day trace with a seeded open-loop generator`)
	faults := fs.String("faults", "",
		`fault plan as JSON (e.g. '{"crashes":[{"server":3,"at_min":120,"repair_after_min":60}]}'); crashes, sensor faults, correlated domain trips, byzantine reports`)
	horizonMin := fs.Float64("horizon-min", 0,
		"stop the simulation after this many minutes (0 = the source's natural length; required with -source unless -serve)")
	serve := fs.Bool("serve", false,
		"open a resumable session and drive it over the -debug-addr HTTP server (/observe, /step, /place) instead of running to completion")
	return func() (vmt.Config, simOptions, error) {
		cfg := vmt.Config{
			Servers:        *servers,
			Policy:         vmt.Policy(*policy),
			GV:             *gv,
			WaxThreshold:   vmt.Some(*threshold),
			InletStdevC:    *inletStdev,
			Seed:           *seed,
			JobStream:      *jobStream,
			PhysicsWorkers: *physicsWorkers,
		}
		if *source != "" {
			spec, err := workload.ParseSourceSpec([]byte(*source))
			if err != nil {
				return vmt.Config{}, simOptions{}, fmt.Errorf("-source: %w", err)
			}
			cfg.Source = spec
		}
		if *faults != "" {
			plan, err := fault.ParsePlan([]byte(*faults))
			if err != nil {
				return vmt.Config{}, simOptions{}, fmt.Errorf("-faults: %w", err)
			}
			cfg.Faults = plan
		}
		if *horizonMin < 0 {
			return vmt.Config{}, simOptions{}, fmt.Errorf("-horizon-min must be non-negative, got %v", *horizonMin)
		}
		horizon, err := stats.Duration("-horizon-min", *horizonMin, time.Minute)
		if err != nil {
			return vmt.Config{}, simOptions{}, err
		}
		cfg.Horizon = horizon
		if err := cfg.Validate(); err != nil {
			return vmt.Config{}, simOptions{}, fmt.Errorf("invalid configuration: %w", err)
		}
		return cfg, simOptions{Series: *series, Baseline: *baseline, Serve: *serve}, nil
	}
}

// buildConfig parses args (argv without the program name) into a
// validated Config — the single entry point main and the fuzz harness
// share.
func buildConfig(fs *flag.FlagSet, args []string) (vmt.Config, simOptions, error) {
	build := registerConfigFlags(fs)
	if err := fs.Parse(args); err != nil {
		return vmt.Config{}, simOptions{}, err
	}
	return build()
}
