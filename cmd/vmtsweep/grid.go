package main

import (
	"flag"
	"fmt"
	"math"
	"slices"
	"strings"
)

// sweepKinds lists every -kind in help order. The first batchedKinds
// run their configurations through one vmt.BatchOptions, so only they
// (and -spec) take -sweep-workers and -progress.
var sweepKinds = []string{"gv", "threshold", "inlet", "pmt", "volume", "fault", "corr"}

const batchedKinds = 2

// sweepArgs is the validated sweep request: the kind, its parameters,
// and the already-expanded GV grid for the range-driven kinds.
type sweepArgs struct {
	Kind    string
	Policy  string
	Servers int
	GV      float64
	// Grid is the expanded -from/-to/-step grid (gv kind only).
	Grid []float64
	Runs int
	// SpecPath executes a spec file instead of a built-in kind.
	SpecPath string
	Workers  int
	Progress bool
}

// gvGrid expands and validates a -from/-to/-step range up front, so a
// bad range fails before any simulation starts. NaN and infinite
// bounds, non-positive or non-finite steps, and inverted ranges are
// all rejected.
func gvGrid(from, to, step float64) ([]float64, error) {
	for name, v := range map[string]float64{"-from": from, "-to": to, "-step": step} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s must be finite, got %v", name, v)
		}
	}
	if step <= 0 {
		return nil, fmt.Errorf("-step must be positive, got %v", step)
	}
	if from > to {
		return nil, fmt.Errorf("bad sweep range: -from %v exceeds -to %v", from, to)
	}
	// Index-based expansion: accumulating gv += step never terminates
	// when step underflows below from's precision.
	n := math.Floor((to - from + 1e-9) / step)
	const maxPoints = 100000
	if !(n < maxPoints) { // NaN/Inf-proof: rejects overflowed ranges too
		return nil, fmt.Errorf("sweep range %v..%v step %v expands to over %d points", from, to, step, maxPoints)
	}
	grid := make([]float64, 0, int(n)+1)
	for i := 0; float64(i) <= n; i++ {
		grid = append(grid, from+float64(i)*step)
	}
	return grid, nil
}

// registerSweepFlags declares every sweep flag on fs and returns a
// builder that assembles the validated sweepArgs after fs.Parse —
// declaration and validation live together, separate from main's
// observability wiring, so the fuzz harness exercises the exact
// surface the CLI exposes: any argv either produces a validated
// sweepArgs or returns an error, never a panic and never a partial
// sweep.
func registerSweepFlags(fs *flag.FlagSet) func() (sweepArgs, error) {
	kind := fs.String("kind", "gv", "sweep kind: "+strings.Join(sweepKinds, ", "))
	policy := fs.String("policy", "vmt-ta", "policy for gv/inlet sweeps: vmt-ta or vmt-wa")
	servers := fs.Int("servers", 100, "cluster size")
	gv := fs.Float64("gv", 22, "grouping value (threshold sweep)")
	from := fs.Float64("from", 10, "sweep start (gv sweep)")
	to := fs.Float64("to", 30, "sweep end (gv sweep)")
	step := fs.Float64("step", 2, "sweep step (gv sweep)")
	runs := fs.Int("runs", 5, "runs per point (inlet sweep)")
	spec := fs.String("spec", "", "run a declarative spec file instead of a -kind sweep")
	batched := "-spec and kinds " + strings.Join(sweepKinds[:batchedKinds], ", ")
	workers := fs.Int("sweep-workers", 0,
		"concurrent sweep points (0 = GOMAXPROCS; "+batched+"); results are identical for any value")
	progress := fs.Bool("progress", false, "print per-run progress to stderr ("+batched+")")
	return func() (sweepArgs, error) {
		a := sweepArgs{
			Kind:     *kind,
			Policy:   *policy,
			Servers:  *servers,
			GV:       *gv,
			Runs:     *runs,
			SpecPath: *spec,
			Workers:  *workers,
			Progress: *progress,
		}
		if a.Servers < 1 {
			return sweepArgs{}, fmt.Errorf("-servers must be at least 1, got %d", a.Servers)
		}
		if a.SpecPath != "" {
			return a, nil // the spec file carries its own grid
		}
		k := slices.Index(sweepKinds, a.Kind)
		if k < 0 {
			return sweepArgs{}, fmt.Errorf("unknown sweep kind %q (want %s)", a.Kind, strings.Join(sweepKinds, ", "))
		}
		if k >= batchedKinds && (a.Workers != 0 || a.Progress) {
			return sweepArgs{}, fmt.Errorf("-sweep-workers and -progress apply to %s, not -kind %s", batched, a.Kind)
		}
		switch a.Kind {
		case "gv":
			grid, err := gvGrid(*from, *to, *step)
			if err != nil {
				return sweepArgs{}, err
			}
			a.Grid = grid
		case "inlet":
			if a.Runs < 1 {
				return sweepArgs{}, fmt.Errorf("-runs must be at least 1, got %d", a.Runs)
			}
		}
		return a, nil
	}
}

// buildSweep parses args (argv without the program name) into a
// validated sweepArgs — the single entry point main and the fuzz
// harness share.
func buildSweep(fs *flag.FlagSet, args []string) (sweepArgs, error) {
	build := registerSweepFlags(fs)
	if err := fs.Parse(args); err != nil {
		return sweepArgs{}, err
	}
	return build()
}
