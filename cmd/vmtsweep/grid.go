package main

import (
	"flag"
	"fmt"
	"math"
	"slices"
	"strings"
)

// sweepMode is one way to run vmtsweep, a -kind or -spec, and the
// sweep flags it reads.
type sweepMode struct {
	name  string
	flags []string
}

// sweepKinds lists every -kind in help order with the sweep flags it
// reads. Setting any other sweep flag on the command line is an error,
// so no flag is silently ignored.
var sweepKinds = []sweepMode{
	{"gv", []string{"policy", "servers", "from", "to", "step", "sweep-workers", "progress"}},
	{"threshold", []string{"servers", "gv", "sweep-workers", "progress"}},
	{"inlet", []string{"policy", "servers", "runs"}},
	{"pmt", []string{"servers"}},
	{"volume", []string{"servers"}},
	{"fault", []string{"servers", "gv"}},
	{"corr", []string{"servers", "gv"}},
}

// specMode is -spec: the file carries the grid, so only the batch
// flags apply (an explicit -kind beside it is an error too).
var specMode = sweepMode{"-spec", []string{"sweep-workers", "progress"}}

// readers names the sweep modes that read a flag; none for -kind,
// -spec and the observability flags.
func readers(name string) []string {
	var modes []string
	for _, m := range sweepKinds {
		if slices.Contains(m.flags, name) {
			modes = append(modes, m.name)
		}
	}
	if slices.Contains(specMode.flags, name) {
		modes = append(modes, specMode.name)
	}
	return modes
}

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
	var kinds []string
	for _, m := range sweepKinds {
		kinds = append(kinds, m.name)
	}
	usage := func(text, name string) string {
		return text + " (" + strings.Join(readers(name), ", ") + ")"
	}
	kind := fs.String("kind", "gv", "sweep kind: "+strings.Join(kinds, ", "))
	policy := fs.String("policy", "vmt-ta", usage("policy: vmt-ta or vmt-wa", "policy"))
	servers := fs.Int("servers", 100, usage("cluster size", "servers"))
	gv := fs.Float64("gv", 22, usage("grouping value", "gv"))
	from := fs.Float64("from", 10, usage("sweep start", "from"))
	to := fs.Float64("to", 30, usage("sweep end", "to"))
	step := fs.Float64("step", 2, usage("sweep step", "step"))
	runs := fs.Int("runs", 5, usage("runs per point", "runs"))
	spec := fs.String("spec", "", "run a declarative spec file instead of a -kind sweep")
	workers := fs.Int("sweep-workers", 0,
		usage("concurrent sweep points, 0 = GOMAXPROCS; results are identical for any value", "sweep-workers"))
	progress := fs.Bool("progress", false, usage("print per-run progress to stderr", "progress"))
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
		mode, label := specMode, "-spec"
		if a.SpecPath == "" {
			k := slices.IndexFunc(sweepKinds, func(m sweepMode) bool { return m.name == a.Kind })
			if k < 0 {
				return sweepArgs{}, fmt.Errorf("unknown sweep kind %q (want %s)", a.Kind, strings.Join(kinds, ", "))
			}
			mode, label = sweepKinds[k], "-kind "+a.Kind
		}
		var unread []string
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "kind" && a.SpecPath != "" ||
				len(readers(f.Name)) > 0 && !slices.Contains(mode.flags, f.Name) {
				unread = append(unread, "-"+f.Name)
			}
		})
		if len(unread) > 0 {
			return sweepArgs{}, fmt.Errorf("%s does not read %s", label, strings.Join(unread, ", "))
		}
		if a.SpecPath != "" {
			return a, nil // the spec file carries its own grid
		}
		if a.Servers < 1 {
			return sweepArgs{}, fmt.Errorf("-servers must be at least 1, got %d", a.Servers)
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
