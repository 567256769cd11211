package main

import (
	"flag"
	"io"
	"math"
	"slices"
	"strings"
	"testing"
)

// FuzzBuildSweep drives the sweep CLI's flag parsing and range
// validation with arbitrary argv strings. The contract buildSweep
// gives main: never panic, and any (args, nil) return describes a
// sweep the dispatcher can run — a known kind, a sane cluster size,
// (for the gv kind) a non-empty all-finite grid, and batch flags only
// for a kind that honors them.
func FuzzBuildSweep(f *testing.F) {
	f.Add("")
	f.Add("-kind gv -servers 100 -from 10 -to 30 -step 2")
	f.Add("-kind threshold -gv 22")
	f.Add("-kind inlet -policy vmt-wa -runs 5")
	f.Add("-kind pmt -servers 50")
	f.Add("-spec results/specs/gv_sweep.json")
	f.Add("-kind gv -from 30 -to 10 -step 2")
	f.Add("-kind gv -step 0")
	f.Add("-kind gv -step -2")
	f.Add("-kind gv -from NaN")
	f.Add("-kind gv -to Inf")
	f.Add("-kind gv -step 1e-9 -from 0 -to 1e9")
	f.Add("-kind inlet -runs 0")
	f.Add("-servers -5")
	f.Add("-kind nonsense")
	f.Add("-unknown-flag x")
	f.Add("--")
	f.Add("-h")
	f.Add("-kind fault -servers 100 -gv 22")
	f.Add("-kind corr -servers 50")
	f.Add("-kind inlet -sweep-workers 2")
	f.Add("-kind pmt -progress")
	f.Add("-kind corr -sweep-workers 0")
	f.Add("-kind threshold -sweep-workers 2 -progress")

	f.Fuzz(func(t *testing.T, argv string) {
		args := strings.Fields(argv)
		fs := flag.NewFlagSet("vmtsweep", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		a, err := buildSweep(fs, args)
		if err != nil {
			return
		}
		if a.Servers < 1 {
			t.Fatalf("buildSweep accepted %q with %d servers", argv, a.Servers)
		}
		if a.SpecPath != "" {
			return // the spec file carries its own validated grid
		}
		k := slices.Index(sweepKinds, a.Kind)
		if k < 0 {
			t.Fatalf("buildSweep accepted unknown kind %q from %q", a.Kind, argv)
		}
		if k >= batchedKinds && (a.Workers != 0 || a.Progress) {
			t.Fatalf("buildSweep accepted batch flags for -kind %s from %q", a.Kind, argv)
		}
		switch a.Kind {
		case "gv":
			if len(a.Grid) == 0 {
				t.Fatalf("buildSweep accepted %q with an empty grid", argv)
			}
			for _, gv := range a.Grid {
				if math.IsNaN(gv) || math.IsInf(gv, 0) {
					t.Fatalf("buildSweep accepted %q with non-finite grid point %v", argv, gv)
				}
			}
		case "inlet":
			if a.Runs < 1 {
				t.Fatalf("buildSweep accepted %q with %d runs", argv, a.Runs)
			}
		}
	})
}
