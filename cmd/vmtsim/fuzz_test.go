package main

import (
	"flag"
	"io"
	"strings"
	"testing"
)

// FuzzBuildConfig drives the CLI's flag parsing and configuration
// validation with arbitrary argv strings. The contract buildConfig
// gives main: never panic, and any (cfg, _, nil) return is a
// Validate-clean configuration the simulator will accept.
func FuzzBuildConfig(f *testing.F) {
	f.Add("")
	f.Add("-policy vmt-ta -gv 22 -servers 100")
	f.Add("-policy vmt-wa -gv 20 -threshold 0.95 -inlet-stdev 2 -seed 3")
	f.Add("-policy round-robin -servers 1 -series -baseline=false")
	f.Add("-servers 2048 -physics-workers 8")
	f.Add("-policy nonsense")
	f.Add("-servers -5")
	f.Add("-gv NaN")
	f.Add("-threshold 2")
	f.Add("-physics-workers -1")
	f.Add("-servers 9999999999999999999999")
	f.Add("-unknown-flag x")
	f.Add("--")
	f.Add("-h")
	f.Add(`-source {"kind":"poisson","level":0.5,"events":30} -horizon-min 60`)
	f.Add(`-source {"kind":"bursty","level":0.3,"burst_util":0.8,"burst_prob":0.2,"epoch_min":15} -serve`)
	f.Add(`-source {"kind":"nope"}`)
	f.Add(`-source notjson`)
	f.Add("-horizon-min -1")
	f.Add("-horizon-min 1e300")
	f.Add("-horizon-min NaN")
	f.Add(`-faults {"crashes":[{"server":3,"at_min":120,"repair_after_min":60}]}`)
	f.Add(`-faults {"topology":{"servers_per_rack":6,"racks_per_row":5,"rows_per_zone":1},"domains":[{"kind":"rack","index":1,"at_min":360,"repair_after_min":180}]}`)
	f.Add(`-faults {"byzantine":[{"server":0,"kind":"melt","start_min":60,"bias":0.5}]}`)
	f.Add(`-faults {"domains":[{"kind":"rack","index":0,"at_min":5}]}`)
	f.Add(`-faults {"crashes":[{"server":500,"at_min":1}]} -servers 10`)
	f.Add(`-faults notjson`)

	f.Fuzz(func(t *testing.T, argv string) {
		args := strings.Fields(argv)
		fs := flag.NewFlagSet("vmtsim", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		cfg, _, err := buildConfig(fs, args)
		if err != nil {
			return
		}
		if verr := cfg.Validate(); verr != nil {
			t.Fatalf("buildConfig accepted %q but Validate rejects: %v", argv, verr)
		}
	})
}

// -horizon-min values past time.Duration's range are rejected with an
// error naming the flag, not converted to a negative horizon.
func TestBuildConfigHorizonOverflow(t *testing.T) {
	for _, v := range []string{"1e300", "NaN", "+Inf"} {
		fs := flag.NewFlagSet("vmtsim", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		_, _, err := buildConfig(fs, []string{"-horizon-min", v})
		if err == nil || !strings.Contains(err.Error(), "-horizon-min") {
			t.Errorf("-horizon-min %s: got %v, want an error naming the flag", v, err)
		}
	}
}
