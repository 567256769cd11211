// Command vmtdiff finds the first divergence between two telemetry
// streams from vmt runs — the determinism debugger: when two runs that
// should be bit-identical are not, vmtdiff replays their streamed
// telemetry and pinpoints the earliest tick, field, and server where
// they part ways, instead of leaving you to eyeball two multi-megabyte
// logs.
//
// Usage:
//
//	vmtdiff a.ndjson b.ndjson
//	vmtdiff -format fleet runA-fleet.ndjson runB-fleet.ndjson
//
// Both inputs must be the same kind of stream; the format is detected
// from the first record (override with -format):
//
//	fleet    NDJSON fleet log (vmtsim -fleet-log): per-server state per
//	         tick — divergences name the tick, server, and field
//	windows  NDJSON window stream (vmtsim -stream): sealed aggregation
//	         windows — divergences name the series, window, and field
//	spans    JSONL span trace (vmtsim -trace out.jsonl): tick stage
//	         spans — wall timings and allocation deltas are ignored,
//	         only the deterministic fields (name, run, sim time, args)
//	         are compared
//
// Exit status: 0 when the streams are identical in their deterministic
// fields, 1 when a divergence is found (reported on stdout), 2 on
// usage or read errors.
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, out *os.File) int {
	fs := flag.NewFlagSet("vmtdiff", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	format := fs.String("format", "auto", "stream format: auto, fleet, windows, or spans")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: vmtdiff [-format auto|fleet|windows|spans] A B")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	pathA, pathB := fs.Arg(0), fs.Arg(1)

	div, err := diffFiles(pathA, pathB, *format)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vmtdiff: %v\n", err)
		return 2
	}
	if div == nil {
		fmt.Fprintf(out, "identical: %s and %s agree on every deterministic field\n", pathA, pathB)
		return 0
	}
	fmt.Fprintln(out, div.Report(pathA, pathB))
	return 1
}
