package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestBaselineOutsideObservability: the default -baseline reduction row
// adds one round-robin run, outside the observability window, so the
// metrics and the fleet log describe the policy run's 2,880 ticks
// alone.
func TestBaselineOutsideObservability(t *testing.T) {
	dir := t.TempDir()
	metrics := filepath.Join(dir, "metrics.txt")
	fleet := filepath.Join(dir, "fleet.ndjson")
	if err := run([]string{"-servers", "10", "-metrics", metrics, "-fleet-log", fleet}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "\nrun_ticks 2880\n") {
		t.Errorf("metrics do not count the policy run's 2880 ticks alone:\n%s", b)
	}
	log, err := os.ReadFile(fleet)
	if err != nil {
		t.Fatal(err)
	}
	if snapshots := bytes.Count(log, []byte("\n")); snapshots != 2880 {
		t.Errorf("fleet log holds %d snapshots, want the policy run's 2880", snapshots)
	}
}
