package vmt_test

import (
	"fmt"
	"testing"

	"vmt"
	"vmt/internal/telemetry"
)

// BenchmarkRunScale is the end-to-end scaling curve: one two-day run per
// op of VMT-TA and VMT-WA at GV 22 over fleets of 100 to 4,000 servers,
// with the wall share of each tick stage from ProfileBands reported as
// <band>-% metrics (the runs are fault-free, so the fault and guard
// stages never run). Physics grows linearly in the fleet, so a band
// that outgrows it shows here; VMT-WA's wax-filtered scans stay linear
// per query at every size. It uses only the exported API, so
// scripts/bench.sh can also run it against an older commit.
func BenchmarkRunScale(b *testing.B) {
	rows := []struct {
		policy  vmt.Policy
		servers []int
	}{
		{vmt.PolicyVMTTA, []int{100, 250, 500, 1000, 2000, 4000}},
		{vmt.PolicyVMTWA, []int{100, 250, 500, 1000, 2000, 4000}},
	}
	bands := []string{"physics", "schedule", "sample"}
	for _, row := range rows {
		for _, n := range row.servers {
			b.Run(fmt.Sprintf("%s/n=%d", row.policy, n), func(b *testing.B) {
				wall := make(map[string]uint64)
				for i := 0; i < b.N; i++ {
					cfg := vmt.Scenario(n, row.policy, 22)
					cfg.Metrics = telemetry.NewRegistry()
					cfg.ProfileBands = true
					if _, err := vmt.Run(cfg); err != nil {
						b.Fatal(err)
					}
					for _, band := range bands {
						wall[band] += cfg.Metrics.Counter("band_wall_ns_" + band).Value()
					}
				}
				var total uint64
				for _, v := range wall {
					total += v
				}
				if total == 0 {
					return
				}
				for _, band := range bands {
					b.ReportMetric(100*float64(wall[band])/float64(total), band+"-%")
				}
			})
		}
	}
}
