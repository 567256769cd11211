// Threshold tuning: pick the VMT-WA wax threshold for a deployment.
//
// VMT-WA declares a server "fully melted" when its reported melt
// fraction crosses the wax threshold, and reacts by growing the hot
// group. Too low a threshold gives up storage capacity; 1.00 is
// brittle because small fluctuations refreeze a sliver of wax. The
// paper (Figure 17) finds a plateau at 0.95 and fixes 0.98. This
// example reruns that sweep and prints the operator guidance.
//
//	go run ./examples/thresholdtune
package main

import (
	"fmt"
	"log"

	"vmt"
)

func main() {
	const servers = 100
	const gv = 22
	thresholds := []float64{0.85, 0.90, 0.95, 0.98, 0.99, 1.00}

	fmt.Printf("Sweeping the VMT-WA wax threshold on %d servers at GV=%d...\n\n", servers, gv)
	pts, err := vmt.WaxThresholdSweep(servers, gv, thresholds, vmt.BatchOptions{})
	if err != nil {
		log.Fatal(err)
	}

	best := pts[0]
	for _, p := range pts {
		if p.ReductionPct > best.ReductionPct {
			best = p
		}
	}
	fmt.Println("Threshold  Peak reduction")
	for _, p := range pts {
		marker := ""
		if p.ReductionPct >= best.ReductionPct-0.5 {
			marker = "  <- on the plateau"
		}
		fmt.Printf("   %.2f       %5.1f%%%s\n", p.WaxThreshold, p.ReductionPct, marker)
	}

	fmt.Println("\nGuidance: any threshold on the plateau preserves the full benefit;")
	fmt.Println("pick the lowest plateau value (more robust to sensor noise and small")
	fmt.Println("temperature fluctuations than 1.00). The paper operates at 0.98 and")
	fmt.Println("notes 0.95 loses nothing (Figure 17).")
}
