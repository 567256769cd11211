package main

import (
	"fmt"
	"os"
	"path/filepath"

	"vmt"
	"vmt/internal/experiment"
)

// emitSpecFiles writes the built-in parameter studies in their
// declarative form — the same specs the studies execute internally —
// so they can be edited and re-run with -spec (or vmtsweep -spec).
func emitSpecFiles(dir string, servers int) error {
	grid := vmt.DefaultGVGrid()
	specs := []experiment.Spec{
		vmt.GVSweepSpec(servers, vmt.PolicyVMTTA, []float64{10, 12, 14, 16, 18, 20, 21, 22, 23, 24, 26, 28, 30}),
		vmt.WaxThresholdSweepSpec(servers, 22, []float64{0.85, 0.90, 0.95, 0.98, 0.99, 1.00}),
		vmt.InletVariationSpec(servers, vmt.PolicyVMTTA, []float64{16, 18, 20, 22, 24, 26, 28}, []float64{0, 1, 2}, 5),
		vmt.AblationSpec(servers, 20),
		vmt.AmbientSweepSpec(servers, []float64{18, 20, 22, 24, 26}, grid),
		vmt.DriftSweepSpec(servers, []float64{1.2, 1.35, 1.5, 1.65, 1.8}, grid),
		vmt.PMTSweepSpec(servers, []float64{33.7, 34.7, 35.7, 37, 38.5, 40, 42}, []float64{18, 20, 22, 24, 26}),
		vmt.VolumeSweepSpec(servers, []float64{1, 2, 3, 4, 5, 6, 8}, []float64{18, 20, 22, 24, 26}),
		vmt.CoolingLoadSpec(servers, vmt.PolicyVMTTA, []float64{20, 22, 24}),
		vmt.FaultStudySpec(servers, []float64{0, 0.002, 0.01, 0.05}, 22, 1),
		vmt.CorrelatedFaultStudySpec(60, 22, 1),
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, spec := range specs {
		path := filepath.Join(dir, spec.Name+".json")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := spec.Encode(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", path)
	}
	return nil
}
