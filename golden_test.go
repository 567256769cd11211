package vmt

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// -update rewrites the golden fixtures under results/golden from the
// current simulator output. Run it deliberately, after verifying a
// behaviour change is intended, and review the fixture diff like code:
//
//	go test -run TestGolden -update .
var updateGolden = flag.Bool("update", false, "rewrite golden fixtures under results/golden")

const goldenDir = "results/golden"

// goldenCompare checks got against the named fixture (or rewrites it
// under -update). Fixtures are JSON; floats survive encoding/json
// round trips bit-exactly (shortest-representation encoding), so the
// comparison below can demand exact equality.
func goldenCompare[T any](t *testing.T, name string, got T, equal func(a, b T) string) {
	t.Helper()
	path := filepath.Join(goldenDir, name)
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture %s (run `go test -run '^%s$' -update .` to create it): %v", path, t.Name(), err)
	}
	var want T
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("corrupt golden fixture %s: %v", path, err)
	}
	if diff := equal(got, want); diff != "" {
		t.Errorf("%s drifted from golden fixture:\n%s\n"+
			"If this change is intended, regenerate with `go test -run '^%s$' -update .` and commit the diff.", name, diff, t.Name())
	}
}

// exactFloats reports the first bit-level float mismatch, tolerating
// nothing: the simulator is deterministic and the perf work in this
// tree is required to be result-preserving, so any drift is a bug (or
// a deliberate, fixture-updating behaviour change).
func exactFloats(label string, got, want []float64) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%s: length %d, want %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Sprintf("%s[%d]: got %v (%#x), want %v (%#x)",
				label, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
	return ""
}

// goldenGVPoint mirrors GVSweepPoint with explicit JSON tags so the
// fixture format is stable even if the public struct grows fields.
type goldenGVPoint struct {
	GV           float64 `json:"gv"`
	ReductionPct float64 `json:"reduction_pct"`
}

// TestGoldenGVSweep pins the cooling-overhead-reduction-vs-GV curve
// (the shape behind Figure 18) for a small cluster on the paper trace.
// The fixture captures both the physics (peak cooling loads of
// baseline and VMT runs) and the scheduler (placement decisions at
// every GV), so virtually any unintended behaviour change in the hot
// path shows up here as a bit-level diff.
func TestGoldenGVSweep(t *testing.T) {
	gvs := []float64{16, 20, 22, 24, 28}
	pts, err := GVSweep(8, PolicyVMTTA, gvs, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got := make([]goldenGVPoint, len(pts))
	for i, p := range pts {
		got[i] = goldenGVPoint{GV: p.GV, ReductionPct: p.ReductionPct}
	}
	goldenCompare(t, "gv_sweep.json", got, func(a, b []goldenGVPoint) string {
		if len(a) != len(b) {
			return fmt.Sprintf("points: %d, want %d", len(a), len(b))
		}
		for i := range b {
			if math.Float64bits(a[i].GV) != math.Float64bits(b[i].GV) ||
				math.Float64bits(a[i].ReductionPct) != math.Float64bits(b[i].ReductionPct) {
				return fmt.Sprintf("point %d: got %+v, want %+v", i, a[i], b[i])
			}
		}
		return ""
	})
}

// goldenMeltTrajectories is the fixture for the VMT-TA vs VMT-WA
// melt-fraction comparison (the dynamic behind Figures 15–17): hourly
// fleet-mean melt fraction over the two-day trace for both policies.
type goldenMeltTrajectories struct {
	Servers int       `json:"servers"`
	GV      float64   `json:"gv"`
	StepS   float64   `json:"step_s"`
	VMTTA   []float64 `json:"vmt_ta"`
	VMTWA   []float64 `json:"vmt_wa"`
}

// TestGoldenMeltTrajectories pins the hourly melt-fraction trajectory
// of VMT-TA against VMT-WA at the same GV. VMT-WA's wax-aware checks
// change when servers rotate out of the hot group, so these two curves
// diverging or converging differently is the signature of scheduler or
// wax-model drift.
func TestGoldenMeltTrajectories(t *testing.T) {
	const servers, gv = 8, 22
	got := goldenMeltTrajectories{Servers: servers, GV: gv}
	for _, c := range []struct {
		policy Policy
		dst    *[]float64
	}{
		{PolicyVMTTA, &got.VMTTA},
		{PolicyVMTWA, &got.VMTWA},
	} {
		res, err := Run(Scenario(servers, c.policy, gv))
		if err != nil {
			t.Fatalf("%s: %v", c.policy, err)
		}
		hourly := res.MeanMeltFrac.Downsample(60)
		got.StepS = hourly.Step.Seconds()
		*c.dst = hourly.Values
	}
	goldenCompare(t, "melt_trajectories.json", got, func(a, b goldenMeltTrajectories) string {
		if a.Servers != b.Servers || a.GV != b.GV || a.StepS != b.StepS {
			return fmt.Sprintf("header: got %d/%g/%g, want %d/%g/%g",
				a.Servers, a.GV, a.StepS, b.Servers, b.GV, b.StepS)
		}
		if d := exactFloats("vmt_ta", a.VMTTA, b.VMTTA); d != "" {
			return d
		}
		return exactFloats("vmt_wa", a.VMTWA, b.VMTWA)
	})
}
