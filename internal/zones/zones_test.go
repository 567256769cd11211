package zones

import (
	"math"
	"testing"
)

func TestAssignmentsValidate(t *testing.T) {
	if _, err := Striped(0, 1); err == nil {
		t.Fatal("zero servers should fail")
	}
	if _, err := Clustered(4, 0); err == nil {
		t.Fatal("zero zones should fail")
	}
	if _, err := Striped(2, 3); err == nil {
		t.Fatal("more zones than servers should fail")
	}
}

func TestStripedSpreadsPrefixes(t *testing.T) {
	a, err := Striped(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if a.zones != 4 {
		t.Fatal("zones")
	}
	// The first half of the IDs (a hot group) covers every zone twice.
	counts := make([]int, 4)
	for id := 0; id < 4; id++ {
		counts[a.zoneOf[id]]++
	}
	for z, c := range counts {
		if c != 1 {
			t.Fatalf("zone %d has %d of the prefix, want 1", z, c)
		}
	}
}

func TestClusteredConcentratesPrefixes(t *testing.T) {
	a, err := Clustered(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	// The first quarter of IDs all land in zone 0.
	if a.zoneOf[0] != 0 || a.zoneOf[1] != 0 {
		t.Fatal("prefix should fill zone 0")
	}
	if a.zoneOf[7] != 3 {
		t.Fatal("suffix should land in the last zone")
	}
}

func TestZoneLoads(t *testing.T) {
	a, err := Striped(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	loads, err := a.ZoneLoads([]float64{10, 20, 30, 40})
	if err != nil {
		t.Fatal(err)
	}
	// Zone 0: servers 0,2 → 40; zone 1: servers 1,3 → 60.
	if loads[0] != 40 || loads[1] != 60 {
		t.Fatalf("loads = %v", loads)
	}
	if _, err := a.ZoneLoads([]float64{1}); err == nil {
		t.Fatal("length mismatch should fail")
	}
}

func TestSummarize(t *testing.T) {
	im, err := Summarize([]float64{100, 300})
	if err != nil {
		t.Fatal(err)
	}
	if im.MaxZoneW != 300 || im.MeanZoneW != 200 {
		t.Fatalf("summary = %+v", im)
	}
	if math.Abs(im.PeakToMean-1.5) > 1e-12 {
		t.Fatalf("peak-to-mean = %v", im.PeakToMean)
	}
	if _, err := Summarize(nil); err == nil {
		t.Fatal("empty should fail")
	}
}

// The paper's point: a striped hot group keeps the CRACs balanced,
// a physically clustered one overloads some of them.
func TestWorstImbalanceStripedVsClustered(t *testing.T) {
	// 8 servers: the first 4 (the hot group) at 400 W, the rest at
	// 150 W — a VMT-like load snapshot repeated over time.
	grid := [][]float64{
		{400, 400, 400, 400, 150, 150, 150, 150},
		{420, 410, 400, 390, 140, 160, 150, 150},
	}
	striped, err := Striped(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	clustered, err := Clustered(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	sIm, err := striped.WorstImbalance(grid)
	if err != nil {
		t.Fatal(err)
	}
	cIm, err := clustered.WorstImbalance(grid)
	if err != nil {
		t.Fatal(err)
	}
	if sIm.PeakToMean > 1.05 {
		t.Fatalf("striped layout should stay balanced, got %v", sIm.PeakToMean)
	}
	if cIm.PeakToMean < 1.4 {
		t.Fatalf("clustered layout should overload a zone, got %v", cIm.PeakToMean)
	}
	if _, err := striped.WorstImbalance(nil); err == nil {
		t.Fatal("empty recording should fail")
	}
}
