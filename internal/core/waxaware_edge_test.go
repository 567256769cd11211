package core

import (
	"testing"
	"time"

	"vmt/internal/workload"
)

// VMT-WA enables the cluster's estimates at construction, so it must
// be built before the first Step and reports the cluster's refusal
// after it. The oracle ablation reads ground truth and enables none.
func TestWAEnablesEstimatesBeforeFirstStep(t *testing.T) {
	c := newCluster(t, 4)
	if _, err := c.Step(time.Minute); err != nil {
		t.Fatal(err)
	}
	want := c.EnableEstimates()
	if want == nil {
		t.Fatal("EnableEstimates after a Step should fail")
	}
	if _, err := NewWaxAware(c, Config{GV: 22}); err == nil || err.Error() != want.Error() {
		t.Fatalf("NewWaxAware over a stepped cluster: %v, want %v", err, want)
	}
	if _, err := NewPreserving(c, Config{GV: 22}, time.Hour, 0.5); err == nil || err.Error() != want.Error() {
		t.Fatalf("NewPreserving over a stepped cluster: %v, want %v", err, want)
	}

	oc := newCluster(t, 4)
	oracle, err := NewWaxAware(oc, Config{GV: 22, OracleWaxState: true})
	if err != nil {
		t.Fatal(err)
	}
	if oc.Server(0).Estimator() != nil {
		t.Fatal("the oracle must not enable estimates")
	}
	// Placement, removal and the per-tick rebalance read ground truth
	// only: none of them reaches the estimate (which would panic).
	for i := 0; i < 40; i++ {
		s, err := oracle.Place(workload.VideoEncoding)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Place(workload.VideoEncoding); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= 3*60; i++ {
		if _, err := oc.Step(time.Minute); err != nil {
			t.Fatal(err)
		}
		oracle.Tick(time.Duration(i) * time.Minute)
	}
	if _, err := oracle.SelectRemoval(workload.VideoEncoding); err != nil {
		t.Fatal(err)
	}
	if _, err := NewWaxAware(oc, Config{GV: 22, OracleWaxState: true}); err != nil {
		t.Fatalf("an oracle VMT-WA needs no estimates, so it may be built after a Step: %v", err)
	}
}

// placeHot rule 2: when every current hot-group server is saturated,
// the group extends sequentially until a usable server appears.
func TestWAPlaceHotExtendsOnSpike(t *testing.T) {
	c := newCluster(t, 6)
	wa, err := NewWaxAware(c, Config{GV: 22}) // base 4
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		fillServer(t, c, i, workload.WebSearch, 32)
	}
	s, err := wa.Place(workload.WebSearch)
	if err != nil {
		t.Fatal(err)
	}
	if s.ID() != 4 {
		t.Fatalf("spike placement went to %d, want first extension server 4", s.ID())
	}
	if wa.HotGroupSize() < 5 {
		t.Fatalf("hot group should have extended, size %d", wa.HotGroupSize())
	}
}

// placeHot rule 3 first arm: with the whole cluster in the hot group
// and every server either melted or full, the job goes to any server
// below the melted threshold.
func TestWAPlaceHotCornerCaseBelowThreshold(t *testing.T) {
	c := newCluster(t, 3)
	wa, err := NewWaxAware(c, Config{GV: 22, WaxThreshold: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	// Melt server 0 and keep it hot; saturate server 1 (unmelted, so
	// canMeltMore but full); leave server 2 partly free.
	fillServer(t, c, 0, workload.VideoEncoding, 32)
	for i := 0; i < 8*60 && c.Server(0).ReportedMeltFrac() < 0.999; i++ {
		if _, err := c.Step(time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	fillServer(t, c, 1, workload.VirusScan, 32)
	fillServer(t, c, 2, workload.VirusScan, 30)
	wa.g.hotSize = 3
	wa.baseHot = 3
	s, err := wa.Place(workload.WebSearch)
	if err != nil {
		t.Fatal(err)
	}
	if s.ID() != 2 {
		t.Fatalf("corner-case placement went to %d, want unmelted server 2", s.ID())
	}
}

// placeHot rule 3 second arm: when only fully melted servers have free
// cores, hot jobs still land somewhere.
func TestWAPlaceHotLastResortMeltedServer(t *testing.T) {
	c := newCluster(t, 2)
	wa, err := NewWaxAware(c, Config{GV: 22, WaxThreshold: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	// Melt server 0 hot with spare cores; saturate server 1.
	fillServer(t, c, 0, workload.VideoEncoding, 30)
	for i := 0; i < 8*60 && c.Server(0).ReportedMeltFrac() < 0.999; i++ {
		if _, err := c.Step(time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	fillServer(t, c, 1, workload.VirusScan, 32)
	wa.g.hotSize = 2
	wa.baseHot = 2
	s, err := wa.Place(workload.WebSearch)
	if err != nil {
		t.Fatal(err)
	}
	if s.ID() != 0 {
		t.Fatalf("last-resort placement went to %d, want melted server 0", s.ID())
	}
}

// Cold removal falls back to the cold group when no cold job was
// spilled into the hot group.
func TestWAColdRemovalFromColdGroup(t *testing.T) {
	c := newCluster(t, 4)
	wa, err := NewWaxAware(c, Config{GV: 22}) // base 2
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Server(3).Place(workload.DataCaching); err != nil {
		t.Fatal(err)
	}
	s, err := wa.SelectRemoval(workload.DataCaching)
	if err != nil {
		t.Fatal(err)
	}
	if s.ID() != 3 {
		t.Fatalf("removal from %d, want 3", s.ID())
	}
}

// Hot removal's middle preference: a hot-group server below the
// melting temperature sheds before one above it.
func TestWAHotRemovalPrefersNonMelting(t *testing.T) {
	c := newCluster(t, 4)
	wa, err := NewWaxAware(c, Config{GV: 22}) // base 2
	if err != nil {
		t.Fatal(err)
	}
	// Server 0: hot and loaded (above PMT after warm-up); server 1:
	// barely loaded (below PMT). Both carry the workload.
	fillServer(t, c, 0, workload.VideoEncoding, 32)
	fillServer(t, c, 1, workload.VideoEncoding, 2)
	for i := 0; i < 4*60; i++ {
		if _, err := c.Step(time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	if c.Server(0).AirTempC() < 35.7 || c.Server(1).AirTempC() >= 35.7 {
		t.Fatalf("setup temps wrong: %.1f / %.1f",
			c.Server(0).AirTempC(), c.Server(1).AirTempC())
	}
	s, err := wa.SelectRemoval(workload.VideoEncoding)
	if err != nil {
		t.Fatal(err)
	}
	if s.ID() != 1 {
		t.Fatalf("removal from %d, want the non-melting server 1", s.ID())
	}
}
