package core

import (
	"testing"
	"time"

	"vmt/internal/sched"
	"vmt/internal/workload"
)

func TestPreservingBasics(t *testing.T) {
	c := newCluster(t, 10)
	p, err := NewPreserving(c, Config{GV: 22}, 30*time.Hour, 0.5) // base 6, sacrifice 3
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "vmt-preserve" {
		t.Fatal("name")
	}
	if p.sacrificeSize != 3 {
		t.Fatalf("sacrifice = %d, want 3", p.sacrificeSize)
	}
	if p.HotGroupSize() != 6 {
		t.Fatalf("hot group = %d, want 6", p.HotGroupSize())
	}
}

func TestPreservingClampsSacrifice(t *testing.T) {
	c := newCluster(t, 10)
	p, err := NewPreserving(c, Config{GV: 22}, time.Hour, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.sacrificeSize != 1 {
		t.Fatalf("sacrifice should clamp to 1, got %d", p.sacrificeSize)
	}
	p2, err := NewPreserving(c, Config{GV: 22}, time.Hour, 5)
	if err != nil {
		t.Fatal(err)
	}
	if p2.sacrificeSize != 6 {
		t.Fatalf("sacrifice should clamp to the hot group, got %d", p2.sacrificeSize)
	}
	if _, err := NewPreserving(c, Config{GV: 0}, time.Hour, 0.5); err == nil {
		t.Fatal("invalid config should fail")
	}
}

func TestPreservingConcentratesEarly(t *testing.T) {
	c := newCluster(t, 10)
	p, err := NewPreserving(c, Config{GV: 22}, 30*time.Hour, 0.5) // sacrifice 3
	if err != nil {
		t.Fatal(err)
	}
	p.Tick(1 * time.Hour) // inside the preservation window
	// Hot jobs pack into servers 0..2 until full.
	for i := 0; i < 3*32; i++ {
		s, err := p.Place(workload.Clustering)
		if err != nil {
			t.Fatal(err)
		}
		if s.ID() >= 3 {
			t.Fatalf("placement %d escaped the sacrificial set to server %d", i, s.ID())
		}
		if err := s.Place(workload.Clustering); err != nil {
			t.Fatal(err)
		}
	}
	// Overflow falls through to the wax-aware cascade (rest of hot group).
	s, err := p.Place(workload.Clustering)
	if err != nil {
		t.Fatal(err)
	}
	if s.ID() < 3 || s.ID() >= 6 {
		t.Fatalf("overflow went to server %d, want hot group 3..5", s.ID())
	}
	// Cold jobs still go to the cold group.
	cs, err := p.Place(workload.DataCaching)
	if err != nil {
		t.Fatal(err)
	}
	if cs.ID() < 6 {
		t.Fatalf("cold job placed on hot server %d", cs.ID())
	}
}

func TestPreservingRemovalProtectsSacrifice(t *testing.T) {
	c := newCluster(t, 10)
	p, err := NewPreserving(c, Config{GV: 22}, 30*time.Hour, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	p.Tick(1 * time.Hour)
	if err := c.Server(0).Place(workload.WebSearch); err != nil { // sacrificial
		t.Fatal(err)
	}
	if err := c.Server(4).Place(workload.WebSearch); err != nil { // rest of hot group
		t.Fatal(err)
	}
	s, err := p.SelectRemoval(workload.WebSearch)
	if err != nil {
		t.Fatal(err)
	}
	if s.ID() != 4 {
		t.Fatalf("removal chose %d, want non-sacrificial 4", s.ID())
	}
	if err := s.Remove(workload.WebSearch); err != nil {
		t.Fatal(err)
	}
	// With only the sacrificial job left, it is removable.
	s, err = p.SelectRemoval(workload.WebSearch)
	if err != nil || s.ID() != 0 {
		t.Fatalf("fallback removal = %v, %v", s, err)
	}
	if _, err := p.SelectRemoval(workload.VideoEncoding); err != sched.ErrNoJob {
		t.Fatalf("absent workload err = %v", err)
	}
}

func TestPreservingRevertsAfterWindow(t *testing.T) {
	c := newCluster(t, 10)
	p, err := NewPreserving(c, Config{GV: 22}, 2*time.Hour, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	p.Tick(3 * time.Hour) // past the window
	// Placement now follows the wax-aware even spread over the whole
	// hot group, not the sacrificial prefix.
	seen := map[int]bool{}
	for i := 0; i < 6; i++ {
		s, err := p.Place(workload.WebSearch)
		if err != nil {
			t.Fatal(err)
		}
		seen[s.ID()] = true
		if err := s.Place(workload.WebSearch); err != nil {
			t.Fatal(err)
		}
	}
	if len(seen) < 4 {
		t.Fatalf("post-window placement should spread, saw %d servers", len(seen))
	}
}

func TestOracleWaxState(t *testing.T) {
	c := newCluster(t, 4)
	oracle, err := NewWaxAware(c, Config{GV: 22, OracleWaxState: true, WaxThreshold: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	reported, err := NewWaxAware(c, Config{GV: 22, WaxThreshold: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	// Drive a server hot until truth and estimate straddle the 0.5
	// threshold; since the estimator lags slightly, there is a window
	// where only the oracle sees "melted".
	fillServer(t, c, 0, workload.VideoEncoding, 32)
	for i := 0; i < 12*60; i++ {
		if _, err := c.Step(time.Minute); err != nil {
			t.Fatal(err)
		}
		s := c.Server(0)
		if melted(oracle, s) != (s.MeltFrac() >= 0.5) {
			t.Fatal("oracle must read ground truth")
		}
		if melted(reported, s) != (s.ReportedMeltFrac() >= 0.5) {
			t.Fatal("default must read the estimator")
		}
	}
}

func TestMigrationBudgetDefault(t *testing.T) {
	c := newCluster(t, 4)
	wa, err := NewWaxAware(c, Config{GV: 22})
	if err != nil {
		t.Fatal(err)
	}
	if wa.cfg.MigrationBudgetFrac != 0.25 {
		t.Fatalf("default budget = %v, want 0.25", wa.cfg.MigrationBudgetFrac)
	}
	if _, err := NewWaxAware(c, Config{GV: 22, MigrationBudgetFrac: 2}); err == nil {
		t.Fatal("budget > 1 should fail validation")
	}
}
