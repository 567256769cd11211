package sched

import (
	"testing"
	"time"

	"vmt/internal/cluster"
	"vmt/internal/trace"
	"vmt/internal/workload"
)

func overrideCluster(t *testing.T, n int) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New(cluster.PaperCluster(n))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestOverrideTransparentWithoutDirectives(t *testing.T) {
	a := overrideCluster(t, 4)
	b := overrideCluster(t, 4)
	plain := NewRoundRobin(a)
	wrapped, err := NewOverride(b, NewRoundRobin(b))
	if err != nil {
		t.Fatal(err)
	}
	if wrapped.Name() != plain.Name() {
		t.Fatalf("Name = %q, want %q", wrapped.Name(), plain.Name())
	}
	for i := 0; i < 40; i++ {
		sp, err1 := plain.Place(workload.WebSearch)
		sw, err2 := wrapped.Place(workload.WebSearch)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("placement %d: errors diverge: %v vs %v", i, err1, err2)
		}
		if err1 != nil {
			continue
		}
		if sp.ID() != sw.ID() {
			t.Fatalf("placement %d: plain chose %d, wrapped chose %d", i, sp.ID(), sw.ID())
		}
		if err := sp.Place(workload.WebSearch); err != nil {
			t.Fatal(err)
		}
		if err := sw.Place(workload.WebSearch); err != nil {
			t.Fatal(err)
		}
	}
	if wrapped.Overridden() != 0 || wrapped.Rejected() != 0 {
		t.Fatalf("transparent override counted %d/%d", wrapped.Overridden(), wrapped.Rejected())
	}
}

func TestOverrideDirectiveWinsOnce(t *testing.T) {
	c := overrideCluster(t, 4)
	o, err := NewOverride(c, NewRoundRobin(c))
	if err != nil {
		t.Fatal(err)
	}
	o.Direct(workload.WebSearch.Name, 3)
	s, err := o.Place(workload.WebSearch)
	if err != nil {
		t.Fatal(err)
	}
	if s.ID() != 3 {
		t.Fatalf("directed placement landed on %d, want 3", s.ID())
	}
	// Directive consumed: next placement is the inner policy's choice
	// (round robin starts at 0).
	s, err = o.Place(workload.WebSearch)
	if err != nil {
		t.Fatal(err)
	}
	if s.ID() != 0 {
		t.Fatalf("post-directive placement landed on %d, want 0", s.ID())
	}
	if o.Overridden() != 1 {
		t.Fatalf("Overridden = %d, want 1", o.Overridden())
	}
}

func TestOverrideDirectiveMatchesWorkload(t *testing.T) {
	c := overrideCluster(t, 4)
	o, err := NewOverride(c, NewRoundRobin(c))
	if err != nil {
		t.Fatal(err)
	}
	o.Direct(workload.Clustering.Name, 2)
	// A WebSearch placement must not consume the Clustering directive.
	s, err := o.Place(workload.WebSearch)
	if err != nil {
		t.Fatal(err)
	}
	if s.ID() == 2 && o.Overridden() != 0 {
		t.Fatalf("WebSearch consumed the Clustering directive")
	}
	s, err = o.Place(workload.Clustering)
	if err != nil {
		t.Fatal(err)
	}
	if s.ID() != 2 {
		t.Fatalf("Clustering placement landed on %d, want 2", s.ID())
	}
}

func TestOverrideRejectsInvalidTargets(t *testing.T) {
	c := overrideCluster(t, 2)
	o, err := NewOverride(c, NewRoundRobin(c))
	if err != nil {
		t.Fatal(err)
	}
	o.Direct(workload.WebSearch.Name, 99) // out of range
	s, err := o.Place(workload.WebSearch)
	if err != nil {
		t.Fatal(err)
	}
	if o.Rejected() != 1 {
		t.Fatalf("Rejected = %d, want 1", o.Rejected())
	}
	if s.ID() != 0 {
		t.Fatalf("fallback placement landed on %d, want inner's 0", s.ID())
	}

	// A full server is rejected too.
	full := c.Server(1)
	for full.FreeCores() > 0 {
		if err := full.Place(workload.VirusScan); err != nil {
			t.Fatal(err)
		}
	}
	o.Direct(workload.WebSearch.Name, 1)
	if _, err := o.Place(workload.WebSearch); err != nil {
		t.Fatal(err)
	}
	if o.Rejected() != 2 {
		t.Fatalf("Rejected = %d, want 2", o.Rejected())
	}
}

func TestOverrideDrivesLoadManager(t *testing.T) {
	c := overrideCluster(t, 4)
	tr, err := trace.Generate(trace.Spec{
		Days: 1, PeakUtil: []float64{0.5}, TroughUtil: 0.3,
		PeakHours: []float64{12}, TroughHour: 3,
	}, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	o, err := NewOverride(c, NewRoundRobin(c))
	if err != nil {
		t.Fatal(err)
	}
	// A directive that sends the first web-search placement to server 1.
	o.Direct(workload.WebSearch.Name, 1)
	lm, err := NewLoadManager(c, workload.PaperMix(), tr, o)
	if err != nil {
		t.Fatal(err)
	}
	if err := lm.Reconcile(0); err != nil {
		t.Fatal(err)
	}
	if o.Overridden() == 0 {
		t.Fatal("no placements were overridden")
	}
	if c.Server(1).BusyCores() == 0 {
		t.Fatal("directed server received no jobs")
	}
}
