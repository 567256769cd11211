package core

import (
	"testing"
	"time"

	"vmt/internal/telemetry"
	"vmt/internal/workload"
)

func TestRetuningValidation(t *testing.T) {
	c := newCluster(t, 10)
	ta, err := NewThermalAware(c, Config{GV: 22})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRetuning(nil, nil); err == nil {
		t.Fatal("nil inner should fail")
	}
	if _, err := NewRetuning(ta, []GVChange{{At: time.Hour, GV: 0}}); err == nil {
		t.Fatal("zero GV should fail")
	}
	if _, err := NewRetuning(ta, []GVChange{
		{At: time.Hour, GV: 20}, {At: time.Hour, GV: 22},
	}); err == nil {
		t.Fatal("duplicate times should fail")
	}
}

func TestRetuningAppliesInOrder(t *testing.T) {
	c := newCluster(t, 10)
	ta, err := NewThermalAware(c, Config{GV: 22}) // hot = 6
	if err != nil {
		t.Fatal(err)
	}
	// Deliberately out of order; the constructor sorts.
	rt, err := NewRetuning(ta, []GVChange{
		{At: 4 * time.Hour, GV: 30},
		{At: 2 * time.Hour, GV: 18},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rt.Name() != "vmt-ta+retune" {
		t.Fatalf("name = %s", rt.Name())
	}
	rt.Tick(time.Hour)
	if ta.HotGroupSize() != 6 {
		t.Fatalf("hot group changed early: %d", ta.HotGroupSize())
	}
	rt.Tick(2 * time.Hour)
	if ta.HotGroupSize() != 5 { // 18/35.7×10 ≈ 5.04 → 5
		t.Fatalf("after first retune: %d, want 5", ta.HotGroupSize())
	}
	rt.Tick(5 * time.Hour)      // both boundaries crossed at once
	if ta.HotGroupSize() != 8 { // 30/35.7×10 ≈ 8.4 → 8
		t.Fatalf("after second retune: %d, want 8", ta.HotGroupSize())
	}
	if rt.HotGroupSize() != 8 {
		t.Fatalf("wrapper HotGroupSize = %d", rt.HotGroupSize())
	}
}

// A retune with a server down resizes the hot group once, straight to
// Equation 1 over the survivors, as a fault-free retune does: SetGV
// sizes the group the way the Tick after it does.
func TestRetuningResizesOnceWithServerDown(t *testing.T) {
	for _, down := range []bool{false, true} {
		c := newCluster(t, 100)
		reg := telemetry.NewRegistry()
		ta, err := NewThermalAware(c, Config{GV: 22, Metrics: reg}) // hot = 62
		if err != nil {
			t.Fatal(err)
		}
		rt, err := NewRetuning(ta, []GVChange{{At: time.Hour, GV: 20}})
		if err != nil {
			t.Fatal(err)
		}
		if down {
			c.MarkFailed(0)
		}
		rt.Tick(0)
		if ta.HotGroupSize() != 62 {
			t.Fatalf("down=%v: hot group %d before the retune, want 62", down, ta.HotGroupSize())
		}
		resizes := reg.Counter("sched_hot_group_resizes")
		before := resizes.Value()
		rt.Tick(time.Hour)
		// Fault-free, 20/35.7×100 ≈ 56.0; with server 0 down, 20/35.7×99
		// ≈ 55.5 rounds to 55 working servers, a 56-server prefix.
		if ta.HotGroupSize() != 56 {
			t.Fatalf("down=%v: hot group %d after the retune, want 56", down, ta.HotGroupSize())
		}
		if got := resizes.Value() - before; got != 1 {
			t.Fatalf("down=%v: the retune counted %d hot-group resizes, want 1", down, got)
		}
	}
}

func TestRetuningForwardsPlacement(t *testing.T) {
	c := newCluster(t, 10)
	wa, err := NewWaxAware(c, Config{GV: 22})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRetuning(wa, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := rt.Place(workload.WebSearch)
	if err != nil {
		t.Fatal(err)
	}
	if !wa.IsHot(s) {
		t.Fatal("placement not forwarded to the wax-aware policy")
	}
	if err := s.Place(workload.WebSearch); err != nil {
		t.Fatal(err)
	}
	rm, err := rt.SelectRemoval(workload.WebSearch)
	if err != nil || rm.ID() != s.ID() {
		t.Fatalf("removal not forwarded: %v, %v", rm, err)
	}
}

func TestSetGVDirect(t *testing.T) {
	c := newCluster(t, 10)
	ta, err := NewThermalAware(c, Config{GV: 22})
	if err != nil {
		t.Fatal(err)
	}
	ta.SetGV(30)
	if ta.HotGroupSize() != 8 {
		t.Fatalf("TA SetGV: %d, want 8", ta.HotGroupSize())
	}
	wa, err := NewWaxAware(c, Config{GV: 22})
	if err != nil {
		t.Fatal(err)
	}
	wa.SetGV(30)
	if wa.BaseHotGroupSize() != 8 || wa.HotGroupSize() != 8 {
		t.Fatalf("WA SetGV: base %d size %d", wa.BaseHotGroupSize(), wa.HotGroupSize())
	}
	// Lowering the base does not shrink an extended group mid-peak.
	wa.g.hotSize = 9
	wa.SetGV(20)
	if wa.HotGroupSize() != 9 {
		t.Fatalf("extended group should persist: %d", wa.HotGroupSize())
	}
	if wa.BaseHotGroupSize() != 6 {
		t.Fatalf("base should drop: %d", wa.BaseHotGroupSize())
	}
}
