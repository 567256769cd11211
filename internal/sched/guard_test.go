package sched

import (
	"testing"
	"time"

	"vmt/internal/cluster"
	"vmt/internal/telemetry"
	"vmt/internal/workload"
)

// lyingReports is a test ReportFilter: a Byzantine server offsetting
// its claimed utilization and melt fraction inside [0, 1].
type lyingReports struct {
	du, dm float64
}

func (l *lyingReports) clamp(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

func (l *lyingReports) FilterUtilization(u float64) float64 { return l.clamp(u + l.du) }
func (l *lyingReports) FilterMeltFrac(m float64) float64    { return l.clamp(m + l.dm) }

func newGuardFixture(t *testing.T, n int) (*cluster.Cluster, *Guard, *telemetry.Registry) {
	t.Helper()
	c := newCluster(t, n)
	// A moderate honest load: a mixed-power pair on every server, well
	// below the nameplate peak so the power cross-check is live.
	for i := 0; i < n; i++ {
		for j := 0; j < 2; j++ {
			if err := c.Server(i).Place(workload.WebSearch); err != nil {
				t.Fatal(err)
			}
			if err := c.Server(i).Place(workload.VirusScan); err != nil {
				t.Fatal(err)
			}
		}
	}
	reg := telemetry.NewRegistry()
	return c, NewGuard(c, workload.PaperMix(), time.Minute, reg), reg
}

// TestGuardHonestServersNeverQuarantined: truthful reports under any
// mix of mix workloads stay inside the physical envelope — zero
// strikes, zero quarantines, over many ticks.
func TestGuardHonestServersNeverQuarantined(t *testing.T) {
	c, g, reg := newGuardFixture(t, 4)
	for tick := 0; tick < 50; tick++ {
		g.Tick(time.Duration(tick) * time.Minute)
	}
	if g.Quarantined() != 0 {
		t.Fatalf("honest cluster: %d quarantine transitions", g.Quarantined())
	}
	if got := reg.Counter("sched_reports_quarantined").Value(); got != 0 {
		t.Fatalf("sched_reports_quarantined = %d, want 0", got)
	}
	for i := 0; i < c.Len(); i++ {
		if c.Server(i).ReportsQuarantined() {
			t.Fatalf("server %d quarantined without lying", i)
		}
	}
}

// TestGuardQuarantinesUtilizationLiar: a server under-reporting its
// utilization while drawing honest power is physically inconsistent;
// the guard quarantines it after guardStrikeLimit strikes and releases
// it after a clean window once the lie stops.
func TestGuardQuarantinesUtilizationLiar(t *testing.T) {
	c, g, reg := newGuardFixture(t, 4)
	liar := c.Server(1)
	lie := &lyingReports{du: -0.9}
	liar.SetReportFilter(lie)
	for tick := 0; tick < guardStrikeLimit; tick++ {
		if liar.ReportsQuarantined() {
			t.Fatalf("quarantined after only %d strikes", tick)
		}
		g.Tick(time.Duration(tick) * time.Minute)
	}
	if !liar.ReportsQuarantined() {
		t.Fatal("utilization liar not quarantined after the strike limit")
	}
	if g.Quarantined() != 1 {
		t.Fatalf("Quarantined() = %d, want 1", g.Quarantined())
	}
	if got := reg.Counter("sched_reports_quarantined").Value(); got != 1 {
		t.Fatalf("sched_reports_quarantined = %d, want 1", got)
	}
	for i := 0; i < c.Len(); i++ {
		if i != 1 && c.Server(i).ReportsQuarantined() {
			t.Fatalf("honest server %d swept up in the quarantine", i)
		}
	}
	// The lie stops; a full clean window releases the reports.
	liar.SetReportFilter(nil)
	for tick := 0; tick < guardCleanWindow; tick++ {
		g.Tick(time.Duration(100+tick) * time.Minute)
	}
	if liar.ReportsQuarantined() {
		t.Fatal("reformed liar still quarantined after a clean window")
	}
	if g.Quarantined() != 1 {
		t.Fatalf("release should not count as a new transition, Quarantined() = %d", g.Quarantined())
	}
}

// TestGuardQuarantinesMeltSlewLiar: a reported melt fraction slewing
// faster than the conductance ceiling is implausible even though every
// individual value is in [0, 1].
func TestGuardQuarantinesMeltSlewLiar(t *testing.T) {
	c, g, _ := newGuardFixture(t, 4)
	liar := c.Server(2)
	lie := &lyingReports{}
	liar.SetReportFilter(lie)
	g.Tick(0) // baseline tick: the first report only anchors lastMelt
	for tick := 1; tick <= guardStrikeLimit; tick++ {
		// Flip the reported fraction by far more than the per-minute
		// physical ceiling every tick.
		if tick%2 == 1 {
			lie.dm = 0.9
		} else {
			lie.dm = 0
		}
		g.Tick(time.Duration(tick) * time.Minute)
	}
	if !liar.ReportsQuarantined() {
		t.Fatal("melt-slew liar not quarantined after the strike limit")
	}
	if g.Quarantined() != 1 {
		t.Fatalf("Quarantined() = %d, want 1", g.Quarantined())
	}
}

// TestGuardForgivesCrashRepairJump: the melt baseline resets across a
// crash/repair, so the estimator's legitimate re-anchor jump after
// repair is never scored as a violation.
func TestGuardForgivesCrashRepairJump(t *testing.T) {
	c, g, _ := newGuardFixture(t, 4)
	s := c.Server(3)
	g.Tick(0)
	c.MarkFailed(3)
	g.Tick(1 * time.Minute)
	c.MarkRepaired(3)
	// However far the estimate moved across the outage, the first
	// post-repair report only re-anchors the baseline.
	for tick := 2; tick < 20; tick++ {
		g.Tick(time.Duration(tick) * time.Minute)
	}
	if s.ReportsQuarantined() || g.Quarantined() != 0 {
		t.Fatalf("crash/repair cycle scored as a violation: %d transitions", g.Quarantined())
	}
}

// The guard reads every server's melt estimate, so it enables the
// cluster's estimates when it is built, and a cluster that has stepped
// without them is a construction-order bug it refuses.
func TestNewGuardEnablesEstimates(t *testing.T) {
	c := newCluster(t, 2)
	NewGuard(c, nil, time.Minute, nil)
	if c.Server(1).Estimator() == nil {
		t.Fatal("NewGuard left the cluster without estimates")
	}
	late := newCluster(t, 2)
	if _, err := late.Step(time.Minute); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewGuard over a cluster stepped without estimates should panic")
		}
	}()
	NewGuard(late, nil, time.Minute, nil)
}
