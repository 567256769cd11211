package core

import (
	"time"

	"vmt/internal/cluster"
	"vmt/internal/sched"
	"vmt/internal/telemetry"
	"vmt/internal/workload"
)

// ThermalAware is VMT with thermal aware job placement (VMT-TA,
// Section III-A): the cluster is split into a fixed hot group and cold
// group by Equation 1; hot-class jobs go to the hot group and
// cold-class jobs to the cold group, each distributed evenly within
// its group. If a group fills, jobs spill to the other group (the
// paper's stated overflow rule), so no job is ever dropped while the
// cluster has cores.
type ThermalAware struct {
	g    groups
	cfg  Config
	pmtC float64
	// target is the Equation-1 hot-group size in alive servers; the
	// actual prefix (g.hotSize) stretches past crashed IDs so the
	// policy keeps target working hot servers under fault injection.
	target int
	// resizes counts hot-group size changes (nil-safe).
	resizes *telemetry.Counter
}

// NewThermalAware builds a VMT-TA scheduler over c. The hot group size
// comes from Equation 1 using c's wax melting temperature as the PMT.
func NewThermalAware(c *cluster.Cluster, cfg Config) (*ThermalAware, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pmt := c.Config().Material.MeltTempC
	hot := HotGroupSize(cfg.GV, pmt, c.Len())
	return &ThermalAware{
		g:       newGroups(c, hot),
		cfg:     cfg,
		pmtC:    pmt,
		target:  hot,
		resizes: cfg.Metrics.Counter("sched_hot_group_resizes"),
	}, nil
}

// SetGV retunes the grouping value in place (Equation 1 re-evaluated),
// the operator action behind day-to-day VMT adjustment.
func (t *ThermalAware) SetGV(gv float64) {
	t.cfg.GV = gv
	t.target = HotGroupSize(gv, t.pmtC, t.g.c.Len())
	t.resize()
}

// Name implements sched.Scheduler.
func (t *ThermalAware) Name() string { return "vmt-ta" }

// HotGroupSize returns the (static) hot group size.
func (t *ThermalAware) HotGroupSize() int { return t.g.hotSize }

// IsHot reports whether server s belongs to the hot group.
func (t *ThermalAware) IsHot(s *cluster.Server) bool { return t.g.isHot(s) }

// Tick implements sched.Scheduler. VMT-TA has no periodic state of
// its own, but under fault injection it re-evaluates Equation 1 over
// the surviving capacity (losing a whole rack shrinks the intended
// hot count proportionally, not just the prefix stretch) and
// re-stretches the hot-group prefix over crashed servers so the
// policy keeps that count of working hot machines. Fault-free this is
// the identity.
func (t *ThermalAware) Tick(time.Duration) { t.resize() }

// resize sets the hot group to target working servers, re-evaluating
// Equation 1 over the survivors when servers are down.
func (t *ThermalAware) resize() {
	target := t.target
	if failed := t.g.c.FailedServers(); failed > 0 {
		target = HotGroupSize(t.cfg.GV, t.pmtC, t.g.c.Len()-failed)
	}
	if size := t.g.sizeForAlive(target); size != t.g.hotSize {
		t.g.hotSize = size
		t.resizes.Inc()
	}
}

// Place implements sched.Scheduler: even distribution within the
// job's class group, spilling to the other group when full.
func (t *ThermalAware) Place(w workload.Workload) (*cluster.Server, error) {
	n := t.g.c.Len()
	var primLo, primHi, secLo, secHi int
	if w.Class == workload.Hot {
		primLo, primHi, secLo, secHi = 0, t.g.hotSize, t.g.hotSize, n
	} else {
		primLo, primHi, secLo, secHi = t.g.hotSize, n, 0, t.g.hotSize
	}
	if s := t.g.leastBusy(primLo, primHi, w, nil, 0); s != nil {
		return s, nil
	}
	if s := t.g.leastBusy(secLo, secHi, w, nil, 0); s != nil {
		return s, nil
	}
	return nil, sched.ErrNoCapacity
}

// SelectRemoval implements sched.Scheduler: spilled jobs (those in the
// wrong group) are evicted first so falling load re-tightens the
// thermal separation; within a group the most-loaded server sheds
// first, mirroring the even-placement rule.
func (t *ThermalAware) SelectRemoval(w workload.Workload) (*cluster.Server, error) {
	n := t.g.c.Len()
	var primLo, primHi, spillLo, spillHi int
	if w.Class == workload.Hot {
		primLo, primHi, spillLo, spillHi = 0, t.g.hotSize, t.g.hotSize, n
	} else {
		primLo, primHi, spillLo, spillHi = t.g.hotSize, n, 0, t.g.hotSize
	}
	if s := t.g.mostBusyWith(spillLo, spillHi, w, nil, 0); s != nil {
		return s, nil
	}
	if s := t.g.mostBusyWith(primLo, primHi, w, nil, 0); s != nil {
		return s, nil
	}
	return nil, sched.ErrNoJob
}
