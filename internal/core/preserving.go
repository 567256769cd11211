package core

import (
	"time"

	"vmt/internal/cluster"
	"vmt/internal/sched"
	"vmt/internal/workload"
)

// Preserving is the paper's raise-the-melting-temperature variant
// (Section III): "VMT can also raise the melting temperature by
// locating hot jobs in a subset of servers with already melted wax,
// preserving wax in anticipation of a very hot peak still to come."
// The paper describes but does not evaluate it; this implementation is
// the reproduction's extension, exercised by the ablation benchmarks.
//
// Until PreserveUntil, hot jobs are concentrated on a *sacrificial*
// prefix of the hot group: those servers melt (and stay melted), while
// the rest of the hot group's wax is kept solid. After PreserveUntil
// the policy reverts to standard wax-aware behavior, meeting the
// anticipated peak with most of its storage intact. With a diurnal
// trace whose second day is much hotter than the first, preservation
// trades away day-one shaving to improve day-two shaving.
type Preserving struct {
	wa *WaxAware
	// preserveUntil is the simulation time after which preservation
	// stops.
	preserveUntil time.Duration
	// sacrificeSize is how many hot-group servers absorb the early
	// heat.
	sacrificeSize int
	now           time.Duration
}

// NewPreserving wraps a wax-aware scheduler with wax preservation
// until preserveUntil, sacrificing sacrificeFrac of the hot group
// (clamped to at least one server) to carry the early hot load.
func NewPreserving(c *cluster.Cluster, cfg Config, preserveUntil time.Duration, sacrificeFrac float64) (*Preserving, error) {
	wa, err := NewWaxAware(c, cfg)
	if err != nil {
		return nil, err
	}
	if sacrificeFrac < 0 {
		sacrificeFrac = 0
	}
	if sacrificeFrac > 1 {
		sacrificeFrac = 1
	}
	n := int(float64(wa.baseHot) * sacrificeFrac)
	if n < 1 {
		n = 1
	}
	return &Preserving{wa: wa, preserveUntil: preserveUntil, sacrificeSize: n}, nil
}

// Name implements sched.Scheduler.
func (p *Preserving) Name() string { return "vmt-preserve" }

// HotGroupSize reports the underlying hot group size.
func (p *Preserving) HotGroupSize() int { return p.wa.HotGroupSize() }

// preserving reports whether the policy is still in its preservation
// window.
func (p *Preserving) preserving() bool { return p.now < p.preserveUntil }

// Tick implements sched.Scheduler.
func (p *Preserving) Tick(now time.Duration) {
	p.now = now
	if p.preserving() {
		// Keep the Equation-1 grouping but skip extension and
		// rebalancing: preservation wants heat bottled up in the
		// sacrificial servers, not spread to fresh wax. The degraded
		// set still refreshes (and the prefix stretches over crashed
		// servers) so fault injection degrades gracefully here too.
		p.wa.refreshHealth()
		p.wa.g.hotSize = p.wa.g.sizeForAlive(p.wa.baseHot)
		return
	}
	p.wa.Tick(now)
}

// Place implements sched.Scheduler. During preservation, hot jobs
// are packed onto the sacrificial prefix (melted or not); once it is
// full they spill into the standard wax-aware cascade. Cold jobs
// always follow the wax-aware rules.
func (p *Preserving) Place(w workload.Workload) (*cluster.Server, error) {
	if !p.preserving() || w.Class != workload.Hot {
		return p.wa.Place(w)
	}
	if s := p.wa.g.leastBusy(0, p.sacrificeSize, w, nil, 0); s != nil {
		return s, nil
	}
	return p.wa.Place(w)
}

// SelectRemoval implements sched.Scheduler. During preservation, hot
// evictions come from *outside* the sacrificial prefix first, so the
// sacrificial servers stay saturated and the rest of the hot group
// stays cold.
func (p *Preserving) SelectRemoval(w workload.Workload) (*cluster.Server, error) {
	if !p.preserving() || w.Class != workload.Hot {
		return p.wa.SelectRemoval(w)
	}
	n := p.wa.g.c.Len()
	if s := p.wa.g.mostBusyWith(p.sacrificeSize, n, w, nil, 0); s != nil {
		return s, nil
	}
	if s := p.wa.g.mostBusyWith(0, p.sacrificeSize, w, nil, 0); s != nil {
		return s, nil
	}
	return nil, sched.ErrNoJob
}

// Interface check.
var _ sched.Scheduler = (*Preserving)(nil)
